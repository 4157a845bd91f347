"""The data tables shipped in ``nrusim.data``: JSON, read by the stdlib C parser.

No table needs YAML, so loading one imports no PyYAML: ``yaml`` loads only
when ``scenario.load_scenario`` parses a scenario's text.  JSON has no
comments, so each table's notes live in the docstring of its loader.
"""

from __future__ import annotations

import json
from importlib import resources
from typing import Any

from .errors import ConfigError


def load_data(name: str) -> Any:
    """A JSON file shipped in ``nrusim.data``."""
    return json.loads((resources.files("nrusim.data") / name).read_text(encoding="utf-8"))


def shipped(table: dict, what: str, name: str) -> Any:
    """``table[name]``, or a ConfigError that lists the names that ship."""
    try:
        return table[name]
    except KeyError:
        raise ConfigError(f"unknown {what} {name!r}; shipped: {', '.join(sorted(table))}") from None

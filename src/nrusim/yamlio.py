"""YAML input, parsed by libyaml when the installed PyYAML has it.

PyYAML ships ``CSafeLoader`` only when it was built against libyaml.  It
resolves and constructs with the same code as the pure-Python
``SafeLoader``; only the scanner and parser run in C.  Both give equal
objects for every shipped file, and the same error class and position on
the malformed texts in the tests.  The installation alone decides which
one runs.
"""

from __future__ import annotations

from importlib import resources
from typing import IO, Any

import yaml

from .errors import ConfigError

LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def parse(stream: str | IO[str]) -> Any:
    """One YAML document, with the safe tags only."""
    return yaml.load(stream, Loader=LOADER)


def load_data(name: str) -> Any:
    """A YAML file shipped in ``nrusim.data``."""
    path = resources.files("nrusim.data") / name
    with path.open("r", encoding="utf-8") as handle:
        return parse(handle)


def shipped(table: dict, what: str, name: str) -> Any:
    """``table[name]``, or a ConfigError that lists the names that ship."""
    try:
        return table[name]
    except KeyError:
        raise ConfigError(f"unknown {what} {name!r}; shipped: {', '.join(sorted(table))}") from None

"""YAML input, parsed by libyaml when the installed PyYAML has it.

Only scenario text is YAML; the shipped data tables are JSON (``tables``),
so this module is imported by ``scenario.load_scenario`` alone.

PyYAML ships ``CSafeLoader`` only when it was built against libyaml.  It
resolves and constructs with the same code as the pure-Python
``SafeLoader``; only the scanner and parser run in C.  Both give equal
objects for every bundled scenario and frozen table, and the same error
class and position on the malformed texts in the tests.  The installation
alone decides which one runs.
"""

from __future__ import annotations

from typing import IO, Any

import yaml

LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def parse(stream: str | IO[str]) -> Any:
    """One YAML document, with the safe tags only."""
    return yaml.load(stream, Loader=LOADER)

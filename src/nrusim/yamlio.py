"""YAML input, parsed by libyaml when the installed PyYAML has it.

Only scenario text is YAML; the shipped data tables are JSON (``tables``),
so this module is imported by ``scenario.load_scenario`` alone.

PyYAML ships ``CSafeLoader`` only when it was built against libyaml.  It
resolves and constructs with the same code as the pure-Python
``SafeLoader``; only the scanner and parser run in C.  Both give equal
objects for every bundled scenario and frozen table, and the same error
class and position on the malformed texts in the tests.  The installation
alone decides which one runs.

Either loader keeps the last value of a key a mapping repeats, so a
scenario could say ``seed: 7`` and run seed 8 further down.  ``parse``
refuses the repeat instead.
"""

from __future__ import annotations

from typing import IO, Any

import yaml

LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class _UniqueKeys:
    """Loader mixin: a key written twice in one mapping is a ConstructorError at the second.

    A key a merge (``<<``) brings in may still be overridden, and a
    mapping written only as a ``<<`` value is merged unchecked.  A mapping
    whose entries are all distinct keys pays one length comparison.
    """

    def __init__(self, stream):
        super().__init__(stream)
        self._written: dict[yaml.MappingNode, list] = {}  # merged node -> its written pairs

    def flatten_mapping(self, node):
        pairs = node.value
        super().flatten_mapping(node)
        if node.value is not pairs:  # merged: the '<<' pairs were taken off ``pairs`` in place
            self._written.setdefault(node, pairs)

    def construct_mapping(self, node, deep=False):
        mapping = super().construct_mapping(node, deep=deep)
        if len(mapping) != len(node.value):  # a repeat, or a written key over a merged one
            seen = set()
            for key_node, _ in self._written.get(node, node.value):
                key = self.construct_object(key_node, deep=deep)
                if key in seen:
                    raise yaml.constructor.ConstructorError(
                        "while constructing a mapping", node.start_mark,
                        f"found duplicate key {key!r}", key_node.start_mark)
                seen.add(key)
        return mapping


# Either PyYAML loader that LOADER may be, with _UniqueKeys (the tests set LOADER to each).
_CHECKED = {base: type(base.__name__, (_UniqueKeys, base), {})
            for base in {yaml.SafeLoader, LOADER}}


def parse(stream: str | IO[str]) -> Any:
    """One YAML document, with the safe tags only and no repeated key."""
    return yaml.load(stream, Loader=_CHECKED[LOADER])

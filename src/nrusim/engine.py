"""Deterministic discrete-event loop with a microsecond clock.

One loop per run, single-threaded.  Events pop in nondecreasing timestamp
order with ties broken by insertion sequence, and scheduling into the
past aborts the run rather than silently corrupting it.  Randomness never
lives here: actors derive named substreams from the scenario seed so a
stream's draws do not depend on unrelated activity.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from heapq import heappop, heappush
from random import Random
from typing import Any, Callable

from .errors import InvariantBreach

# ``json.dumps(record, sort_keys=True)`` would build a new encoder per record.
_RECORD_ENCODER = json.JSONEncoder(sort_keys=True)


def _record_encoder() -> Callable[[dict[str, Any]], str]:
    """``_RECORD_ENCODER.encode`` for the records of one log, sharing one C encoder.

    ``JSONEncoder.encode`` builds a C encoder on every call.  One is built
    here per log, not per process: its circular-reference markers keep
    their entries when an encode raises, so a shared one would report a
    circular reference on a later, valid record.  Without the C
    accelerator (``c_make_encoder``, a private name, is ``None``) this is
    ``_RECORD_ENCODER.encode`` itself.
    """
    make = json.encoder.c_make_encoder
    if make is None:
        return _RECORD_ENCODER.encode
    e = _RECORD_ENCODER
    encode = make({}, e.default, json.encoder.encode_basestring_ascii, e.indent,
                  e.key_separator, e.item_separator, e.sort_keys, e.skipkeys, e.allow_nan)
    return lambda record: "".join(encode(record, 0))


def derive_rng(seed: int, label: str) -> Random:
    """Independent generator for (seed, label), stable across processes."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return Random(int.from_bytes(digest[:8], "big"))


class EventLog:
    """Append-only record list; one JSON object per record when exported.

    ``append(record)`` keeps the dict its call site built, as given: one
    dict display, ``{"t_us": ..., "actor": ..., "action": ..., **fields}``.
    The log does not copy it, so a caller builds a new dict per record and
    never reuses or changes one after logging it.  ``append`` is the
    record list's own bound method, which skips a Python-level call per
    record.
    """

    def __init__(self):
        self.records: list[dict[str, Any]] = []
        self.append: Callable[[dict[str, Any]], None] = self.records.append

    def __len__(self) -> int:
        return len(self.records)

    def to_jsonl(self) -> str:
        encode = _record_encoder()
        return "".join([encode(r) + "\n" for r in self.records])


class EventLoop:
    def __init__(self):
        self.now_us = 0
        self._heap: list[tuple[int, int, Callable[[], None]]] = []
        self._seq = itertools.count()

    def schedule_at(self, at_us: int, fn: Callable[[], None]) -> None:
        if at_us < self.now_us:
            raise InvariantBreach(f"event scheduled at {at_us} us, before now ({self.now_us} us)")
        heappush(self._heap, (at_us, next(self._seq), fn))

    def schedule_after(self, delay_us: int, fn: Callable[[], None]) -> None:
        self.schedule_at(self.now_us + delay_us, fn)

    def run(self) -> None:
        """Execute until no events remain."""
        heap = self._heap
        pop = heappop
        while heap:
            at_us, _seq, fn = pop(heap)
            self.now_us = at_us
            fn()

"""Deterministic discrete-event loop with a microsecond clock.

One loop per run, single-threaded.  Events pop in nondecreasing timestamp
order with ties broken by insertion sequence, and scheduling into the
past aborts the run rather than silently corrupting it.  Most events are
scheduled in time order (every ping and bulk tick is queued before the
loop runs), so the loop keeps them in a sorted run, a deque appended at
its tail, beside a heap for the few that arrive out of order.  Randomness
never lives here: actors derive named substreams from the scenario seed
so a stream's draws do not depend on unrelated activity.

``c_encoder`` is the one owner of the C JSON encoder: ``EventLog.to_jsonl``
and the runner's ``report.json`` both write through it.  It keeps no
circular-reference markers and so holds no state between calls.  Each
caller has one fallback, ``json.dumps``, taken when there is no C
accelerator; ``to_jsonl`` also takes it when a circular or too-deep record
raises ``RecursionError``, so it raises what ``json.dumps`` raises.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from collections import deque
from heapq import heappop, heappush
from random import Random
from typing import Any, Callable

from .errors import InvariantBreach

_C_ENCODERS: dict[str, Callable[[Any, int], Any]] = {}  # item separator -> C encoder


def c_encoder(item_separator: str) -> Callable[[Any, int], Any] | None:
    """The shared C encoder of ``json.dumps(..., sort_keys=True)``, or None without one.

    ``encode(obj, depth)`` returns ``obj``'s JSON text in parts, with ASCII
    output, sorted keys, NaN allowed and ``": "`` after each key.  It is
    built once per ``item_separator``; the C encoder ignores ``indent``, so
    an indented caller puts the line break and indent in that separator.
    It keeps no circular-reference markers (``markers=None``), so it holds
    no state between calls: a failed encode leaves nothing behind, and a
    cycle recurses until it raises ``RecursionError``.  None when the C
    accelerator (``c_make_encoder``, a private name) is ``None``.
    """
    make = json.encoder.c_make_encoder
    if make is None:
        return None
    encode = _C_ENCODERS.get(item_separator)
    if encode is None:
        encode = _C_ENCODERS[item_separator] = make(
            None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii, None,
            ": ", item_separator, True, False, True)
    return encode


def derive_rng(seed: int, label: str) -> Random:
    """Independent generator for (seed, label), stable across processes."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return Random(int.from_bytes(digest[:8], "big"))


class EventLog:
    """Append-only record list; one JSON object per record when exported.

    ``append(record)`` keeps the dict its call site built, as given: one
    dict display that lists its literal keys in sorted order, so the
    encoder's key sort meets a sorted run.  The log does not copy it, so a
    caller builds a new dict per record and never reuses or changes one
    after logging it.  ``append`` is the record list's own bound method,
    which skips a Python-level call per record.

    ``to_jsonl`` is ``json.dumps(record, sort_keys=True) + "\\n"`` per
    record for any records, in key order or not.  It encodes through the
    shared marker-free C encoder; on ``RecursionError`` (a circular or
    too-deep record) it encodes again with ``json.dumps``, so it raises
    exactly what ``json.dumps`` raises.
    """

    def __init__(self):
        self.records: list[dict[str, Any]] = []
        self.append: Callable[[dict[str, Any]], None] = self.records.append

    def __len__(self) -> int:
        return len(self.records)

    def to_jsonl(self) -> str:
        records = self.records
        if not records:
            return ""
        encode = c_encoder(", ")
        if encode is not None:
            try:
                return "\n".join(map("".join, map(encode, records, itertools.repeat(0)))) + "\n"
            except RecursionError:
                pass
        return "\n".join([json.dumps(r, sort_keys=True) for r in records]) + "\n"


class EventLoop:
    """Pending events as ``(at_us, seq, fn)`` in a sorted run and a heap.

    ``schedule_at`` appends an entry to the run, a deque whose times never
    decrease, when the run is empty or the entry is no earlier than its
    tail; any other entry goes onto the heap.  ``run`` pops whichever head
    is smaller.  ``(at_us, seq)`` is unique, so the pop order is that of a
    single heap and ``fn`` is never compared.
    """

    def __init__(self):
        self.now_us = 0
        self._run: deque[tuple[int, int, Callable[[], None]]] = deque()
        self._heap: list[tuple[int, int, Callable[[], None]]] = []
        self._seq = itertools.count()

    def schedule_at(self, at_us: int, fn: Callable[[], None]) -> None:
        if at_us < self.now_us:
            raise InvariantBreach(f"event scheduled at {at_us} us, before now ({self.now_us} us)")
        entry = (at_us, next(self._seq), fn)
        run = self._run
        if not run or at_us >= run[-1][0]:
            run.append(entry)
        else:
            heappush(self._heap, entry)

    def schedule_after(self, delay_us: int, fn: Callable[[], None]) -> None:
        self.schedule_at(self.now_us + delay_us, fn)

    def run(self) -> None:
        """Execute until no events remain."""
        run, heap = self._run, self._heap
        popleft, pop = run.popleft, heappop
        while run or heap:
            if not heap or (run and run[0] < heap[0]):
                at_us, _seq, fn = popleft()
            else:
                at_us, _seq, fn = pop(heap)
            self.now_us = at_us
            fn()

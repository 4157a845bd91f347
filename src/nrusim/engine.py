"""Deterministic discrete-event loop with a microsecond clock.

One loop per run, single-threaded.  Events pop in nondecreasing timestamp
order with ties broken by insertion sequence, and scheduling into the
past aborts the run rather than silently corrupting it.  Most events are
scheduled in time order (every ping and bulk tick is queued before the
loop runs), so the loop keeps them in a sorted run, a deque appended at
its tail, beside a heap for the few that arrive out of order.  Randomness
never lives here: actors derive named substreams from the scenario seed
so a stream's draws do not depend on unrelated activity.

``c_encoder`` is the one owner of the C JSON encoder: the runner's
``report.json`` is written through it, and so is every ``events.jsonl``
record that has no line of its own (``LINES``).  It keeps no
circular-reference markers and so holds no state between calls.  Each
caller has one fallback, ``json.dumps``, taken in its place when there is
no C accelerator; ``to_jsonl`` also takes it when a circular or too-deep
record raises ``RecursionError``, so it raises what ``json.dumps`` raises.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from collections import deque
from functools import partial
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


# One line per record shape that network.py logs from the event loop.  A
# line's parameters are its shape's keys in display order, which is sorted
# order, so its table key is its signature.  It writes what ``json.dumps(r,
# sort_keys=True)`` writes when every value has the type it expects, exactly
# ``str`` or exactly ``int``, and returns None otherwise.
_q = json.encoder.encode_basestring_ascii  # a str as json.dumps writes it, quotes included


def _ping_no_route(action, actor, seq, t_us):
    if str is type(action) is type(actor) and int is type(seq) is type(t_us):
        return f'{{"action": {_q(action)}, "actor": {_q(actor)}, "seq": {seq}, "t_us": {t_us}}}'
    return None


def _ping_tx(action, actor, dst, ident, seq, t_us):
    if (str is type(action) is type(actor) is type(dst)
            and int is type(ident) is type(seq) is type(t_us)):
        return (f'{{"action": {_q(action)}, "actor": {_q(actor)}, "dst": {_q(dst)}, '
                f'"ident": {ident}, "seq": {seq}, "t_us": {t_us}}}')
    return None


def _bulk(action, actor, direction, size, sub, t_us, window):  # bulk_tx, bulk_rx
    if (str is type(action) is type(actor) is type(direction)
            and int is type(size) is type(sub) is type(t_us) is type(window)):
        return (f'{{"action": {_q(action)}, "actor": {_q(actor)}, "direction": {_q(direction)}, '
                f'"size": {size}, "sub": {sub}, "t_us": {t_us}, "window": {window}}}')
    return None


def _radio_drop(action, actor, direction, size, t_us):
    if str is type(action) is type(actor) is type(direction) and int is type(size) is type(t_us):
        return (f'{{"action": {_q(action)}, "actor": {_q(actor)}, "direction": {_q(direction)}, '
                f'"size": {size}, "t_us": {t_us}}}')
    return None


def _gtpu(action, actor, size, t_us, teid):  # gtpu_ul, gtpu_dl
    if str is type(action) is type(actor) and int is type(size) is type(t_us) is type(teid):
        return (f'{{"action": {_q(action)}, "actor": {_q(actor)}, "size": {size}, '
                f'"t_us": {t_us}, "teid": {teid}}}')
    return None


def _echo(action, actor, seq, src, t_us):  # core_echo, ue_echo
    if str is type(action) is type(actor) is type(src) and int is type(seq) is type(t_us):
        return (f'{{"action": {_q(action)}, "actor": {_q(actor)}, "seq": {seq}, '
                f'"src": {_q(src)}, "t_us": {t_us}}}')
    return None


def _upf_drop(action, actor, dst, t_us):
    if str is type(action) is type(actor) is type(dst) and int is type(t_us):
        return f'{{"action": {_q(action)}, "actor": {_q(actor)}, "dst": {_q(dst)}, "t_us": {t_us}}}'
    return None


def _upf_tunnel(action, actor, dst, t_us, teid):
    if str is type(action) is type(actor) is type(dst) and int is type(t_us) is type(teid):
        return (f'{{"action": {_q(action)}, "actor": {_q(actor)}, "dst": {_q(dst)}, '
                f'"t_us": {t_us}, "teid": {teid}}}')
    return None


def _upf_egress(action, actor, dst, t_us, visible_src):
    if str is type(action) is type(actor) is type(dst) is type(visible_src) and int is type(t_us):
        return (f'{{"action": {_q(action)}, "actor": {_q(actor)}, "dst": {_q(dst)}, '
                f'"t_us": {t_us}, "visible_src": {_q(visible_src)}}}')
    return None


def _external_reply(action, actor, seq, t_us, to):
    if str is type(action) is type(actor) is type(to) and int is type(seq) is type(t_us):
        return (f'{{"action": {_q(action)}, "actor": {_q(actor)}, "seq": {seq}, '
                f'"t_us": {t_us}, "to": {_q(to)}}}')
    return None


def _rtt_sample(action, actor, ident, seq, session, t_us):
    if (str is type(action) is type(actor)
            and int is type(ident) is type(seq) is type(session) is type(t_us)):
        return (f'{{"action": {_q(action)}, "actor": {_q(actor)}, "ident": {ident}, '
                f'"seq": {seq}, "session": {session}, "t_us": {t_us}}}')
    return None


def _keys(line: Callable[..., str | None]) -> tuple[str, ...]:
    """A line's table key: its parameter names, in order."""
    code = line.__code__
    return code.co_varnames[:code.co_argcount]


LINES: dict[tuple[str, ...], Callable[..., str | None]] = {
    _keys(line): line
    for line in (_ping_no_route, _ping_tx, _bulk, _radio_drop, _gtpu, _echo, _upf_drop,
                 _upf_tunnel, _upf_egress, _external_reply, _rtt_sample)
}


def _jsonl(records: list, encode: Callable[[Any], str]) -> str:
    """One line per record, each from its ``LINES`` entry or else from ``encode``."""
    out: list[str] = []
    append, line_for = out.append, LINES.get
    for r in records:
        line = None
        if type(r) is dict:
            write = line_for(tuple(r))
            if write is not None:
                line = write(*r.values())
        append(encode(r) if line is None else line)
    append("")  # the join writes the last newline; no second copy of the text
    return "\n".join(out)


class EventLog:
    """Append-only record list; one JSON object per record when exported.

    ``append(record)`` keeps the dict its call site built, as given: one
    dict display that lists its literal keys in sorted order, so the
    encoder's key sort meets a sorted run.  The log does not copy it, so a
    caller builds a new dict per record and never reuses or changes one
    after logging it.  ``append`` is the record list's own bound method,
    which skips a Python-level call per record.

    ``to_jsonl`` is ``json.dumps(record, sort_keys=True) + "\\n"`` per
    record for any records, in key order or not.  A plain dict whose keys
    are, in order, those of an event-loop record shape (``LINES``) is
    written by that shape's f-string line, if every value is exactly the
    ``str`` or ``int`` the line expects.  Every other record (the attach
    records, a record in another key order, or one with a ``bool``, a
    float, a subclass or a container) goes to the shared marker-free C
    encoder, or to ``json.dumps`` without the C accelerator.  On
    ``RecursionError`` (a circular or too-deep record) the misses are
    encoded again with ``json.dumps``, so it raises exactly what
    ``json.dumps`` raises.
    """

    def __init__(self):
        self.records: list[dict[str, Any]] = []
        self.append: Callable[[dict[str, Any]], None] = self.records.append

    def __len__(self) -> int:
        return len(self.records)

    def to_jsonl(self) -> str:
        encode = c_encoder(", ")
        if encode is not None:
            try:
                return _jsonl(self.records, lambda r: "".join(encode(r, 0)))
            except RecursionError:
                pass
        return _jsonl(self.records, partial(json.dumps, sort_keys=True))


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

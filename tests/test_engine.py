import ast
import enum
import itertools
import json
import sys
from heapq import heappop, heappush
from pathlib import Path
from typing import Callable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nrusim import engine
from nrusim.engine import EventLog, EventLoop, derive_rng
from nrusim.errors import InvariantBreach


class HeapEventLoop:
    """The heap-only loop that the sorted run beside the heap replaced, copied unchanged."""

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


class TestEventLoop:
    def test_pops_in_timestamp_order(self):
        loop = EventLoop()
        seen = []
        loop.schedule_at(300, lambda: seen.append(300))
        loop.schedule_at(100, lambda: seen.append(100))
        loop.schedule_at(200, lambda: seen.append(200))
        loop.run()
        assert seen == [100, 200, 300]

    def test_ties_break_by_insertion_order(self):
        loop = EventLoop()
        seen = []
        for tag in ("a", "b", "c"):
            loop.schedule_at(50, lambda tag=tag: seen.append(tag))
        loop.run()
        assert seen == ["a", "b", "c"]

    def test_events_can_schedule_more_events(self):
        loop = EventLoop()
        seen = []

        def first():
            seen.append(loop.now_us)
            loop.schedule_after(10, lambda: seen.append(loop.now_us))

        loop.schedule_at(5, first)
        loop.run()
        assert seen == [5, 15]

    def test_scheduling_into_the_past_is_a_breach(self):
        loop = EventLoop()
        loop.schedule_at(100, lambda: loop.schedule_at(50, lambda: None))
        with pytest.raises(InvariantBreach):
            loop.run()

    def test_scheduling_into_the_past_is_a_breach_while_the_run_holds_later_events(self):
        loop = EventLoop()
        seen = []
        loop.schedule_at(100, lambda: loop.schedule_at(50, lambda: seen.append(50)))
        for at_us in (200, 300):
            loop.schedule_at(at_us, lambda at_us=at_us: seen.append(at_us))
        with pytest.raises(InvariantBreach, match="scheduled at 50 us, before now"):
            loop.run()
        assert seen == [] and len(loop._run) == 2


# An event is (how, offset, children): "at" schedules at now + offset with
# schedule_at, "after" with schedule_after; firing schedules the children.
# Small offsets give equal times, times earlier than the run's tail and
# events at now.
_EVENTS = st.recursive(
    st.just([]),
    lambda children: st.lists(
        st.tuples(st.sampled_from(["at", "after"]), st.integers(0, 12), children), max_size=4),
    max_leaves=40,
)


def _fired(loop, program) -> list[tuple[int, int]]:
    """Run a schedule program; each callback records (label, now_us) as it fires."""
    fired = []
    labels = itertools.count()

    def schedule(event):
        how, offset, children = event
        label = next(labels)

        def fn():
            fired.append((label, loop.now_us))
            for child in children:
                schedule(child)

        if how == "at":
            loop.schedule_at(loop.now_us + offset, fn)
        else:
            loop.schedule_after(offset, fn)

    for event in program:
        schedule(event)
    loop.run()
    return fired


class TestSortedRunBesideTheHeap:
    """The run-and-heap loop against the heap-only ``HeapEventLoop`` it replaced."""

    @given(program=_EVENTS)
    @settings(max_examples=300)
    def test_fires_what_the_heap_only_loop_fires(self, program):
        fired = _fired(EventLoop(), program)
        assert fired == _fired(HeapEventLoop(), program)
        assert [now for _label, now in fired] == sorted(now for _label, now in fired)

    def test_out_of_order_events_take_the_heap(self):
        loop = EventLoop()
        for at_us in (10, 30, 20, 30, 5, 40):
            loop.schedule_at(at_us, lambda: None)
        assert [entry[0] for entry in loop._run] == [10, 30, 30, 40]
        assert sorted(entry[0] for entry in loop._heap) == [5, 20]


class TestDerivedStreams:
    def test_stable_for_same_seed_and_label(self):
        a = derive_rng(7, "probe:rtt")
        b = derive_rng(7, "probe:rtt")
        assert [a.randint(0, 10**9) for _ in range(5)] == [b.randint(0, 10**9) for _ in range(5)]

    def test_label_separates_streams(self):
        a = derive_rng(7, "probe:rtt")
        b = derive_rng(7, "probe:uplink")
        assert [a.random() for _ in range(4)] != [b.random() for _ in range(4)]

    def test_seed_separates_streams(self):
        assert derive_rng(1, "x").random() != derive_rng(2, "x").random()


class TestEventLog:
    def test_jsonl_round_trips_sorted_keys(self):
        log = EventLog()
        log.append({"t_us": 10, "actor": "ue1", "action": "ping_tx", "seq": 0, "dst": "12.1.1.1"})
        text = log.to_jsonl()
        assert text == '{"action": "ping_tx", "actor": "ue1", "dst": "12.1.1.1", "seq": 0, "t_us": 10}\n'

    def test_empty_log_is_empty_text(self):
        assert EventLog().to_jsonl() == ""


def _dumps_per_record(records) -> str:
    """Reference: one ``json.dumps`` call, so one new encoder, per record."""
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)


def _log_of(records) -> EventLog:
    log = EventLog()
    log.records.extend(records)
    return log


_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([2**63, -(2**64) - 1, 10**40])
    | st.floats()  # -0.0, inf and nan included
    | st.just(-0.0)
    | st.text(max_size=8)  # non-ASCII and control characters included
    | st.text(alphabet=st.characters(max_codepoint=0x1F), max_size=4)
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=10,
)
_RECORDS = st.lists(st.dictionaries(st.text(max_size=6), _JSON_VALUES, max_size=5), max_size=6)


class TestSharedEncoder:
    """``to_jsonl`` shares one marker-free C encoder; ``json.dumps`` per record is the reference."""

    @given(records=_RECORDS)
    @settings(max_examples=100)
    def test_matches_json_dumps_per_record(self, records):
        assert _log_of(records).to_jsonl() == _dumps_per_record(records)

    @given(records=_RECORDS)
    @settings(max_examples=50)
    def test_python_encoder_writes_the_same_text(self, records):
        c_text = _log_of(records).to_jsonl()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(json.encoder, "c_make_encoder", None)
            assert engine.c_encoder(", ") is None
            assert _log_of(records).to_jsonl() == c_text

    @pytest.mark.parametrize("make_circular", [
        lambda r: r.__setitem__("self", r),
        lambda r: r.__setitem__("list", [1, r]),
    ])
    def test_circular_record_raises(self, make_circular):
        record = {"t_us": 1, "actor": "a", "action": "x"}
        make_circular(record)
        with pytest.raises(ValueError, match="Circular reference"):
            _log_of([record]).to_jsonl()

    def test_failed_encode_leaves_no_markers_behind(self):
        # The C encoder keeps its circular-reference markers when an encode
        # raises; a later call must not take the same record for a cycle.
        record = {"t_us": 1, "actor": "a", "action": "x", "bad": [object()]}
        log = _log_of([record])
        with pytest.raises(TypeError):
            log.to_jsonl()
        record["bad"].pop()
        assert log.to_jsonl() == _dumps_per_record([record])

    def test_record_deeper_than_the_recursion_limit_raises_recursion_error(self):
        record: dict = {"t_us": 1, "actor": "a", "action": "x"}
        for _ in range(sys.getrecursionlimit() * 100):  # past the C encoder's own limit too
            record = {"child": record}
        with pytest.raises(RecursionError):
            json.dumps(record, sort_keys=True)
        with pytest.raises(RecursionError):
            _log_of([record]).to_jsonl()


class _Level(enum.IntEnum):
    HIGH = 7


class _Str(str):
    """Writes as its text in JSON, and as something else through ``str`` or ``format``."""

    def __str__(self):
        return "not the text"

    def __format__(self, spec):
        return "not the text"


class _Int(int):
    """Writes as its digits in JSON, and as something else through ``format``."""

    def __format__(self, spec):
        return "not the digits"


# The type each key of a loop-time record holds (network.py); every other value misses its line.
_STR_KEYS = {"action", "actor", "direction", "dst", "src", "to", "visible_src"}
_INT_KEYS = {"ident", "seq", "session", "size", "sub", "t_us", "teid", "window"}
_EXACT = {**dict.fromkeys(_STR_KEYS, st.text(max_size=8)
                          | st.text(alphabet=st.characters(max_codepoint=0x1F), max_size=4)),
          **dict.fromkeys(_INT_KEYS, st.integers()
                          | st.sampled_from([2**63, -(2**64) - 1, 10**40, 0, -1]))}
_OTHER = (_JSON_VALUES | st.sampled_from([True, False, _Level.HIGH, _Int(3), _Str("ue1"),
                                          float("nan"), float("inf"), -0.0, 1.0])
          | st.text(max_size=4).map(_Str) | st.integers().map(_Int))


@st.composite
def _shaped_record(draw, keys):
    """A record with ``keys`` in display order or shuffled; at most one value (``odd``'s) may
    miss its line's type, so each check of a line's guard decides alone."""
    order = draw(st.just(keys) | st.permutations(keys))
    odd = draw(st.sampled_from((None, *keys)))
    return {k: draw(_OTHER if k == odd else _EXACT[k]) for k in order}


class TestLineTable:
    """``to_jsonl`` writes an event-loop record shape through its ``LINES`` entry, byte for byte."""

    @pytest.mark.parametrize("keys", sorted(engine.LINES), ids="-".join)
    @given(data=st.data())
    @settings(max_examples=100)
    def test_matches_json_dumps_per_record(self, keys, data):
        records = data.draw(st.lists(_shaped_record(keys), min_size=1, max_size=4))
        expected = _dumps_per_record(records)
        assert _log_of(records).to_jsonl() == expected
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(json.encoder, "c_make_encoder", None)
            assert _log_of(records).to_jsonl() == expected
        for r in records:
            line = engine.LINES[keys](*r.values()) if tuple(r) == keys else None
            exact = all(type(v) is (str if k in _STR_KEYS else int) for k, v in r.items())
            if tuple(r) == keys and exact:
                assert line == json.dumps(r, sort_keys=True)  # the record took its line
            else:
                assert line is None

    @pytest.mark.parametrize("keys", sorted(engine.LINES), ids="-".join)
    def test_one_value_of_another_type_takes_the_encoder(self, keys):
        exact = {k: "ue1" if k in _STR_KEYS else 7 for k in keys}
        assert engine.LINES[keys](*exact.values()) == json.dumps(exact, sort_keys=True)
        for key in keys:
            for odd in (True, _Level.HIGH, _Int(7), _Str("ue1"), 7.0, None, [7], "7", 7):
                record = {**exact, key: odd}
                if type(odd) is type(exact[key]):
                    continue
                assert engine.LINES[keys](*record.values()) is None, (key, odd)
                assert _log_of([record]).to_jsonl() == _dumps_per_record([record])

    @pytest.mark.parametrize("keys", sorted(engine.LINES), ids="-".join)
    def test_an_int_too_long_for_str_raises_what_json_dumps_raises(self, keys):
        record = {k: "x" if k in _STR_KEYS else 10**5000 for k in keys}
        with pytest.raises(ValueError) as dumps:
            json.dumps(record, sort_keys=True)
        with pytest.raises(ValueError) as lines:
            _log_of([record]).to_jsonl()
        assert str(lines.value) == str(dumps.value)


def test_only_the_engine_reaches_the_c_encoder():
    """``c_encoder`` is the one owner of the private ``json.encoder.c_make_encoder``."""
    modules = sorted(Path(engine.__file__).parent.glob("*.py"))
    reaching = [p.name for p in modules if "c_make_encoder" in p.read_text(encoding="utf-8")]
    assert reaching == ["engine.py"]


def _is_log_append(node: ast.AST) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "append"
            and ast.unparse(node.value).split(".")[-1] == "log")


def _log_append_displays(tree: ast.AST):
    """Every dict display passed to ``<...>.log.append`` or ``log.append``, or bound to it
    by ``partial`` for a later event to append."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if _is_log_append(node.func):
            args = node.args
        elif (isinstance(node.func, ast.Name) and node.func.id == "partial" and node.args
              and _is_log_append(node.args[0])):
            args = node.args[1:]
        else:
            continue
        assert len(args) == 1 and isinstance(args[0], ast.Dict), ast.unparse(node)
        yield args[0]


def test_every_logged_display_lists_literal_keys_in_sorted_order():
    """``to_jsonl``'s key sort then meets a sorted run (``network.py``'s record paragraph)."""
    displays = 0
    for path in sorted(Path(engine.__file__).parent.glob("*.py")):
        for display in _log_append_displays(ast.parse(path.read_text(encoding="utf-8"))):
            where = f"{path.name}:{display.lineno}"
            assert all(isinstance(k, ast.Constant) and type(k.value) is str
                       for k in display.keys), where
            keys = [k.value for k in display.keys]
            assert keys == sorted(keys) and len(set(keys)) == len(keys), where
            displays += 1
    assert displays == 19


def test_every_loop_time_display_has_its_line():
    """Every display outside ``attach_all`` (one the event loop logs) has a ``LINES`` entry for
    its keys, and every entry is such a display's keys: no event-loop record takes the C
    encoder by omission, and no line is left that no display uses."""
    loop_time, attach = set(), 0
    for path in sorted(Path(engine.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function in ast.walk(tree):
            if not isinstance(function, ast.FunctionDef):
                continue
            for display in _log_append_displays(function):
                if function.name == "attach_all":
                    attach += 1
                else:
                    loop_time.add(tuple(k.value for k in display.keys))
    assert attach == 6
    assert set(engine.LINES) == loop_time
    assert len(loop_time) == 11

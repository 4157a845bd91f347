"""Outside-in span tracer for the traced benchmark run.

The tracer replaces public functions and methods at the names the
program looks them up by with wrappers that record a span (name, start,
end, parent) in memory.  Nothing in ``nrusim`` is edited; ``restore``
puts every original back.  A layer's self time is the duration of its
spans minus the part covered by their child spans, so the self times of
all spans in a pass add up to the pass's root span exactly.
"""

from __future__ import annotations

import importlib
from collections import Counter
from time import perf_counter
from typing import Callable

ROOT_SPAN = "pass"  # the benchmark's own span around one pass; its self time is unattributed

# (module, attribute path, span name).  Several lookups may share a span
# name; a call made while a span of the same name is open folds into it.
SPANS = (
    ("nrusim.scenario", "load_scenario", "scenario.load"),
    ("nrusim.scenario", "scenario_from_dict", "scenario.load"),
    ("nrusim.access", "ss_scan_candidates", "spectrum.scan_candidates"),
    ("nrusim.access", "attach", "access.attach"),
    ("nrusim.access", "lbt_gate", "access.lbt_gate"),
    ("nrusim.access", "next_transmit_time", "access.next_transmit"),
    ("nrusim.corenet", "CoreNetwork.establish_pdu_session", "corenet.establish"),
    ("nrusim.corenet", "CoreNetwork.active_sessions", "corenet.active_sessions"),
    ("nrusim.network", "SimNetwork.__init__", "network.init"),
    ("nrusim.network", "upf_forward", "userplane.upf_forward"),
    ("nrusim.network", "RouteTable", "userplane.route_table"),
    ("nrusim.userplane", "RouteTable.in_pool", "userplane.route_table"),
    ("nrusim.network", "encode_ip", "userplane.encode_ip"),
    ("nrusim.network", "encode_gtpu", "userplane.encode_gtpu"),
    ("nrusim.metrics", "decode_ip", "userplane.decode_ip"),
    ("nrusim.metrics", "decode_gtpu", "userplane.decode_gtpu"),
    ("nrusim.runner", "passive_monitor", "metrics.passive_monitor"),
    ("nrusim.metrics", "passive_monitor", "metrics.passive_monitor"),
    ("nrusim.runner", "write_pcap", "pcapio.write"),
    ("nrusim.pcapio", "read_pcap", "pcapio.read"),
    ("nrusim.engine", "EventLoop.run", "engine.loop"),
    ("nrusim.engine", "EventLog.to_jsonl", "runner.events_jsonl"),
    ("nrusim.runner", "RunResult.report_json", "runner.report_json"),
    ("nrusim.runner", "run_scenario", "runner.run"),
    ("nrusim.runner", "write_outputs", "runner.write"),
)
# Every callback the event loop dispatches runs under this span, so the
# loop's own self time is the heap bookkeeping alone and the hop chain's
# code is attributed to the network layer.
CALLBACK_SPAN = ("nrusim.engine", "EventLoop.schedule_at", "network.hops")


def _count_busy(counts: Counter, args, result) -> None:
    counts["access.lbt_busy"] += result.busy_observations


def _count_sessions(counts: Counter, args, result) -> None:
    counts["corenet.sessions_materialised"] += len(result)


def _count_frames(counts: Counter, args, result) -> None:
    counts["metrics.monitor_frames"] += len(args[0])  # every caller passes a list


COUNTERS = {
    "access.lbt_gate": _count_busy,
    "corenet.active_sessions": _count_sessions,
    "metrics.passive_monitor": _count_frames,
}


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][2] = perf_counter()

    def traced(self, fn: Callable, name: str) -> Callable:
        spans, stack = self.spans, self._stack
        count = COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if count is not None:
                count(self.counts, args, result)
            return result

        return wrapper

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    # -- installing ----------------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        for module, path, name in SPANS:
            owner, attr = _resolve(module, path)
            self._patch(owner, attr, self.traced(getattr(owner, attr), name))
        module, path, name = CALLBACK_SPAN
        owner, attr = _resolve(module, path)
        schedule = getattr(owner, attr)
        traced = self.traced

        def schedule_traced(loop, at_us, fn):
            return schedule(loop, at_us, traced(fn, name))

        self._patch(owner, attr, schedule_traced)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def self_times(spans) -> tuple[dict[str, float], Counter]:
    """Per-name self time and call count of a closed span list."""
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals: dict[str, float] = {}
    calls: Counter = Counter()
    for (name, start, end, _parent), child_time in zip(spans, covered):
        totals[name] = totals.get(name, 0.0) + (end - start) - child_time
        calls[name] += 1
    return totals, calls


def _ratio(numerator: float, base: float) -> float:
    return numerator / base if base else 0.0


# Per-layer metrics of one traced pass: (name, unit, function of (self, calls, counts)).
PER_LAYER = (
    ("scenario.load_s", "s", lambda s, c, n: s.get("scenario.load", 0.0)),
    ("scenario.load_calls", "count", lambda s, c, n: c["scenario.load"]),
    ("spectrum.scan_candidates_s", "s", lambda s, c, n: s.get("spectrum.scan_candidates", 0.0)),
    ("spectrum.scan_candidates_calls", "count", lambda s, c, n: c["spectrum.scan_candidates"]),
    ("access.attach_s", "s", lambda s, c, n: s.get("access.attach", 0.0)),
    ("corenet.establish_s", "s", lambda s, c, n: s.get("corenet.establish", 0.0)),
    ("network.init_s", "s", lambda s, c, n: s.get("network.init", 0.0)),
    ("access.lbt_gate_s", "s", lambda s, c, n: s.get("access.lbt_gate", 0.0)),
    ("access.lbt_gate_calls", "count", lambda s, c, n: c["access.lbt_gate"]),
    ("access.lbt_busy_per_gate", "ratio",
     lambda s, c, n: _ratio(n["access.lbt_busy"], c["access.lbt_gate"])),
    ("access.next_transmit_s", "s", lambda s, c, n: s.get("access.next_transmit", 0.0)),
    ("corenet.active_sessions_s", "s", lambda s, c, n: s.get("corenet.active_sessions", 0.0)),
    ("corenet.active_sessions_calls", "count", lambda s, c, n: c["corenet.active_sessions"]),
    ("corenet.sessions_per_lookup", "ratio",
     lambda s, c, n: _ratio(n["corenet.sessions_materialised"], c["userplane.upf_forward"])),
    ("userplane.upf_forward_s", "s", lambda s, c, n: s.get("userplane.upf_forward", 0.0)),
    ("userplane.upf_forward_calls", "count", lambda s, c, n: c["userplane.upf_forward"]),
    ("userplane.route_table_s", "s", lambda s, c, n: s.get("userplane.route_table", 0.0)),
    ("userplane.encode_ip_s", "s", lambda s, c, n: s.get("userplane.encode_ip", 0.0)),
    ("userplane.encode_ip_calls", "count", lambda s, c, n: c["userplane.encode_ip"]),
    ("userplane.decode_ip_s", "s", lambda s, c, n: s.get("userplane.decode_ip", 0.0)),
    ("userplane.encode_gtpu_s", "s", lambda s, c, n: s.get("userplane.encode_gtpu", 0.0)),
    ("userplane.decode_gtpu_s", "s", lambda s, c, n: s.get("userplane.decode_gtpu", 0.0)),
    ("metrics.passive_monitor_s", "s", lambda s, c, n: s.get("metrics.passive_monitor", 0.0)),
    ("metrics.monitor_frames", "count", lambda s, c, n: n["metrics.monitor_frames"]),
    ("pcapio.write_s", "s", lambda s, c, n: s.get("pcapio.write", 0.0)),
    ("pcapio.read_s", "s", lambda s, c, n: s.get("pcapio.read", 0.0)),
    ("engine.loop_self_s", "s", lambda s, c, n: s.get("engine.loop", 0.0)),
    ("engine.events", "count", lambda s, c, n: n["engine.events"]),
    ("network.hops_s", "s", lambda s, c, n: s.get("network.hops", 0.0)),
    ("network.hops_calls", "count", lambda s, c, n: c["network.hops"]),
    ("runner.run_s", "s", lambda s, c, n: s.get("runner.run", 0.0)),
    ("runner.write_s", "s", lambda s, c, n: s.get("runner.write", 0.0)),
    ("runner.events_jsonl_s", "s", lambda s, c, n: s.get("runner.events_jsonl", 0.0)),
    ("runner.report_json_s", "s", lambda s, c, n: s.get("runner.report_json", 0.0)),
    ("trace.unattributed_s", "s", lambda s, c, n: s.get(ROOT_SPAN, 0.0)),
)


def layer_metrics(spans, counts: Counter) -> dict[str, float]:
    """Per-layer values of one pass whose spans all sit under ROOT_SPAN spans."""
    selfs, calls = self_times(spans)
    return {name: fn(selfs, calls, counts) for name, _unit, fn in PER_LAYER}

"""Self-tests of the benchmark: generators, output checks, tracer arithmetic.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import run  # puts the checkout's src/ on sys.path
import generators
import tracer
import workloads
from nrusim import access, network
from nrusim.scenario import scenario_from_dict

BENCHMARK = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("generate", [generators.ping_fleet, generators.contended_bulk])
def test_generator_is_a_function_of_the_seed(generate):
    assert generate(5) == generate(5)
    assert generate(5) != generate(6)
    scenario_from_dict(generate(5))  # every generated scenario validates


def test_generated_scenarios_validate_across_seeds():
    for seed in range(20):
        scenario_from_dict(generators.ping_fleet(seed, ues=40, pings_per_ue=1))
        scenario_from_dict(generators.contended_bulk(seed, bursts=200, duration_s=2))


def _bundled_runner(tmp_path, monkeypatch) -> run.Runner:
    monkeypatch.setattr(run, "OUT", tmp_path)
    runner = run.Runner(workloads.BundledSuite(seed=0))
    runner.jobs = [job for job in runner.jobs if job.name == "north_south"]
    return runner


def test_clean_pass_counts_no_failure(tmp_path, monkeypatch):
    runner = _bundled_runner(tmp_path, monkeypatch)
    assert runner.one_pass()[2]
    assert (runner.attempted, runner.failed) == (1, 0)


@pytest.mark.parametrize("target", ["report.json", "events.jsonl"])
def test_one_byte_corruption_is_a_failed_run(tmp_path, monkeypatch, target):
    runner = _bundled_runner(tmp_path, monkeypatch)
    execute = workloads.execute

    def corrupting(job, out_dir, monitor):
        output = execute(job, out_dir, monitor)
        path = output.out / target
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x01
        path.write_bytes(bytes(data))
        return output

    monkeypatch.setattr(workloads, "execute", corrupting)
    assert not runner.one_pass()[2]
    assert (runner.attempted, runner.failed) == (1, 1)


def test_self_times_on_a_hand_built_tree():
    spans = [
        ["pass", 0.0, 10.0, -1],
        ["a", 1.0, 6.0, 0],
        ["b", 2.0, 3.0, 1],
        ["b", 4.0, 5.0, 1],
        ["a", 7.0, 9.0, 0],
        ["pass", 20.0, 21.0, -1],
    ]
    selfs, calls = tracer.self_times(spans)
    assert selfs == {"pass": 4.0, "a": 5.0, "b": 2.0}
    assert calls == {"pass": 2, "a": 2, "b": 2}
    assert sum(selfs.values()) == 11.0  # the two root spans


def test_traced_sum_is_checked_against_the_independent_wall():
    recorder = tracer.Tracer()
    recorder.spans.extend([["pass", 0.0, 1.0, -1], ["access.lbt_gate", 0.1, 0.3, 0]])
    layers = run.traced_layers(recorder, 1.0)
    assert layers["access.lbt_gate_s"] == pytest.approx(0.2)
    assert layers["trace.unattributed_s"] == pytest.approx(0.8)
    with pytest.raises(RuntimeError, match="add up"):
        run.traced_layers(recorder, 1.5)  # time outside the root span
    recorder.spans.append(["unreported", 0.4, 0.9, 0])
    with pytest.raises(RuntimeError, match="add up"):
        run.traced_layers(recorder, 1.0)  # time in a span no metric reports


def test_same_name_calls_fold_into_the_open_span():
    recorder = tracer.Tracer()

    def countdown(n):
        return n if n == 0 else traced(n - 1)

    traced = recorder.traced(countdown, "x")
    root = recorder.open("pass")
    traced(3)
    recorder.close(root)
    assert [span[0] for span in recorder.spans] == ["pass", "x"]


def test_install_restores_every_original():
    before = {(m, p): getattr(*tracer._resolve(m, p)) for m, p, _ in tracer.SPANS}
    recorder = tracer.Tracer()
    recorder.install()
    assert network.encode_ip is not before[("nrusim.network", "encode_ip")]
    recorder.restore()
    after = {(m, p): getattr(*tracer._resolve(m, p)) for m, p, _ in tracer.SPANS}
    assert after == before


def _small_contended(seed: int) -> dict:
    return generators.contended_bulk(seed, bursts=3000, duration_s=4)


class SmallContended(workloads.ContendedBulk):
    generator = staticmethod(_small_contended)


def test_traced_passes_add_up_and_count_lbt(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    workload = SmallContended(seed=3)
    workload.reference = None  # the stored references are for the full-size scenario
    runner = run.Runner(workload)
    runner.one_pass()
    recorder = tracer.Tracer()
    recorder.install()
    try:
        samples = runner.timed(0.0, recorder)  # raises unless self times add up to the wall
    finally:
        recorder.restore()
    assert len(samples) == run.MIN_PASSES and runner.failed == 0
    wall, events, layers, _reference = samples[0]
    assert wall > 0
    assert layers["access.lbt_gate_calls"] > 0
    assert layers["access.lbt_busy_per_gate"] > 0
    assert layers["engine.events"] == events
    assert samples[1].layers["access.lbt_gate_calls"] == layers["access.lbt_gate_calls"]


def test_first_sensing_busy_is_a_lower_bound_on_lbt_busy(tmp_path, monkeypatch):
    raw = generators.contended_bulk(4, bursts=3000, duration_s=4)
    busy = []
    original = access.lbt_gate

    def counting(*args, **kwargs):
        result = original(*args, **kwargs)
        busy.append(result.busy_observations)
        return result

    monkeypatch.setattr(access, "lbt_gate", counting)
    output = workloads.execute(workloads.Job(name="c", raw=raw), tmp_path, monitor=False)
    found = workloads.first_sensing_busy(output.scenario, output.log_records)
    assert 0 < found <= sum(1 for b in busy if b)


def test_benchmark_json_lists_what_run_prints():
    per_layer = [m["name"] for m in BENCHMARK["per_layer"]]
    assert per_layer == [name for name, _u, _f in tracer.PER_LAYER] + [
        "trace.wall_s", "trace.overhead_frac"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == [
        "setup_s", "wall_s", "us_per_event", "peak_rss_mb"]

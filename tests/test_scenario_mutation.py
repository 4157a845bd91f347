"""A scenario that loads, runs: the property over mutated scenarios.

Each mutant is a bundled scenario or the unit ``BASE`` with one change: a
key dropped or misspelt, a value swapped for another kind or for 0, -1,
2**63, NaN or ±inf, a node name or traffic label duplicated, two addresses
made to collide, or a node key moved onto a node of the other role.
``nrusim validate`` either rejects it with exit 1 and one ``error:`` line that
names the mutated key or its section, or it accepts it, and then the mutant
runs twice, with no exception, to the same bytes.  A moved key is always
rejected.

Counts and durations are capped here, in the bases and in the values drawn
for those keys, so every run takes milliseconds; the loader caps nothing.
"""

import contextlib
import copy
import io
import tempfile
from pathlib import Path

import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nrusim.cli import main
from nrusim.scenario import BUNDLED, bundled_scenario_path
from tests.test_scenario import BASE, _occupancy

# Keys whose size sets how long a run takes, with the largest value drawn for each.
CAPS = {"count": 3, "interval_ms": 100, "duration_s": 1}
VALUES = (0, -1, 2**63, float("nan"), float("inf"), float("-inf"), "x", True, None, [], {})
ROLE_KEYS = {"gnb": ("n3_address", "on_air"), "ue": ("imsi", "gnb", "medium", "unprovisioned")}


def _capped(raw):
    """``raw`` with every count and duration cut to its cap."""
    if isinstance(raw, dict):
        return {k: min(v, CAPS[k]) if k in CAPS and type(v) is int else _capped(v)
                for k, v in raw.items()}
    if isinstance(raw, list):
        return [_capped(item) for item in raw]
    return raw


BASES = {"BASE": BASE, "BASE with a burst": _occupancy()}
BASES.update((name, yaml.safe_load(bundled_scenario_path(name).read_text(encoding="utf-8")))
             for name in BUNDLED)
BASES = {name: _capped(raw) for name, raw in BASES.items()}


def _paths(node, prefix=()):
    """The path, as a tuple of keys and indices, to every value under ``node``."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _strings(node):
    """Every string in ``node``: a name the mutation took away may be the one an error names."""
    if isinstance(node, str):
        yield node
    elif isinstance(node, (dict, list)):
        for item in [*node, *node.values()] if isinstance(node, dict) else node:
            yield from _strings(item)


def _sections(raw, path):
    """What an error about ``path`` may name: its keys, its list items, the node it is in."""
    names = {str(key) for key in path if isinstance(key, str)}
    node = raw
    for key, index in zip(path, path[1:]):
        node = node[key]
        if isinstance(index, int):
            names.add(f"{key}[{index}]")
            if key == "nodes" and isinstance(node[index], dict) and "name" in node[index]:
                names.add(str(node[index]["name"]))
    return names


@st.composite
def mutants(draw):
    """(scenario mapping, the texts a rejection may name, what was done, must it be rejected)."""
    base = draw(st.sampled_from(sorted(BASES)))
    raw = copy.deepcopy(BASES[base])
    op = draw(st.sampled_from(["drop", "misspell", "value", "duplicate", "collide", "move"]))
    if op in ("drop", "misspell", "value"):
        paths = [p for p in _paths(raw) if op == "value" or isinstance(p[-1], str)]
        path = draw(st.sampled_from(paths))
        parent = raw
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        needles = _sections(raw, path) | set(_strings(parent[key]))
        if op == "drop":
            del parent[key]
        elif op == "misspell":
            wrong = draw(st.sampled_from([key[:-1], key + "s", key.upper(),
                                          key.replace("_", "")]))
            if not wrong or wrong in parent:
                wrong = key + "_x"
            parent[wrong] = parent.pop(key)
            needles.add(wrong)
        else:
            choices = [v for v in VALUES if not (key in CAPS and v == 2**63)]
            parent[key] = draw(st.sampled_from(choices))
        return raw, needles, f"{base}: {op} {'.'.join(map(str, path))}", False
    if op == "duplicate":
        group, field = draw(st.sampled_from([("nodes", "name"), ("traffic", "label")]))
        items = raw[group]  # every base has nodes and traffic
        source = draw(st.integers(0, len(items) - 1))
        items.append(copy.deepcopy(items[source]))
        if group == "traffic" and field not in items[source]:
            items[source][field] = items[-1][field] = f"dup-{source}"
        what = f"{base}: duplicate {group}[{source}]"
        return raw, {group, field, items[source][field]}, what, False
    if op == "move":  # every base has a gNB and a UE, and UE keys to move
        keys = [(node, key) for node in raw["nodes"] for key in ROLE_KEYS[node["role"]]
                if key in node]
        source, key = draw(st.sampled_from(keys))
        target = draw(st.sampled_from([n for n in raw["nodes"] if n["role"] != source["role"]]))
        target[key] = source.pop(key)
        return raw, {key, target["name"]}, f"{base}: move {key} to {target['name']}", True
    # collide: put one address where another already is.
    core = raw.setdefault("core", {})
    pool_host = core.get("ue_pool", "12.1.1.0/24").split("/")[0].rsplit(".", 1)[0] + ".2"
    upf = core.get("upf_address", "192.168.70.134")
    gnbs = [n for n in raw["nodes"] if n.get("role") == "gnb"]
    target = draw(st.sampled_from(["external", "n3", "n3_omitted"]))
    if target == "external":
        address = draw(st.sampled_from([pool_host, upf]))
        raw.setdefault("external_host", {})["address"] = address
        what = f"{base}: external host on {address}"
        return raw, {"external_host", "address", address}, what, False
    gnb = draw(st.sampled_from(gnbs))
    if target == "n3_omitted":
        for other in gnbs:
            other.pop("n3_address", None)
        return raw, {"n3_address"}, f"{base}: no gNB has an n3_address", False
    others = [n["n3_address"] for n in gnbs if n is not gnb and "n3_address" in n]
    address = draw(st.sampled_from([upf, pool_host] + others))
    gnb["n3_address"] = address
    what = f"{base}: {gnb['name']} N3 on {address}"
    return raw, {"n3_address", gnb["name"], address}, what, False


def _cli(*argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, err.getvalue()


@given(mutants())
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_mutant_is_rejected_by_name_or_runs_twice_to_the_same_bytes(mutant):
    raw, needles, what, rejected = mutant
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutant.yaml"
        path.write_text(yaml.safe_dump(raw), encoding="utf-8")
        code, err = _cli("validate", str(path))
        assert code != 0 or not rejected, what
        if code != 0:
            assert code == 1, (what, err)
            assert err.startswith("error:") and err.count("\n") == 1, (what, err)
            assert any(needle in err for needle in needles), (what, err, needles)
            return
        outputs = []
        for out in ("a", "b"):
            code, err = _cli("run", str(path), "--out", str(Path(tmp) / out), "--pcap")
            assert code == 0, (what, err)
            outputs.append({f.name: f.read_bytes() for f in sorted((Path(tmp) / out).iterdir())})
        assert outputs[0] == outputs[1], what
        assert "report.json" in outputs[0] and "events.jsonl" in outputs[0], what

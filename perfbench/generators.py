"""Seeded scenario generators for the generated benchmark workloads.

Each generator returns a plain scenario mapping, the same shape a YAML
scenario file parses to, so the program sees it only through
``scenario_from_dict``.  The same (seed, size) always gives the same
mapping.  This module imports nothing from ``nrusim``, so a fresh
interpreter can build a scenario before the timed import starts.
"""

from __future__ import annotations

from random import Random

CELL = {
    "band": "n46",
    "arfcn": 750000,
    "bandwidth_mhz": 40,
    "scs_khz": 30,
    "ssb_gscn": 9062,
    "indoor": True,
    "tx_power_dbm": -31.614,
    "attenuation_factor": 12,
    "tdd": {"period_slots": 10, "dl_slots": 7, "ul_slots": 2},
    "lbt": {"cca_threshold_dbm": -72.0, "cca_duration_us": 25, "cw_min": 15, "cw_max": 1023},
}
CORE = {
    "subnet": "192.168.70.128/26",
    "amf_address": "192.168.70.132",
    "upf_address": "192.168.70.134",
}
UE_HOSTS = ("nuc-i5", "precision-5820")
UE_SDRS = ("b200", "b210")
GNB_SDRS = ("n300", "x300", "b210")


def _imsi(index: int) -> str:
    return f"00101{index:010d}"


def _medium(rng: Random) -> dict:
    if rng.random() < 0.7:
        return {"kind": "over_air", "distance_m": round(rng.uniform(1.0, 8.0), 1)}
    return {"kind": "cable", "length_cm": rng.choice([50, 100, 200]),
            "attenuator_db": rng.choice([0, 20, 30])}


def _cell(rng: Random) -> dict:
    cell = dict(CELL)
    cell["ssb_gscn"] = rng.randint(9000, 9100)
    return cell


def ping_fleet(seed: int, ues: int = 200, pings_per_ue: int = 5) -> dict:
    """About ``ues`` UEs on two gNBs, one ping train each, mixed destinations.

    Every 25th UE is left unprovisioned (registration reject) and every
    25th, offset by 12, hangs off an off-air gNB (full sync-raster sweep,
    no cell found); their trains exercise ``ping_no_route``.  The rest
    ping another UE (east-west tunnel), the external host (N6 egress)
    or the core gateway in fixed shares (45/40/15 %), so the work per
    pass barely depends on the seed.  Taps watch one N3 leg and N6.
    """
    rng = Random(f"ping_fleet:{seed}")
    nodes = [
        {"name": "gnb1", "role": "gnb", "host": "precision-5820-core",
         "sdr": rng.choice(GNB_SDRS), "n3_address": "192.168.70.129"},
        {"name": "gnb2", "role": "gnb", "host": "precision-5820",
         "sdr": rng.choice(GNB_SDRS), "n3_address": "192.168.70.130"},
        {"name": "gnb_off", "role": "gnb", "host": "precision-5820",
         "sdr": "b210", "n3_address": "192.168.70.131", "on_air": False},
    ]
    subscribers = []
    names = []
    reachable = []
    for i in range(ues):
        name = f"ue{i:04d}"
        names.append(name)
        node = {"name": name, "role": "ue", "host": rng.choice(UE_HOSTS),
                "sdr": rng.choice(UE_SDRS), "imsi": _imsi(i + 1),
                "gnb": "gnb1" if i % 2 == 0 else "gnb2", "medium": _medium(rng)}
        if i % 25 == 7:
            node["unprovisioned"] = True
        else:
            subscribers.append({"imsi": node["imsi"]})
            if i % 25 == 19:
                node["gnb"] = "gnb_off"
            else:
                reachable.append(name)
        nodes.append(node)
    rng.shuffle(nodes)  # attach order decides who gets which pool address

    east_west = round(0.45 * ues)
    external = round(0.40 * ues)
    gateway = ues - east_west - external
    kinds = ["peer"] * east_west + ["external"] * external + ["core-gateway"] * gateway
    rng.shuffle(kinds)
    traffic = []
    for name, kind in zip(names, kinds):
        dst = kind
        if kind == "peer":
            dst = rng.choice([peer for peer in reachable if peer != name] or ["external"])
        traffic.append({"probe": "ping", "label": f"ping-{name}", "src": name, "dst": dst,
                        "count": pings_per_ue, "interval_ms": rng.choice([20, 50, 100])})
    return {
        "schema": 1,
        "name": f"ping_fleet_s{seed}",
        "seed": rng.randrange(1 << 31),
        "duration_s": 10,
        "jurisdiction": "AU",
        "cell": _cell(rng),
        "core": dict(CORE, ue_pool="10.45.0.0/16", subscribers=subscribers),
        "nodes": nodes,
        "external_host": {"address": "142.250.204.4",
                          "one_way_delay_us": rng.choice([3000, 5000, 8000])},
        "taps": ["n3:gnb1", "n6"],
        "traffic": traffic,
    }


def contended_bulk(seed: int, bursts: int = 6000, duration_s: int = 30, pings: int = 20) -> dict:
    """One UE with saturating UL then DL load and a ping train, on a busy channel.

    ``bursts`` foreign transmissions are spread over the whole traffic
    span; their powers straddle the CCA threshold, so some block the LBT
    gate and some do not.  The simulator's own seed (LBT backoff draws) is
    fixed: with it drawn per seed, the blocker scan work of a pass varied
    by about 4 % (interquartile range over median, 16 seeds), against about
    1 % with it fixed, and that variation went straight into the spread
    of the benchmark's time metrics.
    """
    rng = Random(f"contended_bulk:{seed}")
    ping_interval_ms = 100
    # Attach takes well under 1 s; each throughput probe holds the channel
    # for duration_s + 1 s and the ping train for pings * interval + 1 s.
    span_us = (1 + 2 * (duration_s + 1) + pings * ping_interval_ms // 1000 + 1) * 1_000_000
    threshold = CELL["lbt"]["cca_threshold_dbm"]
    occupancy = []
    for _ in range(bursts):
        start = rng.randrange(span_us)
        occupancy.append({"start_us": start, "end_us": start + rng.randint(100, 2000),
                          "power_dbm": round(threshold + rng.uniform(-12.0, 12.0), 1)})
    ue = {"name": "ue1", "role": "ue", "host": rng.choice(UE_HOSTS), "sdr": rng.choice(UE_SDRS),
          "imsi": _imsi(1), "gnb": "gnb1", "medium": _medium(rng)}
    return {
        "schema": 1,
        "name": f"contended_bulk_s{seed}",
        "seed": 1,
        "duration_s": duration_s,
        "jurisdiction": "AU",
        "cell": _cell(rng),
        "core": dict(CORE, ue_pool="12.1.1.0/24", subscribers=[{"imsi": ue["imsi"]}]),
        "nodes": [{"name": "gnb1", "role": "gnb", "host": "precision-5820-core",
                   "sdr": rng.choice(GNB_SDRS), "n3_address": "192.168.70.129"}, ue],
        "occupancy": occupancy,
        "taps": ["n3:gnb1"],
        "traffic": [
            {"probe": "throughput", "label": "uplink", "ue": "ue1", "direction": "UL",
             "duration_s": duration_s},
            {"probe": "throughput", "label": "downlink", "ue": "ue1", "direction": "DL",
             "duration_s": duration_s},
            {"probe": "ping", "label": "rtt", "src": "ue1", "dst": "core-gateway",
             "count": pings, "interval_ms": ping_interval_ms},
        ],
    }

#!/usr/bin/env python3
"""North-south connectivity: attach, ping an Internet host, watch both taps.

Replays the bundled north_south scenario: the UE attaches (cell search,
registration, session setup), receives 10.1.1.5 from the pool, and pings
an external server.  A passive monitor at the UE interface and at the
core's N6 side reports the same session number even though the core-side
addresses differ, because the UPF rewrites the UE source on egress.
"""

from nrusim.metrics import render_monitor, passive_monitor
from nrusim.runner import run_scenario
from nrusim.scenario import load_bundled

result = run_scenario(load_bundled("north_south"))
report = result.report

attach = report["attach"][0]
print(f"attach: {attach['ue']} reached {attach['phase']} with ip {attach['ip']} "
      f"after scanning {attach['scan_steps']} sync candidates")

ping = report["pings"][0]
print(f"\nping {ping['src']} -> {ping['dst']}: {ping['received']}/{ping['sent']} replies, "
      f"rtt min/avg/max/mdev = {ping['min_ms']}/{ping['avg_ms']}/{ping['max_ms']}/{ping['mdev_ms']} ms")

# The same flow, observed passively at two vantage points.
for tap in ("ue:ue1", "n6"):
    print(f"\npassive monitor at {tap}:")
    print(render_monitor(passive_monitor(result.frames(tap))))

ue_session = report["passive"]["ue:ue1"]["sessions"][0]
n6_session = report["passive"]["n6"]["sessions"][0]
print(f"\nsession id at the UE tap:   {ue_session['session_id']} "
      f"({ue_session['left']} <-> {ue_session['right']})")
print(f"session id at the core tap: {n6_session['session_id']} "
      f"({n6_session['left']} <-> {n6_session['right']})")
assert ue_session["session_id"] == n6_session["session_id"]
print("same flow, same session number, different visible addresses.")

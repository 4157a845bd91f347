#!/usr/bin/env python3
"""Listen-before-talk on a busy channel.

The gate senses for a full CCA window and backs off exponentially while
foreign bursts occupy the channel.  An idle channel grants after exactly
one CCA duration; each blocked attempt draws a backoff from a doubling
contention window; and granted windows never overlap a burst above the
energy threshold.
"""

from random import Random

from nrusim.access import BACKOFF_SLOT_US, Burst, ChannelOccupancy, LbtConfig, lbt_gate

cfg = LbtConfig()
print(f"config: threshold {cfg.cca_threshold_dbm} dBm, CCA {cfg.cca_duration_us} us, "
      f"contention window {cfg.cw_min}..{cfg.cw_max} slots of {BACKOFF_SLOT_US} us")

# Idle channel: a single clean CCA window.
idle = lbt_gate(ChannelOccupancy(), cfg, now_us=0, rng=Random(0))
print(f"\nidle channel: grant at {idle.grant_us} us (now + CCA)")

# A Wi-Fi-like burst train.  Bursts below the threshold are ignored.
bursts = [
    Burst(0, 800, -55.0),
    Burst(900, 1800, -60.0),
    Burst(2000, 2600, -80.0),   # below threshold: looks idle
    Burst(2700, 4200, -48.0),
]
occupancy = ChannelOccupancy(bursts)
for seed in range(5):
    result = lbt_gate(occupancy, cfg, now_us=0, rng=Random(seed))
    window = (result.grant_us - cfg.cca_duration_us, result.grant_us)
    print(f"seed {seed}: {result.busy_observations} busy observations, "
          f"grant at {result.grant_us} us (sensed {window[0]}..{window[1]} us)")

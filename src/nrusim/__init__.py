"""Planning and deterministic simulation toolkit for private 5G over the
5 GHz unlicensed band: raster/regulatory planning, a minimal 5G core,
GTP-U user plane, UE attach with LBT channel access, active/passive
measurement probes, and a seeded discrete-event engine that replays the
bundled desk-scale reference scenarios.
"""

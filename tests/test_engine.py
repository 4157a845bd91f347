import pytest

from nrusim.engine import EventLog, EventLoop, derive_rng
from nrusim.errors import InvariantBreach


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
        log.append(10, "ue1", "ping_tx", seq=0, dst="12.1.1.1")
        text = log.to_jsonl()
        assert text == '{"action": "ping_tx", "actor": "ue1", "dst": "12.1.1.1", "seq": 0, "t_us": 10}\n'

    def test_empty_log_is_empty_text(self):
        assert EventLog().to_jsonl() == ""

    def test_select(self):
        log = EventLog()
        log.append(1, "a", "x")
        log.append(2, "a", "y")
        log.append(3, "b", "x")
        assert len(log.select("x")) == 2

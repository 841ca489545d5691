"""Simulator scheduling: ordering, stop conditions, dirty-channel
commits and parked modules."""

import gc
import weakref

import pytest
from hypothesis import given, strategies as st

from repro.sim.channel import Channel
from repro.sim.engine import Simulator
from repro.sim.module import Module


class Producer(Module):
    def __init__(self, out: Channel, count: int) -> None:
        super().__init__("producer")
        self.out = out
        self.count = count
        self.sent = 0

    def tick(self, cycle: int) -> None:
        if self.sent >= self.count:
            self.out.close()
            self.finish()
            return
        if self.out.write(self.sent):
            self.sent += 1
            self.note_busy()
        else:
            self.note_stall()


class Consumer(Module):
    def __init__(self, inp: Channel) -> None:
        super().__init__("consumer")
        self.inp = inp
        self.received = []

    def tick(self, cycle: int) -> None:
        item = self.inp.try_read()
        if item is not None:
            self.received.append(item)
            self.note_busy()
        elif self.inp.exhausted:
            self.finish()
        else:
            self.note_idle()


def build_pipeline(count=10, capacity=4):
    sim = Simulator()
    ch = sim.add_channel(Channel("p2c", capacity=capacity))
    prod = sim.add_module(Producer(ch, count))
    cons = sim.add_module(Consumer(ch))
    return sim, prod, cons


def test_pipeline_delivers_everything_in_order():
    sim, prod, cons = build_pipeline(count=25, capacity=3)
    report = sim.run(max_cycles=1000)
    assert report.completed
    assert cons.received == list(range(25))

def test_one_cycle_channel_latency():
    """An item written in cycle t is readable no earlier than t+1."""
    sim, prod, cons = build_pipeline(count=1, capacity=4)
    sim.step()                      # producer stages item
    assert cons.received == []
    sim.step()                      # consumer sees it
    assert cons.received == [0]

def test_until_predicate_stops_run():
    sim, prod, cons = build_pipeline(count=1000)
    report = sim.run(max_cycles=10_000,
                     until=lambda s: len(cons.received) >= 5)
    assert report.completed
    assert len(cons.received) >= 5
    assert report.cycles < 10_000

def test_budget_exhaustion_marks_incomplete():
    sim, prod, cons = build_pipeline(count=1000)
    report = sim.run(max_cycles=3)
    assert not report.completed
    assert report.cycles == 3

def test_report_contents():
    sim, prod, cons = build_pipeline(count=8, capacity=2)
    report = sim.run(max_cycles=200)
    assert "producer" in report.module_utilization
    assert report.channel_peaks["p2c"] <= 2
    assert report.throughput(8) > 0


class ScheduledProducer(Module):
    """Writes one item on each cycle of ``schedule``; closes after the
    last one when ``close`` is set."""

    def __init__(self, out: Channel, schedule, close=True) -> None:
        super().__init__("scheduled")
        self.out = out
        self.schedule = sorted(set(schedule))
        self.close = close

    def tick(self, cycle: int) -> None:
        if self.schedule and cycle == self.schedule[0]:
            self.out.write(self.schedule.pop(0))
            self.note_busy()
        elif not self.schedule and self.close:
            self.out.close()
            self.finish()
        else:
            self.note_idle()


class ParkingConsumer(Consumer):
    """Consumer that sleeps on its input instead of polling it, and logs
    the cycle of every tick."""

    def __init__(self, inp: Channel, park: bool = True) -> None:
        super().__init__(inp)
        self.park = park
        self.ticks = []
        self.arrivals = []

    def tick(self, cycle: int) -> None:
        self.ticks.append(cycle)
        item = self.inp.try_read()
        if item is not None:
            self.received.append(item)
            self.arrivals.append(cycle)
            self.note_busy()
        elif self.inp.exhausted:
            self.finish()
        elif self.park:
            self.idle_until(self.inp)
        else:
            self.note_idle()


def scheduled_pipeline(schedule, park=True, close=True, capacity=4):
    sim = Simulator()
    ch = sim.add_channel(Channel("p2c", capacity=capacity))
    prod = sim.add_module(ScheduledProducer(ch, schedule, close=close))
    cons = sim.add_module(ParkingConsumer(ch, park=park))
    return sim, prod, cons


def counters(sim):
    return {m.name: (m.busy_cycles, m.stall_cycles, m.idle_cycles)
            for m in sim.modules}


class TestDirtyChannels:
    def test_only_written_channels_commit(self):
        commits = []

        class Counted(Channel):
            def commit(self):
                commits.append(self.name)
                super().commit()

        sim = Simulator()
        used = sim.add_channel(Counted("used"))
        sim.add_channel(Counted("untouched"))
        used.write(1)
        used.write(2)               # a second write does not re-enlist
        sim.step()
        sim.step()                  # nothing written: nothing committed
        used.close()
        sim.step()
        assert commits == ["used", "used"]
        assert used.closed and used.occupancy == 2
        assert used.peak_occupancy == 2

    def test_unregistered_channel_commits_by_hand(self):
        ch = Channel("loose")
        ch.write("x")
        Simulator().step()
        assert not ch.can_read()
        ch.commit()
        assert ch.read() == "x"


class TestParking:
    def test_parked_consumer_reads_the_cycle_after_the_commit(self):
        sim, prod, cons = scheduled_pipeline([5, 9, 10])
        report = sim.run(max_cycles=100)
        assert report.completed
        assert cons.received == [5, 9, 10]
        assert cons.arrivals == [6, 10, 11]
        # Asleep between an empty read and the next commit: it never
        # ticks on a cycle where its input cannot have changed.  The
        # close staged in cycle 11 ends it in cycle 12.
        assert cons.ticks == [0, 6, 7, 10, 11, 12]

    @given(st.sets(st.integers(min_value=0, max_value=40), max_size=12),
           st.integers(min_value=1, max_value=3))
    def test_parking_keeps_every_count(self, schedule, capacity):
        polled, _, polled_cons = scheduled_pipeline(
            schedule, park=False, capacity=capacity)
        parked, _, parked_cons = scheduled_pipeline(
            schedule, park=True, capacity=capacity)
        polled_report = polled.run(max_cycles=200)
        parked_report = parked.run(max_cycles=200)
        assert parked_report == polled_report
        assert counters(parked) == counters(polled)
        assert parked_cons.arrivals == polled_cons.arrivals
        assert parked_cons.idle_cycles == polled_cons.idle_cycles

    @pytest.mark.parametrize("stop", ["budget", "until"])
    def test_still_parked_at_the_end_is_credited(self, stop):
        runs = {}
        for park in (False, True):
            sim, prod, cons = scheduled_pipeline([2], park=park, close=False)
            if stop == "budget":
                report = sim.run(max_cycles=20)
                assert not report.completed
            else:
                report = sim.run(max_cycles=100,
                                 until=lambda s: s.cycle >= 15)
                assert report.completed
            runs[park] = (report, counters(sim))
        assert runs[True] == runs[False]
        report, counts = runs[True]
        assert counts["consumer"] == (1, 0, report.cycles - 1)

    def test_resumed_run_credits_no_cycle_twice(self):
        polled, _, _ = scheduled_pipeline([2, 30], park=False)
        parked, _, _ = scheduled_pipeline([2, 30], park=True)
        for sim in (polled, parked):
            sim.run(max_cycles=10)
            sim.run(max_cycles=10)
            sim.run(max_cycles=100)
        assert counters(parked) == counters(polled)

    def test_simulation_is_freed_without_the_cycle_collector(self):
        """Modules hold the simulator's request list, not the simulator:
        a finished run (one module still parked) is freed by reference
        counting alone, so repeated runs do not pile up until a GC pass."""
        gc.collect()
        gc.disable()
        try:
            sim, prod, cons = scheduled_pipeline([2], close=False)
            sim.run(max_cycles=20)
            freed = weakref.ref(sim)
            del sim, prod, cons
            assert freed() is None
        finally:
            gc.enable()

    def test_revived_module_ticks_again(self):
        sim = Simulator()
        ticks = []

        class Finisher(Module):
            def tick(self, cycle):
                ticks.append(cycle)
                self.note_busy()
                if cycle in (3, 9):
                    self.finish()

        target = sim.add_module(Finisher("target"))

        class Reviver(Module):
            def tick(self, cycle):
                if cycle == 6:
                    target._done = False    # as RuntimeProfiler.restart
                self.note_idle()

        sim.add_module(Reviver("reviver"))
        for _ in range(12):
            sim.step()
        assert ticks == [0, 1, 2, 3, 7, 8, 9]
        assert target.done

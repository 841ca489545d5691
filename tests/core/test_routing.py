"""Data routing: decoder matching, combiner broadcast, filter extraction,
conservation and backpressure."""

import pytest
from hypothesis import given, strategies as st

from repro.core.routing import Combiner, FilterDecoder
from repro.sim.channel import Channel
from repro.sim.engine import Simulator


def filtered(group, pe_id):
    """What one filter forwards to its PE from a single ``group``."""
    group_in = Channel("g", capacity=4)
    pe_out = Channel("pe", capacity=max(len(group), 1))
    filt = FilterDecoder("f", pe_id, group_in, pe_out)
    group_in.write(tuple(group))
    group_in.commit()
    filt.tick(0)
    pe_out.commit()
    return list(pe_out)


class TestDecoder:
    def test_forwards_matches_in_group_order(self):
        group = [(0, 1, 1), (2, 2, 1), (0, 3, 1)]
        assert filtered(group, 0) == [(0, 1, 1), (0, 3, 1)]
        assert filtered(group, 2) == [(2, 2, 1)]
        assert filtered(group, 5) == []

    @given(st.lists(st.integers(min_value=0, max_value=7), max_size=16))
    def test_property_filters_partition_the_group(self, dsts):
        """The filters of all PE ids together forward every tuple of a
        group exactly once, each to its own PE, in group order."""
        group = [(d, i, 1) for i, d in enumerate(dsts)]
        forwarded = []
        for pe in range(8):
            matched = filtered(group, pe)
            assert matched == [item for item in group if item[0] == pe]
            forwarded.extend(matched)
        # Keys are group positions: one sort restores the group.
        assert sorted(forwarded, key=lambda item: item[1]) == group


def build_routing(num_pes=4, lanes=2, group_depth=4, pe_depth=8,
                  lane_depth=64):
    sim = Simulator()
    lanes_ch = [sim.add_channel(Channel(f"in{i}", capacity=lane_depth))
                for i in range(lanes)]
    groups = [sim.add_channel(Channel(f"g{j}", capacity=group_depth))
              for j in range(num_pes)]
    pe_ch = [sim.add_channel(Channel(f"pe{j}", capacity=pe_depth))
             for j in range(num_pes)]
    combiner = sim.add_module(Combiner("comb", lanes_ch, groups))
    filters = [sim.add_module(FilterDecoder(f"f{j}", j, groups[j], pe_ch[j]))
               for j in range(num_pes)]
    return sim, lanes_ch, groups, pe_ch, combiner, filters


class TestCombiner:
    def test_requires_lanes_and_outputs(self):
        with pytest.raises(ValueError):
            Combiner("c", [], [Channel("g")])
        with pytest.raises(ValueError):
            Combiner("c", [Channel("i")], [])

    def test_broadcasts_group_to_every_datapath(self):
        sim, lanes, groups, pe_ch, comb, filters = build_routing()
        lanes[0].write((0, 10, 1))
        lanes[1].write((3, 11, 1))
        for ch in lanes:
            ch.commit()
        comb.tick(0)
        for g in groups:
            g.commit()
        seen = [g.peek() for g in groups]
        assert all(s == seen[0] for s in seen)
        assert len(seen[0]) == 2

    def test_stalls_when_any_group_channel_full(self):
        sim, lanes, groups, pe_ch, comb, filters = build_routing(
            group_depth=1)
        groups[2].write(((0, 0, 0),))      # fill one datapath
        groups[2].commit()
        lanes[0].write((0, 1, 1))
        lanes[0].commit()
        comb.tick(0)
        assert comb.stall_cycles == 1
        assert comb.groups_issued == 0

    def test_partial_groups_from_idle_lanes(self):
        sim, lanes, groups, pe_ch, comb, filters = build_routing()
        lanes[0].write((1, 5, 1))          # lane 1 has nothing
        lanes[0].commit()
        lanes[1].commit()
        comb.tick(0)
        for g in groups:
            g.commit()
        assert len(groups[0].peek()) == 1

    def test_closes_downstream_when_inputs_exhaust(self):
        sim, lanes, groups, pe_ch, comb, filters = build_routing()
        for ch in lanes:
            ch.close()
            ch.commit()
        comb.tick(0)
        for g in groups:
            g.commit()
        assert comb.done
        assert all(g.closed for g in groups)


class TestFilterDecoder:
    def test_extracts_only_matching_tuples(self):
        group_in = Channel("g", capacity=4)
        pe_out = Channel("pe", capacity=8)
        filt = FilterDecoder("f", 1, group_in, pe_out)
        group_in.write(((1, 10, 1), (0, 11, 1), (1, 12, 1)))
        group_in.commit()
        filt.tick(0)
        pe_out.commit()
        out = [pe_out.read(), pe_out.read()]
        assert [o[1] for o in out] == [10, 12]
        assert filt.tuples_forwarded == 2

    def test_holds_overflow_and_backpressures(self):
        group_in = Channel("g", capacity=4)
        pe_out = Channel("pe", capacity=1)
        filt = FilterDecoder("f", 0, group_in, pe_out)
        group_in.write(((0, 1, 1), (0, 2, 1), (0, 3, 1)))
        group_in.write(((0, 4, 1),))
        group_in.commit()
        filt.tick(0)
        pe_out.commit()
        assert pe_out.occupancy == 1       # capacity-bound
        assert filt._pending                # held internally
        # Next cycle: drains pending before taking a new group.
        pe_out.read()
        filt.tick(1)
        pe_out.commit()
        assert filt.stall_cycles >= 1 or filt.tuples_forwarded >= 2

    def test_finishes_when_group_channel_exhausts(self):
        group_in = Channel("g", capacity=4)
        pe_out = Channel("pe", capacity=8)
        filt = FilterDecoder("f", 0, group_in, pe_out)
        group_in.close()
        group_in.commit()
        filt.tick(0)
        assert filt.done
        pe_out.commit()
        assert pe_out.closed


class TestConservation:
    @given(st.lists(st.integers(min_value=0, max_value=3), min_size=1,
                    max_size=60))
    def test_property_every_tuple_reaches_its_pe(self, dsts):
        """Multiset conservation: the routing fabric neither drops nor
        duplicates tuples, and each arrives at its designated PE.

        PE channels are sized to hold the whole stream because this
        harness has no PE modules draining them.
        """
        sim, lanes, groups, pe_ch, comb, filters = build_routing(
            pe_depth=128)
        for i, d in enumerate(dsts):
            lanes[i % 2].write((d, i, 1))
        for ch in lanes:
            ch.close()
        report = sim.run(max_cycles=2000)
        assert report.completed
        delivered = {}
        for j, ch in enumerate(pe_ch):
            for (dst, key, value) in ch:
                assert dst == j
                delivered[key] = j
        assert len(delivered) == len(dsts)
        for key, pe in delivered.items():
            assert dsts[key] == pe

    def test_hot_pe_backpressures_whole_fabric(self):
        """All tuples to PE 0 with a shallow PE channel: the combiner must
        stall (the skew collapse mechanism)."""
        sim, lanes, groups, pe_ch, comb, filters = build_routing(
            group_depth=2, pe_depth=2)
        for i in range(40):
            lanes[i % 2].write((0, i, 1))
        for ch in lanes:
            ch.close()
        sim.run(max_cycles=60)             # not enough to drain PE 0
        assert comb.stall_cycles > 0

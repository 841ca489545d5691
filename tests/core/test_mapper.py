"""Mapper: the paper's Fig. 4 walkthrough, round-robin redirects and the
mapping-state invariants."""

import pytest
from hypothesis import given, strategies as st

from repro.core.mapper import DETACH, Mapper, MappingState
from repro.sim.channel import Channel


class TestFig4Example:
    """The exact example of the paper's Fig. 4: 4 PriPEs, 3 SecPEs,
    plan 4->2, 5->2, 6->0."""

    def make_state(self):
        state = MappingState(pripes=4, secpes=3)
        state.apply_pair(4, 2)
        state.apply_pair(5, 2)
        state.apply_pair(6, 0)
        return state

    def test_initial_table_and_counters(self):
        state = MappingState(pripes=4, secpes=3)
        assert state.table == [[0] * 4, [1] * 4, [2] * 4, [3] * 4]
        assert state.counter == [1, 1, 1, 1]

    def test_table_after_plan(self):
        state = self.make_state()
        assert state.table[2][:3] == [2, 4, 5]
        assert state.table[0][:2] == [0, 6]
        assert state.counter == [2, 1, 3, 1]

    def test_mapping_sequence_for_pripe0(self):
        """Fig. 4c: tuples for PriPE 0 alternate 0, 6, 0, 6 ..."""
        state = self.make_state()
        seq = [state.redirect(0) for _ in range(4)]
        assert seq == [0, 6, 0, 6]

    def test_mapping_sequence_for_pripe2(self):
        """Fig. 4c: tuples for PriPE 2 rotate 2, 4, 5, 2, 4, 5 ..."""
        state = self.make_state()
        seq = [state.redirect(2) for _ in range(6)]
        assert seq == [2, 4, 5, 2, 4, 5]

    def test_unassigned_pripe_unaffected(self):
        state = self.make_state()
        assert [state.redirect(1) for _ in range(3)] == [1, 1, 1]


class TestMappingStateValidation:
    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            MappingState(0, 1)
        with pytest.raises(ValueError):
            MappingState(4, -1)

    def test_rejects_out_of_range_ids(self):
        state = MappingState(4, 3)
        with pytest.raises(ValueError):
            state.apply_pair(3, 0)        # 3 is a PriPE id, not SecPE
        with pytest.raises(ValueError):
            state.apply_pair(7, 0)        # beyond M+X-1
        with pytest.raises(ValueError):
            state.apply_pair(4, 9)        # bad PriPE

    def test_row_overflow_rejected(self):
        state = MappingState(2, 1)
        state.apply_pair(2, 0)
        with pytest.raises(ValueError):
            state.apply_pair(2, 0)

    def test_detach_resets_counters_and_rotation(self):
        state = MappingState(4, 3)
        state.apply_pair(4, 1)
        state.redirect(1)
        state.detach()
        assert state.counter == [1, 1, 1, 1]
        assert [state.redirect(1) for _ in range(3)] == [1, 1, 1]


@given(
    pripes=st.integers(min_value=1, max_value=16),
    secpes=st.integers(min_value=0, max_value=15),
    data=st.data(),
)
def test_property_round_robin_splits_evenly(pripes, secpes, data):
    """After any valid plan, redirects of a PriPE's tuples distribute
    across its row entries with counts differing by at most one."""
    secpes = min(secpes, pripes - 1)
    state = MappingState(pripes, secpes)
    targets = data.draw(
        st.lists(st.integers(min_value=0, max_value=pripes - 1),
                 min_size=0, max_size=secpes)
    )
    for i, pripe in enumerate(targets):
        state.apply_pair(pripes + i, pripe)
    pripe = data.draw(st.integers(min_value=0, max_value=pripes - 1))
    n = data.draw(st.integers(min_value=1, max_value=64))
    outcomes = [state.redirect(pripe) for _ in range(n)]
    valid = state.table[pripe][: state.counter[pripe]]
    counts = {pe: outcomes.count(pe) for pe in set(outcomes)}
    assert set(outcomes) <= set(valid)
    assert max(counts.values()) - min(counts.values()) <= 1


class TestMapperModule:
    def make_mapper(self, secpes=3):
        routed = Channel("in", capacity=64)
        out = Channel("out", capacity=64)
        plan = Channel("plan", capacity=8)
        stats = Channel("stats", capacity=64)
        mapper = Mapper("m", 4, secpes, routed, out, plan, stats)
        return mapper, routed, out, plan, stats

    def test_applies_one_plan_pair_per_cycle(self):
        mapper, routed, out, plan, stats = self.make_mapper()
        plan.write((4, 2))
        plan.write((5, 2))
        plan.commit()
        mapper.tick(0)
        assert mapper.plan_pairs_applied == 1
        plan.commit()
        mapper.tick(1)
        assert mapper.plan_pairs_applied == 2

    def test_redirects_and_reports_original_pripe(self):
        mapper, routed, out, plan, stats = self.make_mapper()
        plan.write((4, 2))
        plan.commit()
        mapper.tick(0)
        for _ in range(2):
            routed.write((2, 99, 1))
        routed.commit()
        mapper.tick(1)
        mapper.tick(2)
        out.commit()
        stats.commit()
        designated = [out.read()[0], out.read()[0]]
        assert designated == [2, 4]       # round robin across 2, 4
        assert [stats.read(), stats.read()] == [2, 2]  # original id

    def test_detach_message_stops_secpe_routing(self):
        mapper, routed, out, plan, stats = self.make_mapper()
        plan.write((4, 2))
        plan.commit()
        mapper.tick(0)
        plan.write(DETACH)
        plan.commit()
        mapper.tick(1)
        assert mapper.detaches_seen == 1
        routed.write((2, 1, 1))
        routed.commit()
        mapper.tick(2)
        out.commit()
        assert out.read()[0] == 2         # no SecPE redirect after detach

    def test_finishes_and_closes_downstream_on_exhausted_input(self):
        mapper, routed, out, plan, stats = self.make_mapper()
        routed.close()
        routed.commit()
        mapper.tick(0)
        assert mapper.done
        out.commit()
        stats.commit()
        assert out.closed
        assert stats.closed

    def test_stats_writes_are_lossy_not_blocking(self):
        routed = Channel("in", capacity=64)
        out = Channel("out", capacity=64)
        plan = Channel("plan", capacity=8)
        stats = Channel("stats", capacity=1)
        mapper = Mapper("m", 4, 1, routed, out, plan, stats)
        for i in range(3):
            routed.write((0, i, 1))
        routed.commit()
        for cycle in range(3):
            mapper.tick(cycle)
            routed.commit()
        # Mapper kept moving tuples even with a full stats channel.
        assert mapper.tuples_redirected == 3

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mrexplore.allocate import (
    SUPPRESSED,
    AllocationState,
    NoAssignableGoal,
    RewardMatrix,
    RewardRow,
    any_open,
    chosen_cells,
    evict_known_goals,
    schedule,
    select_goal,
    update_rewards,
)
from mrexplore.frontier import FrontierPoint

from conftest import grid_from_rows


def cell_key(p):
    return (math.floor(p.x), math.floor(p.y))


def matrix(rows, owner=0):
    return RewardMatrix([RewardRow(FrontierPoint(x, y), r) for x, y, r in rows], owner)


class TestSchedule:
    def test_ascending_priority(self):
        state = AllocationState(goal_skip_wait=5)
        assert schedule({2, 0, 1}, state) == 0
        assert state.skip_counters[1] == 1
        assert state.skip_counters[2] == 1
        assert state.skip_counters[0] == 0

    def test_single_agent_reset(self):
        state = AllocationState(goal_skip_wait=5)
        state.skip_counters[3] = 4
        assert schedule({3}, state) == 3
        assert state.skip_counters[3] == 0

    def test_starved_agent_preempts(self):
        state = AllocationState(goal_skip_wait=5)
        state.skip_counters[2] = 5
        assert schedule({0, 2}, state) == 2

    def test_longest_starved_wins_tie_to_lowest(self):
        state = AllocationState(goal_skip_wait=3)
        state.skip_counters = {1: 4, 2: 6, 3: 6}
        assert schedule({0, 1, 2, 3}, state) == 2

    def test_alternating_contention_bounds_deferrals(self):
        # agents 0 and 1 alternate requests, agent 2 is always pending;
        # its deferral count must never exceed the threshold
        state = AllocationState(goal_skip_wait=5)
        deferred = 0
        max_deferred = 0
        for round_no in range(60):
            pending = {round_no % 2, 2}
            served = schedule(pending, state)
            if served == 2:
                deferred = 0
            else:
                deferred += 1
                max_deferred = max(max_deferred, deferred)
        assert max_deferred <= 5

    def test_deterministic(self):
        a = AllocationState(goal_skip_wait=5)
        b = AllocationState(goal_skip_wait=5)
        a.skip_counters = {0: 1, 1: 3}
        b.skip_counters = {0: 1, 1: 3}
        assert schedule({0, 1, 2}, a) == schedule({0, 1, 2}, b)


class TestUpdateRewards:
    def test_spread_arithmetic(self):
        # K = max 10 / 5 chosen = 2; row at distance 2 loses 2/4 = 0.5
        chosen = [FrontierPoint(0.0, 0.0), FrontierPoint(20, 20),
                  FrontierPoint(30, 30), FrontierPoint(40, 40),
                  FrontierPoint(50, 50)]
        h = matrix([(2.0, 0.0, 10.0)])
        out, applied = update_rewards(chosen, h, cell_key)
        assert applied
        # the near point at distance 2 costs 0.5; distant chosen points cost
        # their own tiny K/d^2 shares
        far_losses = sum(2.0 / ((c.x - 2.0) ** 2 + c.y ** 2) for c in chosen[1:])
        assert out.rows[0].reward == pytest.approx(10.0 - 0.5 - far_losses)

    def test_chosen_cell_suppressed(self):
        chosen = [FrontierPoint(1.2, 1.2)]
        h = matrix([(1.4, 1.4, 5.0), (3.0, 3.0, 4.0)])
        out, _ = update_rewards(chosen, h, cell_key)
        assert out.rows[0].reward == SUPPRESSED
        assert math.isfinite(out.rows[1].reward)

    def test_two_chosen_accumulate(self):
        d = 2.0
        chosen = [FrontierPoint(0.0, d), FrontierPoint(0.0, -d)]
        h = matrix([(0.0, 0.0, 8.0), (40.0, 0.0, 8.0)])
        out, _ = update_rewards(chosen, h, cell_key)
        k_scale = 8.0 / 2
        assert out.rows[0].reward == pytest.approx(8.0 - 2 * k_scale / d**2)

    def test_equal_rewards_post_update_increase_with_distance(self):
        chosen = [FrontierPoint(0.0, 0.0)]
        h = matrix([(2.0, 0.0, 6.0), (5.0, 0.0, 6.0), (9.0, 0.0, 6.0)])
        out, _ = update_rewards(chosen, h, cell_key)
        rewards = [r.reward for r in out.rows]
        assert rewards[0] < rewards[1] < rewards[2]

    def test_never_increases_rewards(self):
        chosen = [FrontierPoint(5.0, 5.0)]
        h = matrix([(1.0, 1.0, 3.0), (9.0, 9.0, 1.0), (4.0, 4.0, SUPPRESSED)])
        out, _ = update_rewards(chosen, h, cell_key)
        for before, after in zip(h.rows, out.rows):
            assert after.reward <= before.reward

    def test_all_suppressed_unchanged(self):
        h = matrix([(1.0, 1.0, SUPPRESSED)])
        out, applied = update_rewards([FrontierPoint(0, 0)], h, cell_key)
        assert not applied
        assert out.rows[0].reward == SUPPRESSED

    def test_underflowing_distance_suppressed(self):
        # different floor cells, but d^2 = 4e-340 underflows to 0
        chosen = [FrontierPoint(1e-170, 0.0)]
        h = matrix([(-1e-170, 0.0, 5.0), (3.0, 0.0, 4.0)])
        out, applied = update_rewards(chosen, h, cell_key)
        assert applied
        assert out.rows[0].reward == SUPPRESSED
        assert out.rows[1].reward == pytest.approx(4.0 - 5.0 / 9.0)

    def test_requires_chosen(self):
        with pytest.raises(ValueError):
            update_rewards([], matrix([(0, 0, 1.0)]), cell_key)


class TestSelectGoal:
    def test_max_reward_chosen_and_recorded(self):
        state = AllocationState()
        h = matrix([(1.0, 1.0, 5.0), (2.0, 2.0, 3.0)])
        goal = select_goal(h, state, cell_key)
        assert (goal.x, goal.y) == (1.0, 1.0)
        assert state.chosen_coords == [goal]

    def test_already_chosen_falls_to_next(self):
        state = AllocationState()
        first = select_goal(matrix([(1.0, 1.0, 5.0), (9.0, 9.0, 3.0)]),
                            state, cell_key)
        assert (first.x, first.y) == (1.0, 1.0)
        # same matrix again: the recorded goal is suppressed by the update
        second = select_goal(matrix([(1.0, 1.0, 5.0), (9.0, 9.0, 3.0)]),
                             state, cell_key)
        assert (second.x, second.y) == (9.0, 9.0)

    def test_equal_rewards_lowest_index(self):
        state = AllocationState()
        h = matrix([(3.0, 0.0, 2.0), (1.0, 0.0, 2.0), (2.0, 0.0, 2.0)])
        goal = select_goal(h, state, cell_key)
        assert (goal.x, goal.y) == (3.0, 0.0)

    def test_all_suppressed_raises(self):
        state = AllocationState()
        with pytest.raises(NoAssignableGoal):
            select_goal(matrix([(1.0, 1.0, SUPPRESSED)]), state, cell_key)

    def test_never_returns_cell_equal_to_history(self):
        state = AllocationState()
        h1 = matrix([(1.0, 1.0, 5.0)])
        select_goal(h1, state, cell_key)
        for i in range(3):
            h = matrix([(1.3, 1.3, 50.0), (6.0 + i, 6.0, 1.0)])
            goal = select_goal(h, state, cell_key)
            assert cell_key(goal) != (1, 1)

    def test_spread_prefers_farthest_among_equals(self):
        # three equal raw rewards, one goal already chosen: the K/d^2
        # penalty leaves the farthest candidate on top
        state = AllocationState()
        state.chosen_coords.append(FrontierPoint(0.0, 0.0))
        h = matrix([(2.0, 0.0, 7.0), (11.0, 0.0, 7.0), (5.0, 0.0, 7.0)])
        goal = select_goal(h, state, cell_key)
        assert (goal.x, goal.y) == (11.0, 0.0)


# quarter-cell coordinates on a 4x4 patch, so rows often share a chosen cell
_coord = st.integers(0, 15).map(lambda i: i / 4.0)
_point = st.builds(FrontierPoint, _coord, _coord)
_reward = st.one_of(st.floats(-100.0, 100.0), st.just(SUPPRESSED))


class TestOpenCandidates:
    def test_no_history_is_open(self):
        assert any_open([FrontierPoint(1.0, 1.0)], AllocationState(), cell_key)
        assert not any_open([], AllocationState(), cell_key)

    def test_all_in_chosen_cells_is_closed(self):
        state = AllocationState(chosen_coords=[FrontierPoint(1.2, 1.2),
                                               FrontierPoint(3.5, 0.5)])
        assert chosen_cells(state, cell_key) == {(1, 1), (3, 0)}
        assert not any_open([FrontierPoint(1.9, 1.0), FrontierPoint(3.0, 0.0)],
                            state, cell_key)
        assert any_open([FrontierPoint(1.9, 1.0), FrontierPoint(2.0, 0.0)],
                        state, cell_key)

    @given(st.lists(st.tuples(_point, _reward), min_size=1, max_size=8),
           st.lists(_point, max_size=6))
    def test_select_goal_agrees_with_any_open(self, rows, chosen):
        state = AllocationState(chosen_coords=list(chosen))
        h = RewardMatrix([RewardRow(p, r) for p, r in rows], owner=0)
        taken = chosen_cells(state, cell_key)
        if not any_open([p for p, _ in rows], state, cell_key):
            with pytest.raises(NoAssignableGoal):
                select_goal(h, state, cell_key)
            assert state.chosen_coords == chosen
            return
        try:
            goal = select_goal(h, state, cell_key)
        except NoAssignableGoal:
            assert state.chosen_coords == chosen
            return
        assert cell_key(goal) not in taken
        assert state.chosen_coords == chosen + [goal]


class TestEviction:
    def test_known_area_evicted(self):
        g = grid_from_rows([
            "....??",
            "....??",
            "....??",
        ])
        state = AllocationState()
        state.chosen_coords = [FrontierPoint(1.5, 1.5), FrontierPoint(4.5, 1.5)]
        evicted = evict_known_goals(state, g, 1.0)
        assert evicted == 1
        assert [cell_key(p) for p in state.chosen_coords] == [(4, 1)]


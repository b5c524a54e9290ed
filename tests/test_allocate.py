import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mrexplore.allocate import (
    SUPPRESSED,
    AllocationState,
    NoAssignableGoal,
    any_open,
    evict_known_goals,
    schedule,
    select_goal,
    update_rewards,
)
from mrexplore.frontier import disc_unknown_stats

from conftest import grid_from_rows


def cell_key(p):
    """The cell of p on a grid of 1 m cells with its origin at (0, 0)."""
    return (math.floor(p[0]), math.floor(p[1]))


def matrix(rows):
    """(points, rewards) from (x, y, reward) rows."""
    return ([(x, y) for x, y, _ in rows], [r for _, _, r in rows])


def pick(h, state):
    """The point select_goal chooses from the (points, rewards) pair h."""
    return h[0][select_goal(*h, state)]


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


_point = st.tuples(st.floats(-50, 50), st.floats(-50, 50))
_reward = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.just(SUPPRESSED))  # any sign


class TestUpdateRewards:
    def test_spread_arithmetic(self):
        # K = max 10 / 5 chosen = 2; row at distance 2 loses 2/4 = 0.5
        chosen = [(0.0, 0.0), (20, 20),
                  (30, 30), (40, 40),
                  (50, 50)]
        h = matrix([(2.0, 0.0, 10.0)])
        out = update_rewards(chosen, *h)
        # the near point at distance 2 costs 0.5; distant chosen points cost
        # their own tiny K/d^2 shares
        far_losses = sum(2.0 / ((c[0] - 2.0) ** 2 + c[1] ** 2) for c in chosen[1:])
        assert out[0] == pytest.approx(10.0 - 0.5 - far_losses)

    def test_chosen_cell_suppressed(self):
        # points are cell centres, so the chosen cell is the chosen point
        chosen = [(1.5, 1.5)]
        h = matrix([(1.5, 1.5, 5.0), (3.5, 3.5, 4.0)])
        out = update_rewards(chosen, *h)
        assert out[0] == SUPPRESSED
        assert math.isfinite(out[1])

    def test_two_chosen_accumulate(self):
        d = 2.0
        chosen = [(0.0, d), (0.0, -d)]
        h = matrix([(0.0, 0.0, 8.0), (40.0, 0.0, 8.0)])
        out = update_rewards(chosen, *h)
        k_scale = 8.0 / 2
        assert out[0] == pytest.approx(8.0 - 2 * k_scale / d**2)

    def test_equal_rewards_post_update_increase_with_distance(self):
        chosen = [(0.0, 0.0)]
        h = matrix([(2.0, 0.0, 6.0), (5.0, 0.0, 6.0), (9.0, 0.0, 6.0)])
        out = update_rewards(chosen, *h)
        assert out[0] < out[1] < out[2]

    @settings(max_examples=300)
    @given(st.lists(st.tuples(_point, _reward), min_size=1, max_size=8),
           st.lists(_point, min_size=1, max_size=4))
    @example([((1.0, 1.0), 3.0), ((9.0, 9.0), 1.0), ((4.0, 4.0), SUPPRESSED)],
             [(5.0, 5.0)])
    @example([((1.5, 0.5), -1.0), ((6.5, 0.5), -1.0)],
             [(0.5, 0.5)])  # every reward negative: K must not turn into a pull
    def test_never_increases_rewards(self, rows, chosen):
        points = [p for p, _ in rows]
        rewards = [r for _, r in rows]
        for before, after in zip(rewards, update_rewards(chosen, points, rewards)):
            assert after <= before

    def test_all_suppressed_unchanged(self):
        h = matrix([(1.0, 1.0, SUPPRESSED)])
        out = update_rewards([(0, 0)], *h)
        assert out == h[1]
        assert out[0] == SUPPRESSED

    def test_underflowing_distance_suppressed(self):
        # unequal points, but d^2 = 4e-340 underflows to 0
        chosen = [(1e-170, 0.0)]
        h = matrix([(-1e-170, 0.0, 5.0), (3.0, 0.0, 4.0)])
        out = update_rewards(chosen, *h)
        assert out[0] == SUPPRESSED
        assert out[1] == pytest.approx(4.0 - 5.0 / 9.0)

    def test_requires_chosen(self):
        with pytest.raises(ValueError):
            update_rewards([], *matrix([(0, 0, 1.0)]))


class TestSelectGoal:
    def test_max_reward_chosen_and_recorded(self):
        state = AllocationState()
        h = matrix([(1.0, 1.0, 5.0), (2.0, 2.0, 3.0)])
        goal = pick(h, state)
        assert goal == (1.0, 1.0)
        assert state.chosen_coords == [goal]

    def test_already_chosen_falls_to_next(self):
        state = AllocationState()
        first = pick(matrix([(1.0, 1.0, 5.0), (9.0, 9.0, 3.0)]), state)
        assert first == (1.0, 1.0)
        # same matrix again: the recorded goal is suppressed by the update
        second = pick(matrix([(1.0, 1.0, 5.0), (9.0, 9.0, 3.0)]), state)
        assert second == (9.0, 9.0)

    def test_equal_rewards_lowest_index(self):
        state = AllocationState()
        h = matrix([(3.0, 0.0, 2.0), (1.0, 0.0, 2.0), (2.0, 0.0, 2.0)])
        goal = pick(h, state)
        assert goal == (3.0, 0.0)

    def test_all_suppressed_raises(self):
        state = AllocationState()
        with pytest.raises(NoAssignableGoal):
            select_goal(*matrix([(1.0, 1.0, SUPPRESSED)]), state)

    def test_never_returns_cell_equal_to_history(self):
        state = AllocationState()
        h1 = matrix([(1.5, 1.5, 5.0)])
        select_goal(*h1, state)
        for i in range(3):
            h = matrix([(1.5, 1.5, 50.0), (6.5 + i, 6.5, 1.0)])
            goal = pick(h, state)
            assert goal != (1.5, 1.5)

    def test_spread_prefers_farthest_among_equals(self):
        # three equal raw rewards, one goal already chosen: the K/d^2
        # penalty leaves the farthest candidate on top
        state = AllocationState()
        state.chosen_coords.append((0.0, 0.0))
        h = matrix([(2.0, 0.0, 7.0), (11.0, 0.0, 7.0), (5.0, 0.0, 7.0)])
        goal = pick(h, state)
        assert goal == (11.0, 0.0)


# cell centres on a 4x4 patch, so rows often equal a chosen goal
_coord = st.integers(0, 3).map(lambda i: i + 0.5)
_point = st.tuples(_coord, _coord)
_reward = st.one_of(st.floats(-100.0, 100.0), st.just(SUPPRESSED))


class TestOpenCandidates:
    def test_no_history_is_open(self):
        assert any_open([(1.0, 1.0)], AllocationState())
        assert not any_open([], AllocationState())

    def test_all_in_chosen_cells_is_closed(self):
        # points are cell centres, so a chosen cell is a chosen point
        state = AllocationState(chosen_coords=[(1.5, 1.5), (3.5, 0.5)])
        assert not any_open([(1.5, 1.5), (3.5, 0.5)], state)
        assert not any_open([(3.5, 0.5), (3.5, 0.5)], state)
        assert any_open([(1.5, 2.5)], state)
        assert any_open([(3.5, 0.5), (2.5, 0.5)], state)

    @given(st.lists(st.tuples(_point, _reward), min_size=1, max_size=8),
           st.lists(_point, max_size=6))
    def test_select_goal_agrees_with_any_open(self, rows, chosen):
        state = AllocationState(chosen_coords=list(chosen))
        h = ([p for p, _ in rows], [r for _, r in rows])
        if not any_open([p for p, _ in rows], state):
            with pytest.raises(NoAssignableGoal):
                select_goal(*h, state)
            assert state.chosen_coords == chosen
            return
        try:
            goal = pick(h, state)
        except NoAssignableGoal:
            assert state.chosen_coords == chosen
            return
        assert any_open([goal], AllocationState(chosen_coords=list(chosen)))
        assert state.chosen_coords == chosen + [goal]


def reference_update(chosen, points, rewards):
    """The spreading loop select_goal ran before it took plain lists and
    compared points by value: per chosen goal, per point, suppress a point
    in the goal's cell, then take K/d^2 off every finite reward."""
    finite = [r for r in rewards if math.isfinite(r)]
    if not finite:
        return list(rewards)
    k_scale = abs(max(finite)) / len(chosen)
    out = list(rewards)
    for c in chosen:
        for i, p in enumerate(points):
            if cell_key(p) == cell_key(c):
                out[i] = SUPPRESSED
            if not math.isfinite(out[i]):
                continue
            d = math.hypot(c[0] - p[0], c[1] - p[1])
            if d * d == 0.0:
                out[i] = SUPPRESSED
            else:
                out[i] -= k_scale / (d * d)
    return out


# Cell centres, as every offered point and chosen goal is one, on either
# side of the cell boundary at 0.
_centre = st.integers(-4, 11).map(lambda i: i + 0.5)
_spread_point = st.tuples(_centre, _centre)
_spread_reward = st.one_of(st.floats(allow_nan=False), st.just(SUPPRESSED),
                           st.sampled_from([0.0, 1e308, -1e308, 1e-300]))


class TestSpreadMatchesReference:
    """On cell centres, comparing points by value is the cell-keyed rule."""

    @settings(max_examples=300)
    @given(st.lists(st.tuples(_spread_point, _spread_reward), min_size=1, max_size=8),
           st.lists(_spread_point, min_size=1, max_size=6),
           st.data())
    @example([((-0.5, 0.5), 5.0), ((0.5, 0.5), 4.0)],
             [(0.5, 0.5)], None)  # neighbours across the boundary at 0
    @example([((1.5, 1.5), 5.0), ((3.5, 3.5), SUPPRESSED)],
             [(1.5, 1.5), (1.5, 1.5)], None)  # duplicate goals
    @example([((1.5, 1.5), math.inf), ((3.5, 3.5), 1.0)],
             [(1.5, 1.5)], None)  # an infinite reward on a chosen point
    def test_same_rewards_and_choice(self, rows, chosen, data):
        if data is not None:  # sometimes repeat a chosen goal or offer one
            chosen = chosen + data.draw(st.lists(st.sampled_from(chosen), max_size=2))
            rows = rows + [(p, 1.0) for p in data.draw(
                st.lists(st.sampled_from(chosen), max_size=2))]
        points = [p for p, _ in rows]
        rewards = [r for _, r in rows]
        want = reference_update(chosen, points, rewards)
        assert update_rewards(chosen, points, rewards) == want

        state = AllocationState(chosen_coords=list(chosen))
        taken = {cell_key(c) for c in chosen}
        assert any_open(points, state) == any(cell_key(p) not in taken for p in points)
        finite = [i for i, r in enumerate(want) if math.isfinite(r)]
        if not finite:
            with pytest.raises(NoAssignableGoal):
                select_goal(points, rewards, state)
            assert state.chosen_coords == chosen
            return
        best = max(finite, key=lambda i: (want[i], -i))
        assert select_goal(points, rewards, state) == best
        assert state.chosen_coords == chosen + [points[best]]


class TestEviction:
    def test_known_area_evicted(self):
        g = grid_from_rows([
            "....??",
            "....??",
            "....??",
        ])
        state = AllocationState()
        state.chosen_coords = [(1.5, 1.5), (4.5, 1.5)]
        unk, total = disc_unknown_stats(state.chosen_coords, g, 1.0)
        known = ((total > 0) & (unk == 0)).tolist()
        assert known == [True, False]

        evicted = evict_known_goals(state, known)
        assert evicted == 1
        assert [cell_key(p) for p in state.chosen_coords] == [(4, 1)]


    def test_flags_must_match_goals(self):
        state = AllocationState()
        state.chosen_coords = [(1.5, 1.5)]
        with pytest.raises(ValueError):
            evict_known_goals(state, [True, False])
        assert len(state.chosen_coords) == 1

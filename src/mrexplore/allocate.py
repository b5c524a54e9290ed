"""Centralized goal allocation: serialized request scheduling with
ascending-id priority plus starvation override, chosen-goal memory, and
reward spreading that pushes agents apart."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .frontier import FrontierPoint, disc_unknown_stats

SUPPRESSED = float("-inf")


@dataclass
class RewardRow:
    point: FrontierPoint
    reward: float


@dataclass
class RewardMatrix:
    rows: list[RewardRow]
    owner: int


@dataclass
class AllocationState:
    """Server-side memory: previously assigned goals and per-agent
    deferred-request counters."""

    goal_skip_wait: int = 5
    chosen_coords: list[FrontierPoint] = field(default_factory=list)
    skip_counters: dict[int, int] = field(default_factory=dict)


class NoAssignableGoal(Exception):
    """Every reward row is suppressed; the caller should refresh frontiers."""


def schedule(pending: set[int], state: AllocationState) -> int:
    """Pick the next agent to serve from the pending set.

    Lowest id wins unless some pending agent has been deferred
    goal_skip_wait times or more; then the longest-starved such agent is
    served (ties to the lowest id). Every other pending agent's counter
    goes up by one and the served agent's counter resets.
    """
    if not pending:
        raise ValueError("no pending agents")
    starving = [a for a in pending
                if state.skip_counters.get(a, 0) >= state.goal_skip_wait]
    if starving:
        chosen = max(starving, key=lambda a: (state.skip_counters.get(a, 0), -a))
    else:
        chosen = min(pending)
    for a in pending:
        if a != chosen:
            state.skip_counters[a] = state.skip_counters.get(a, 0) + 1
    state.skip_counters[chosen] = 0
    return chosen


def update_rewards(
    chosen: list[FrontierPoint],
    matrix: RewardMatrix,
    cell_key,
) -> tuple[RewardMatrix, bool]:
    """Spread rewards away from already-chosen goals.

    K = (max finite reward) / len(chosen); every row loses K/d^2 per chosen
    point at distance d, and rows in the cell of a chosen point (so every
    row at d == 0) are suppressed outright, as is a row so close that d^2
    underflows to 0. Returns (matrix, applied); when no finite reward
    exists the matrix comes back unchanged with applied=False.
    """
    if not chosen:
        raise ValueError("update_rewards requires at least one chosen point")
    finite = [r.reward for r in matrix.rows if math.isfinite(r.reward)]
    if not finite:
        return matrix, False
    k_scale = max(finite) / len(chosen)

    rows = [RewardRow(r.point, r.reward) for r in matrix.rows]
    for c in chosen:
        c_cell = cell_key(c)
        for row in rows:
            if cell_key(row.point) == c_cell:
                row.reward = SUPPRESSED
            if not math.isfinite(row.reward):
                continue
            d = math.hypot(c.x - row.point.x, c.y - row.point.y)
            if d * d == 0.0:  # underflow: -K/d^2 tends to -inf
                row.reward = SUPPRESSED
            else:
                row.reward -= k_scale / (d * d)
    return RewardMatrix(rows, matrix.owner), True


def chosen_cells(state: AllocationState, cell_key) -> set:
    """Cells of the goals already handed out. select_goal never assigns a
    point whose cell is in this set."""
    return {cell_key(c) for c in state.chosen_coords}


def any_open(points, state: AllocationState, cell_key) -> bool:
    """Whether some point lies outside every chosen cell. When none does,
    select_goal can only raise NoAssignableGoal, whatever the rewards, so a
    caller may answer "no goal" without scoring the points."""
    taken = chosen_cells(state, cell_key)
    return any(cell_key(p) not in taken for p in points)


def select_goal(
    matrix: RewardMatrix,
    state: AllocationState,
    cell_key,
) -> FrontierPoint:
    """Pick the highest-reward row, spreading first when history exists.

    The winner is recorded in chosen_coords. Spreading suppresses every row
    cell-equal to an existing goal, so none of them can win. Ties break to
    the lowest row index.
    """
    if not matrix.rows:
        raise NoAssignableGoal("empty reward matrix")
    if state.chosen_coords:
        matrix, _ = update_rewards(state.chosen_coords, matrix, cell_key)

    best_i, best_r = -1, SUPPRESSED
    for i, row in enumerate(matrix.rows):
        if math.isfinite(row.reward) and row.reward > best_r:
            best_i, best_r = i, row.reward
    if best_i < 0:
        raise NoAssignableGoal("no assignable goal")
    winner = matrix.rows[best_i].point
    state.chosen_coords.append(winner)
    return winner


def evict_known_goals(state: AllocationState, merged, rad: float) -> int:
    """Drop chosen goals whose surrounding disc holds no Unknown cells any
    more; returns how many were evicted. Keeps old goals from permanently
    poisoning rewards on small maps."""
    kept = []
    evicted = 0
    for p in state.chosen_coords:
        unk, total = disc_unknown_stats(p, merged, rad)
        if total > 0 and unk == 0:
            evicted += 1
        else:
            kept.append(p)
    state.chosen_coords = kept
    return evicted


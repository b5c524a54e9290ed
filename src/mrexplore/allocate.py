"""Centralized goal allocation: serialized request scheduling with
ascending-id priority plus starvation override, chosen-goal memory, and
reward spreading that pushes agents apart."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

SUPPRESSED = float("-inf")


@dataclass
class AllocationState:
    """Server-side memory: previously assigned goals, as (x, y) points, and
    per-agent deferred-request counters."""

    goal_skip_wait: int = 5
    chosen_coords: list[tuple[float, float]] = field(default_factory=list)
    skip_counters: dict[int, int] = field(default_factory=dict)


class NoAssignableGoal(Exception):
    """Every reward is suppressed; the caller should refresh frontiers."""


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
    chosen: list[tuple[float, float]],
    points: list[tuple[float, float]],
    rewards: list[float],
    cell_key,
) -> list[float]:
    """Spread rewards away from already-chosen goals; one reward per point.

    K = (max finite reward) / len(chosen); every point loses K/d^2 per
    chosen point at distance d, in chosen order, and points in the cell of a
    chosen point (so every point at d == 0) are suppressed outright, as is a
    point so close that d^2 underflows to 0. When no finite reward exists
    the rewards come back unchanged.
    """
    if not chosen:
        raise ValueError("update_rewards requires at least one chosen point")
    finite = [r for r in rewards if math.isfinite(r)]
    if not finite:
        return list(rewards)
    k_scale = max(finite) / len(chosen)
    taken = {cell_key(c) for c in chosen}

    out = []
    for p, reward in zip(points, rewards, strict=True):
        if cell_key(p) in taken:
            reward = SUPPRESSED
        px, py = p
        for cx, cy in chosen:
            if not math.isfinite(reward):
                break
            d = math.hypot(cx - px, cy - py)
            if d * d == 0.0:  # underflow: -K/d^2 tends to -inf
                reward = SUPPRESSED
            else:
                reward -= k_scale / (d * d)
        out.append(reward)
    return out


def any_open(points, state: AllocationState, cell_key) -> bool:
    """Whether some point lies outside every chosen goal's cell. When none
    does, select_goal can only raise NoAssignableGoal, whatever the rewards,
    so a caller may answer "no goal" without scoring the points."""
    taken = {cell_key(c) for c in state.chosen_coords}
    return any(cell_key(p) not in taken for p in points)


def select_goal(
    points: list[tuple[float, float]],
    rewards: list[float],
    state: AllocationState,
    cell_key,
) -> int:
    """Index of the highest-reward point, spreading first when history
    exists; the winning point is recorded in chosen_coords.

    Spreading suppresses every point cell-equal to an existing goal, so none
    of them can win. Ties break to the lowest index.
    """
    if state.chosen_coords:
        rewards = update_rewards(state.chosen_coords, points, rewards, cell_key)

    best_i, best_r = -1, SUPPRESSED
    for i, reward in enumerate(rewards):
        if math.isfinite(reward) and reward > best_r:
            best_i, best_r = i, reward
    if best_i < 0:
        raise NoAssignableGoal("no assignable goal")
    state.chosen_coords.append(points[best_i])
    return best_i


def evict_known_goals(state: AllocationState, known: list[bool]) -> int:
    """Drop the chosen goals flagged in known, one flag per goal in order
    (their surroundings are fully mapped); returns how many were evicted.
    Keeps old goals from permanently poisoning rewards on small maps."""
    kept = [p for p, k in zip(state.chosen_coords, known, strict=True) if not k]
    evicted = len(state.chosen_coords) - len(kept)
    state.chosen_coords = kept
    return evicted

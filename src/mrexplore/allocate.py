"""Centralized goal allocation: serialized request scheduling with
ascending-id priority plus starvation override, chosen-goal memory, and
reward spreading that pushes agents apart.

Points are compared by value: every offered point is the centre of a
merged-map cell in the one frame all robots share, so equal points and
same-cell points are one test, and allocation needs no map. The frontier
filter keeps its dedup by cell, the cross-robot merge of the robots' lists."""

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
) -> list[float]:
    """Spread rewards away from already-chosen goals; one reward per point.

    K = |max finite reward| / len(chosen); every finite reward loses K/d^2
    per chosen point at distance d, in chosen order, so spreading never
    raises a reward, even when all are negative. A point at d == 0, so one
    equal to a chosen point, is suppressed outright, as is a point so close
    that d^2 underflows to 0. When no finite reward exists the rewards
    come back unchanged.
    """
    if not chosen:
        raise ValueError("update_rewards requires at least one chosen point")
    finite = [r for r in rewards if math.isfinite(r)]
    if not finite:
        return list(rewards)
    k_scale = abs(max(finite)) / len(chosen)

    out = []
    for (px, py), reward in zip(points, rewards, strict=True):
        for cx, cy in chosen:
            d = math.hypot(cx - px, cy - py)
            if d * d == 0.0:  # d == 0, or d^2 underflows: -K/d^2 tends to -inf
                reward = SUPPRESSED
                break
            if math.isfinite(reward):
                reward -= k_scale / (d * d)
        out.append(reward)
    return out


def any_open(points, state: AllocationState) -> bool:
    """Whether some point is not a chosen goal. When none is, select_goal
    can only raise NoAssignableGoal, whatever the rewards, so a caller may
    answer "no goal" without scoring the points."""
    chosen = set(state.chosen_coords)
    return any(p not in chosen for p in points)


def select_goal(
    points: list[tuple[float, float]],
    rewards: list[float],
    state: AllocationState,
) -> int:
    """Index of the highest-reward point, spreading first when history
    exists; the winning point is recorded in chosen_coords.

    Spreading suppresses every point equal to an existing goal, so none of
    them can win. Ties break to the lowest index.
    """
    if state.chosen_coords:
        rewards = update_rewards(state.chosen_coords, points, rewards)

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

import math

import numpy as np
import pytest

from mrexplore.grid import FREE, OCCUPIED, UNKNOWN, OccupancyGrid, cell_entropy
from mrexplore.planner import plan_many
from mrexplore.posegraph import GraphBuildParams, PoseGraph, extend_trajectory
from mrexplore.utility import (
    UtilityParams,
    decay,
    path_entropy,
    score_candidates,
    u2,
)

from conftest import grid_from_rows


class TestPathEntropy:
    def test_all_free_path(self):
        g = grid_from_rows(["....."])
        e, length = path_entropy(g, [(x, 0) for x in range(5)])
        assert length == 5
        # natural-log oracle: -(0.05 ln 0.05 + 0.95 ln 0.95) / ln 2
        want = -(0.05 * math.log(0.05) + 0.95 * math.log(0.95)) / math.log(2.0)
        assert e / length == pytest.approx(want, abs=1e-12)
        assert e / length == pytest.approx(0.2864, abs=1e-4)

    def test_all_unknown_path(self):
        g = grid_from_rows(["?????"])
        e, length = path_entropy(g, [(x, 0) for x in range(5)])
        assert e / length == 1.0

    def test_single_cell(self):
        g = grid_from_rows(["?"])
        e, length = path_entropy(g, [(0, 0)])
        assert (e, length) == (1.0, 1)

    def test_empty_path_rejected(self):
        g = grid_from_rows(["."])
        with pytest.raises(ValueError, match="no path"):
            path_entropy(g, [])

    def test_equals_per_cell_loop(self):
        # reference: one cell_entropy per cell, summed left to right
        p_of = {UNKNOWN: 0.5, FREE: 0.05, OCCUPIED: 0.95}
        rng = np.random.RandomState(11)
        for _ in range(50):
            cells = rng.choice([UNKNOWN, FREE, OCCUPIED], size=(6, 9)).astype(np.int8)
            g = OccupancyGrid(1.0, 0.0, 0.0, 9, 6, cells)
            path = [(int(rng.randint(9)), int(rng.randint(6)))
                    for _ in range(rng.randint(1, 40))]
            want = 0.0
            for cx, cy in path:
                want += cell_entropy(p_of[int(cells[cy, cx])])
            assert path_entropy(g, path) == (want, len(path))


class TestUtilityParams:
    @pytest.mark.parametrize("name", ["decay_rate", "u1_weight"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf,
                                       pytest.param(10**400, id="int_too_large_for_float")])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(ValueError, match="finite"):
            UtilityParams(**{name: value})


class TestDecay:
    def test_zero_distance(self):
        assert decay(0.0, UtilityParams()) == 1.0

    def test_e_minus_one(self):
        assert decay(10.0, UtilityParams(decay_rate=0.1)) == pytest.approx(
            math.exp(-1.0), abs=1e-12
        )

    def test_strictly_decreasing(self):
        p = UtilityParams(decay_rate=0.3)
        values = [decay(d, p) for d in (0.0, 0.5, 1.0, 2.0, 5.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            decay(-1.0, UtilityParams())


class TestU2:
    def test_unknown_path_kills_first_term(self):
        assert u2(5.0, 5, 0.9, 0.5) == pytest.approx(0.5)

    def test_known_path_max(self):
        assert u2(0.0, 10, 1.0, 0.0) == pytest.approx(1.0)

    def test_plug_in(self):
        assert u2(3.0, 10, 0.5, 0.3679) == pytest.approx(0.7179, abs=1e-4)

    def test_range(self):
        for rho in (0.0, 0.5, 1.0):
            for gamma in (0.05, 0.5, 1.0):
                for ratio in (0.0, 0.3, 1.0):
                    v = u2(ratio * 8, 8, rho, gamma)
                    assert 0.0 < v <= 2.0


def two_wing_setup():
    """Robot in the middle of a known corridor; unknown space on both ends."""
    g = grid_from_rows([
        "????" + "." * 12 + "????",
    ] * 3)
    graph = PoseGraph()
    params = GraphBuildParams()
    extend_trajectory(graph, (10.0, 1.5, 0.0), params)
    return g, graph, params


class TestScoreCandidates:
    def paths_for(self, grid, pose, cands):
        return plan_many(grid, pose, cands)

    def test_single_candidate_rho_one(self):
        g, graph, gp = two_wing_setup()
        pose = (10.0, 1.5, 0.0)
        cand = [(14.5, 1.5)]
        scores = score_candidates(pose, g, graph, cand,
                                  self.paths_for(g, pose, cand), UtilityParams(), gp)
        assert len(scores) == 1
        assert scores[0].rho == 1.0
        assert math.isfinite(scores[0].reward)

    def test_nearer_equal_candidate_wins_on_gamma(self):
        g, graph, gp = two_wing_setup()
        pose = (6.0, 1.5, 0.0)
        near = (4.5, 1.5)
        far = (15.5, 1.5)
        scores = score_candidates(pose, g, graph, [near, far],
                                  self.paths_for(g, pose, [near, far]),
                                  UtilityParams(), gp)
        # both paths are pure corridor chains: equal gains, rho 1 each;
        # entropy differs only mildly, gamma dominates
        assert scores[0].gamma > scores[1].gamma

    def test_scores_only_the_given_paths(self):
        # the caller drops the walled-off candidate before scoring; rho is
        # normalized over the reachable one alone
        g = grid_from_rows([
            "....#?",
            "....#?",
            "....##",
        ])
        graph = PoseGraph()
        gp = GraphBuildParams()
        extend_trajectory(graph, (0.5, 1.5, 0.0), gp)
        pose = (0.5, 1.5, 0.0)
        cands = [(2.5, 1.5), (5.5, 0.5)]
        paths = self.paths_for(g, pose, cands)
        assert paths[1] is None
        scores = score_candidates(pose, g, graph, cands[:1], paths[:1],
                                  UtilityParams(), gp)
        assert len(scores) == 1
        assert scores[0].path is paths[0]
        assert scores[0].rho == 1.0
        assert math.isfinite(scores[0].reward)

    def test_no_candidates_raises(self):
        g, graph, gp = two_wing_setup()
        with pytest.raises(ValueError, match="no candidates"):
            score_candidates((10.0, 1.5, 0.0), g, graph, [], [], UtilityParams(), gp)

    def test_deterministic(self):
        g, graph, gp = two_wing_setup()
        pose = (10.0, 1.5, 0.0)
        cands = [(4.5, 1.5), (15.5, 1.5)]
        a = score_candidates(pose, g, graph, cands,
                             self.paths_for(g, pose, cands), UtilityParams(), gp)
        b = score_candidates(pose, g, graph, cands,
                             self.paths_for(g, pose, cands), UtilityParams(), gp)
        assert [s.reward for s in a] == [s.reward for s in b]


class TestRewardMatrix:
    """The scores' rewards become select_goal's rewards, one per candidate."""

    def test_rows_aligned_with_candidates(self):
        g, graph, gp = two_wing_setup()
        pose = (10.0, 1.5, 0.0)
        cands = [(4.5, 1.5), (12.5, 1.5),
                 (15.5, 1.5)]
        paths = plan_many(g, pose, cands)
        scores = score_candidates(pose, g, graph, cands, paths, UtilityParams(), gp)
        assert [s.point for s in scores] == cands
        assert [s.path for s in scores] == paths
        assert all(math.isfinite(s.reward) for s in scores)

    def test_argmax_invariant_under_constant_shift(self):
        g, graph, gp = two_wing_setup()
        pose = (6.0, 1.5, 0.0)
        cands = [(4.5, 1.5), (15.5, 1.5)]
        scores = score_candidates(pose, g, graph, cands,
                                  plan_many(g, pose, cands),
                                  UtilityParams(), gp)
        rewards = [s.reward for s in scores]
        base = max(range(len(rewards)), key=lambda i: rewards[i])
        shifted = [r + 17.3 for r in rewards]
        assert max(range(len(shifted)), key=lambda i: shifted[i]) == base

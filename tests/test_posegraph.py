import itertools
import math
import time

import numpy as np
import pytest

from mrexplore.posegraph import (
    LOOP_CLOSURE,
    ODOMETRY,
    Edge,
    GraphBuildParams,
    PoseGraph,
    base_log_spanning_trees,
    extend_trajectory,
    log_spanning_trees,
    normalize_gains,
    trajectory_gain,
    weighted_laplacian,
)


def spanning_tree_weight_sum(n_nodes, edges):
    """Brute-force matrix-tree oracle: sum over all spanning trees of the
    product of edge weights, by enumerating edge subsets of size n-1."""
    if n_nodes == 1:
        return 1.0
    total = 0.0
    for subset in itertools.combinations(range(len(edges)), n_nodes - 1):
        parent = list(range(n_nodes))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        acyclic = True
        for ei in subset:
            ra, rb = find(edges[ei][0]), find(edges[ei][1])
            if ra == rb:
                acyclic = False
                break
            parent[ra] = rb
        if acyclic:
            w = 1.0
            for ei in subset:
                w *= edges[ei][2]
            total += w
    return total


def graph_of(n_nodes, edges):
    nodes = [(float(i), 0.0, 0.0) for i in range(n_nodes)]
    return PoseGraph(nodes, [Edge(a, b, w) for a, b, w in edges])


def random_connected_graph(rng, max_nodes=7):
    n = rng.randint(2, max_nodes + 1)
    edges = []
    for b in range(1, n):  # random spanning tree first
        a = rng.randint(0, b)
        edges.append((a, b, rng.uniform(0.1, 10.0)))
    extra = rng.randint(0, n)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
             if not any(e[0] == i and e[1] == j for e in edges)]
    rng.shuffle(pairs)
    for a, b in pairs[:extra]:
        edges.append((a, b, rng.uniform(0.1, 10.0)))
    return n, edges


class TestGraphBuildParams:
    @pytest.mark.parametrize("name", ["node_spacing", "loop_closure_radius",
                                      "odometry_weight", "loop_weight"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(ValueError, match="finite"):
            GraphBuildParams(**{name: value})


class TestLaplacian:
    def test_single_edge(self):
        lap = weighted_laplacian(graph_of(2, [(0, 1, 2.0)]))
        assert np.allclose(lap, [[2, -2], [-2, 2]])

    def test_triangle(self):
        lap = weighted_laplacian(graph_of(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)]))
        assert np.allclose(np.diag(lap), [2, 2, 2])
        assert np.allclose(lap - np.diag(np.diag(lap)), -1 + np.eye(3))

    def test_star_weights(self):
        lap = weighted_laplacian(
            graph_of(4, [(0, 1, 1), (0, 2, 2), (0, 3, 3)])
        )
        assert lap[0, 0] == 6.0

    def test_row_sums_zero_and_symmetric(self):
        rng = np.random.RandomState(0)
        for _ in range(20):
            n, edges = random_connected_graph(rng)
            lap = weighted_laplacian(graph_of(n, edges))
            assert np.allclose(lap.sum(axis=1), 0.0, atol=1e-12)
            assert np.allclose(lap, lap.T)


class TestSpanningTrees:
    def test_tree_has_exactly_one(self):
        chain = graph_of(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
        assert log_spanning_trees(chain) == pytest.approx(0.0, abs=1e-12)

    def test_triangle_ln3(self):
        g = graph_of(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
        assert log_spanning_trees(g) == pytest.approx(math.log(3.0), abs=1e-12)

    def test_square_ln4(self):
        g = graph_of(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)])
        assert log_spanning_trees(g) == pytest.approx(math.log(4.0), abs=1e-12)

    def test_disconnected_raises(self):
        g = graph_of(4, [(0, 1, 1), (2, 3, 1)])
        with pytest.raises(ValueError, match="spanning trees"):
            log_spanning_trees(g)

    def test_single_node(self):
        assert log_spanning_trees(PoseGraph([(0, 0, 0)], [])) == 0.0

    def test_oracle_equivalence_100_random_graphs(self):
        rng = np.random.RandomState(123)
        t0 = time.time()
        for case in range(100):
            n, edges = random_connected_graph(rng)
            got = math.exp(log_spanning_trees(graph_of(n, edges)))
            want = spanning_tree_weight_sum(n, edges)
            assert got == pytest.approx(want, rel=1e-6), (case, n, edges)
        assert time.time() - t0 < 10.0

    def test_adding_edge_never_decreases(self):
        rng = np.random.RandomState(77)
        for _ in range(30):
            n, edges = random_connected_graph(rng)
            base = log_spanning_trees(graph_of(n, edges))
            a, b = rng.randint(0, n), rng.randint(0, n)
            if a == b:
                continue
            more = edges + [(min(a, b), max(a, b), rng.uniform(0.1, 5.0))]
            assert log_spanning_trees(graph_of(n, more)) >= base - 1e-9

    def test_relabel_invariance(self):
        rng = np.random.RandomState(31)
        for _ in range(20):
            n, edges = random_connected_graph(rng)
            perm = rng.permutation(n)
            relabeled = [(min(perm[a], perm[b]), max(perm[a], perm[b]), w)
                         for a, b, w in edges]
            assert log_spanning_trees(graph_of(n, edges)) == pytest.approx(
                log_spanning_trees(graph_of(n, relabeled)), rel=1e-9
            )


class TestExtendTrajectory:
    def params(self, **kw):
        defaults = dict(node_spacing=1.0, loop_closure_radius=2.0,
                        odometry_weight=1.0, loop_weight=2.0)
        defaults.update(kw)
        return GraphBuildParams(**defaults)

    def test_first_pose(self):
        g = extend_trajectory(PoseGraph(), (0, 0, 0), self.params())
        assert g.node_count == 1
        assert g.edges == []

    def test_straight_line(self):
        g = PoseGraph()
        for i in range(11):
            extend_trajectory(g, (float(i), 0.0, 0.0), self.params())
        assert g.node_count == 11
        assert len(g.edges) == 10
        assert all(e.kind == ODOMETRY for e in g.edges)

    def test_below_spacing_ignored(self):
        g = extend_trajectory(PoseGraph(), (0, 0, 0), self.params())
        extend_trajectory(g, (0.5, 0.0, 0.0), self.params())
        assert g.node_count == 1

    def test_square_loop_closes_once_to_start(self):
        g = PoseGraph()
        waypoints = (
            [(x, 0.0) for x in range(6)]
            + [(5.0, float(y)) for y in range(1, 6)]
            + [(float(x), 5.0) for x in range(4, -1, -1)]
            + [(0.0, float(y)) for y in range(4, 0, -1)]
        )
        for x, y in waypoints:
            extend_trajectory(g, (x, y, 0.0), self.params(loop_closure_radius=1.2))
        loops = [e for e in g.edges if e.kind == LOOP_CLOSURE]
        assert len(loops) == 1
        assert loops[0].node_a == 0
        assert loops[0].weight == 2.0

    def test_loop_weight_and_nearest_prior(self):
        g = PoseGraph()
        p = self.params(loop_closure_radius=3.0, loop_weight=5.0)
        for x in range(6):
            extend_trajectory(g, (float(x), 0.0, 0.0), p)
        extend_trajectory(g, (1.0, 1.0, 0.0), p)
        # revisit candidates are nodes 0..2; node 1 at (1,0) is nearest
        loops = [e for e in g.edges if e.kind == LOOP_CLOSURE]
        assert len(loops) == 1
        assert loops[0].node_a == 1
        assert loops[0].weight == 5.0


class TestTrajectoryGain:
    def params(self):
        return GraphBuildParams(node_spacing=1.0, loop_closure_radius=1.5,
                                odometry_weight=1.0, loop_weight=1.0)

    def chain(self, n):
        g = PoseGraph()
        for i in range(n):
            extend_trajectory(g, (float(i), 0.0, 0.0), self.params())
        return g

    def test_dangling_chain_zero_gain(self):
        g = self.chain(3)
        waypoints = [(3.0, 0.0), (4.0, 0.0), (5.0, 0.0)]
        assert trajectory_gain(g, waypoints, self.params(),
                               base_log_spanning_trees(g)) == pytest.approx(0.0, abs=1e-9)

    def test_closing_triangle_ln3(self):
        # 2-node chain; one new node near node 0 closes a unit triangle
        g = self.chain(2)
        gain = trajectory_gain(g, [(0.5, 1.0)], self.params(),
                               base_log_spanning_trees(g))
        assert gain == pytest.approx(math.log(3.0), abs=1e-9)
        assert g.node_count == 2  # hypothetical extension does not mutate

    def test_closing_square_ln4(self):
        g = self.chain(3)
        gain = trajectory_gain(g, [(2.0, 1.0), (0.0, 1.0)], self.params(),
                               base_log_spanning_trees(g))
        # oracle: before 1 tree; after, brute force over the produced graph
        hypo = g.copy()
        for w in [(2.0, 1.0), (0.0, 1.0)]:
            extend_trajectory(hypo, (w[0], w[1], 0.0), self.params())
        want = spanning_tree_weight_sum(
            hypo.node_count, [(e.node_a, e.node_b, e.weight) for e in hypo.edges]
        )
        assert gain == pytest.approx(math.log(want), abs=1e-9)

    def test_empty_path_rejected(self):
        g = self.chain(2)
        with pytest.raises(ValueError):
            trajectory_gain(g, [], self.params(), base_log_spanning_trees(g))


class TestNormalizeGains:
    def test_single_candidate(self):
        assert normalize_gains([3.7]) == [1.0]

    def test_all_equal(self):
        assert normalize_gains([0.0, 0.0, 0.0]) == [1.0, 1.0, 1.0]

    def test_max_normalized(self):
        assert normalize_gains([1.0, 2.0, 4.0]) == [0.25, 0.5, 1.0]

    def test_range(self):
        rng = np.random.RandomState(5)
        for _ in range(20):
            gains = list(rng.uniform(0, 3, size=rng.randint(1, 8)))
            rhos = normalize_gains(gains)
            assert all(0.0 <= r <= 1.0 for r in rhos)


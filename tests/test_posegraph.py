import itertools
import math
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mrexplore import posegraph
from mrexplore.grid import FREE, OCCUPIED, UNKNOWN, OccupancyGrid
from mrexplore.planner import GridPath, plan_many
from mrexplore.posegraph import (
    GainBase,
    GraphBuildParams,
    PoseGraph,
    extend_trajectory,
    log_spanning_trees,
    normalize_gains,
    trajectory_gain,
    weighted_laplacian,
)
from mrexplore.utility import path_gains

from conftest import grid_from_rows


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
    nodes = [(float(i), 0.0) for i in range(n_nodes)]
    return PoseGraph(nodes, list(edges))


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
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf,
                                       pytest.param(10**400, id="int_too_large_for_float")])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(ValueError, match="finite"):
            GraphBuildParams(**{name: value})

    def test_infinite_loop_closure_gap_rejected(self):
        # extend_trajectory takes int() of the gap in nodes
        with pytest.raises(ValueError, match="node_spacing must be finite"):
            GraphBuildParams(node_spacing=1e-300, loop_closure_radius=1e10)


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
        assert log_spanning_trees(PoseGraph([(0, 0)], [])) == 0.0

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
        assert g.edges == [(i - 1, i, 1.0) for i in range(1, 11)]
        assert g.loop_closure_count() == 0

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
        # an odometry edge joins consecutive ids, a loop closure does not
        loops = [(a, b, w) for a, b, w in g.edges if b - a >= 2]
        assert len(loops) == 1
        assert loops[0][0] == 0
        assert loops[0][2] == 2.0
        assert g.loop_closure_count() == 1

    @pytest.mark.parametrize("pose", [(math.nan, 0.0, 0.0), (0.0, math.inf, 0.0),
                                      (0.0, 0.0, -math.inf), (10**400, 0.0, 0.0)])
    @pytest.mark.parametrize("first", [True, False])
    def test_non_finite_pose_rejected(self, pose, first):
        g = PoseGraph()
        if not first:
            extend_trajectory(g, (0.0, 0.0, 0.0), self.params())
        before = (list(g.nodes), list(g.edges))
        with pytest.raises(ValueError, match="pose"):
            extend_trajectory(g, pose, self.params())
        assert (g.nodes, g.edges) == before

    def test_loop_weight_and_nearest_prior(self):
        g = PoseGraph()
        p = self.params(loop_closure_radius=3.0, loop_weight=5.0)
        for x in range(6):
            extend_trajectory(g, (float(x), 0.0, 0.0), p)
        extend_trajectory(g, (1.0, 1.0, 0.0), p)
        # revisit candidates are nodes 0..2; node 1 at (1,0) is nearest
        loops = [(a, b, w) for a, b, w in g.edges if b - a >= 2]
        assert len(loops) == 1
        assert loops[0][0] == 1
        assert loops[0][2] == 5.0


def gain_alone(graph, waypoints, params):
    """The gain of one path scored alone: path_gains on a one-path list."""
    return path_gains(graph, [GridPath([], 0.0, list(waypoints))], params)[0]


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
        assert gain_alone(g, waypoints, self.params()) == pytest.approx(0.0, abs=1e-9)

    def test_closing_triangle_ln3(self):
        # 2-node chain; one new node near node 0 closes a unit triangle
        g = self.chain(2)
        gain = gain_alone(g, [(0.5, 1.0)], self.params())
        assert gain == pytest.approx(math.log(3.0), abs=1e-9)
        assert g.node_count == 2  # hypothetical extension does not mutate

    def test_closing_square_ln4(self):
        g = self.chain(3)
        gain = gain_alone(g, [(2.0, 1.0), (0.0, 1.0)], self.params())
        # oracle: before 1 tree; after, brute force over the produced graph
        hypo = PoseGraph(list(g.nodes), list(g.edges))
        for w in [(2.0, 1.0), (0.0, 1.0)]:
            extend_trajectory(hypo, (w[0], w[1], 0.0), self.params())
        want = spanning_tree_weight_sum(hypo.node_count, hypo.edges)
        assert gain == pytest.approx(math.log(want), abs=1e-9)

    def test_empty_path_rejected(self):
        g = self.chain(2)
        with pytest.raises(ValueError):
            gain_alone(g, [], self.params())


def copy_and_extend(graph, waypoints, params):
    """The (nodes, edges) of a copy of the graph extended along the
    waypoints the direct way, as a reference: waypoint by waypoint, with a
    scalar scan over every prior node for the loop closure."""
    nodes, edges = list(graph.nodes), list(graph.edges)
    min_gap = int(params.loop_closure_radius / params.node_spacing) + 1
    for x, y in waypoints:
        if not nodes:
            nodes.append((x, y))
            continue
        lx, ly = nodes[-1]
        if math.hypot(x - lx, y - ly) < params.node_spacing:
            continue
        new_id = len(nodes)
        nodes.append((x, y))
        edges.append((new_id - 1, new_id, params.odometry_weight))
        best = None
        for nid in range(new_id - min_gap + 1):
            d = math.hypot(x - nodes[nid][0], y - nodes[nid][1])
            if d <= params.loop_closure_radius and (best is None or d < best[0]):
                best = (d, nid)
        if best is not None:
            edges.append((best[1], new_id, params.loop_weight))
    return nodes, edges


def copy_and_extend_gain(graph, waypoints, params):
    """trajectory_gain the direct way, as a reference: copy_and_extend,
    build the Laplacian edge by edge, and difference the log counts."""

    def log_count(n, edge_list):
        if n <= 1:
            return 0.0
        lap = np.zeros((n, n))
        for a, b, w in edge_list:
            lap[a, a] += w
            lap[b, b] += w
            lap[a, b] -= w
            lap[b, a] -= w
        return float(np.linalg.slogdet(lap[1:, 1:])[1])

    nodes, edges = copy_and_extend(graph, waypoints, params)
    return log_count(len(nodes), edges) - log_count(graph.node_count, graph.edges)


# weights whose sums depend on the order of addition ((o + o) + l differs
# from (o + l) + o), so that a Laplacian built in another order differs
# in its low bits
GAIN_PARAMS = {
    "default": GraphBuildParams(1.0, 2.0, 0.1, 0.6),
    "radius_eq_spacing": GraphBuildParams(1.0, 1.0, 0.1, 0.6),
    "half_spacing": GraphBuildParams(0.5, 1.5, 0.3, 0.7),
    # np.hypot(2.125, 3.375) is one ulp above this radius; math.hypot is on it
    "ulp_radius": GraphBuildParams(1.0, math.hypot(2.125, 3.375), 0.1, 0.6),
}
STEP = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0])


@st.composite
def lattice_walks(draw, min_size, max_size):
    """A walk on the 0.5 m lattice: exact sums, so hops of exactly
    node_spacing, candidates at exactly the radius and equidistant
    candidates all come up."""
    x, y = draw(STEP) + 2.0, draw(STEP) + 2.0
    walk = []
    for dx, dy in draw(st.lists(st.tuples(STEP, STEP), min_size=min_size,
                                max_size=max_size)):
        x, y = x + dx, y + dy
        walk.append((x, y))
    return walk


class TestGainMatchesCopyAndExtend:
    @settings(max_examples=300)
    @given(st.sampled_from(sorted(GAIN_PARAMS)), lattice_walks(0, 40),
           lattice_walks(1, 30))
    # empty and one-node bases
    @example("default", [], [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)])
    @example("default", [(3.0, 3.0)], [(2.5, 3.0), (2.0, 3.0), (1.0, 3.0)])
    # a revisit tied between ids 0 and 1: the lowest id wins
    @example("default", [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0),
                         (4.0, 0.0)], [(0.5, 1.0)])
    # ids stop at new_id - min_gap: node 0 is the only candidate, and the
    # nearer node 1 is one id too recent
    @example("default", [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)], [(1.0, 1.0)])
    @example("default", [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)], [(0.0, 1.0)])
    # a loop edge lands on a base node after the new odometry edge
    @example("default", [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)],
             [(3.0, 1.0), (2.0, 1.0), (1.0, 1.0), (3.0, 2.0)])
    # candidates at exactly the radius and hops of exactly the spacing
    @example("radius_eq_spacing", [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)],
             [(0.5, 1.0), (0.0, 1.0)])
    # the only candidate is at the radius by math.hypot, one ulp past it by np.hypot
    @example("ulp_radius", [(0.0, 0.0), (10.0, 0.0), (20.0, 0.0), (30.0, 0.0)],
             [(2.125, 3.375)])
    # the same, on the tick side: the base walk's last node closes that loop
    @example("ulp_radius", [(0.0, 0.0), (10.0, 0.0), (20.0, 0.0), (30.0, 0.0),
                            (2.125, 3.375)], [(3.0, 3.0)])
    def test_bit_identical(self, name, base_walk, path):
        params = GAIN_PARAMS[name]
        graph = PoseGraph()
        for x, y in base_walk:
            extend_trajectory(graph, (x, y, 0.0), params)
        nodes, edges = list(graph.nodes), list(graph.edges)
        assert (nodes, edges) == copy_and_extend(PoseGraph(), base_walk, params)
        # a loop target is at most new_id - 2, as radius >= spacing
        assert graph.loop_closure_count() == sum(1 for a, b, _ in edges if b - a >= 2)
        assert gain_alone(graph, path, params) == copy_and_extend_gain(graph, path, params)
        assert graph.nodes == nodes and graph.edges == edges


def placement(graph, waypoints, params):
    """The (x, y) of the nodes that extending the graph along the waypoints
    would place: extend_trajectory's spacing rule, as a reference."""
    last = graph.nodes[-1] if graph.nodes else None
    placed = []
    for x, y in waypoints:
        if last is None or math.hypot(x - last[0], y - last[1]) >= params.node_spacing:
            placed.append((x, y))
            last = (x, y)
    return tuple(placed)


# one spacing, so one placement, with other radii and weights: a gain
# stored for one of them is wrong for the others
SHARED_PARAMS = {
    "default": GAIN_PARAMS["default"],
    "radius_eq_spacing": GAIN_PARAMS["radius_eq_spacing"],
    "heavier": GraphBuildParams(1.0, 2.0, 0.3, 0.7),
}


FINITE_POSES = st.lists(st.tuples(st.floats(-6.0, 6.0), st.floats(-6.0, 6.0),
                                  st.floats(-10.0, 10.0)), max_size=40)


class TestPoseGraphAppendOnly:
    """The gain memo of the simulator keys a robot's graph on its node
    count; that holds because extend_trajectory only appends."""

    @settings(max_examples=200)
    @given(st.sampled_from(sorted(GAIN_PARAMS)),
           st.one_of(FINITE_POSES, lattice_walks(0, 40).map(
               lambda walk: [(x, y, 0.0) for x, y in walk])))
    def test_prefixes_and_edge_kinds(self, name, poses):
        params = GAIN_PARAMS[name]
        g = PoseGraph()
        for pose in poses:
            nodes, edges = list(g.nodes), list(g.edges)
            extend_trajectory(g, pose, params)
            assert g.nodes[:len(nodes)] == nodes
            assert g.edges[:len(edges)] == edges
            assert g.node_count - len(nodes) in (0, 1)
            if len(g.edges) > len(edges):
                assert g.node_count == len(nodes) + 1
            odometry = [(i - 1, i, params.odometry_weight) for i in range(1, g.node_count)]
            assert [e for e in g.edges if e[1] - e[0] == 1] == odometry
            assert g.loop_closure_count() == len([e for e in g.edges if e[1] - e[0] != 1])


class TestSharedGainBase:
    @settings(max_examples=150)
    @given(lattice_walks(0, 30), st.lists(lattice_walks(1, 20), min_size=1, max_size=3),
           st.data())
    def test_memo_equals_copy_and_extend(self, base_walk, walks, data):
        # One GainBase per params serves every path of a request. The paths
        # come in a drawn order, with repeats, and with variants whose
        # waypoints differ but whose placement does not: every waypoint
        # doubled, and the last node's own position put first. Each gain
        # must equal the reference, and each base computes one log count
        # per distinct placement that places a node.
        graph = PoseGraph()
        for x, y in base_walk:
            extend_trajectory(graph, (x, y, 0.0), GAIN_PARAMS["default"])
        paths = []
        for walk in walks:
            paths += [walk, [w for w in walk for _ in range(2)]]
            if graph.nodes:
                paths.append([graph.nodes[-1]] + walk)
        jobs = [(i, name) for i in range(len(paths)) for name in SHARED_PARAMS]
        repeats = data.draw(st.lists(st.sampled_from(jobs), max_size=6))
        order = data.draw(st.permutations(jobs + repeats))
        want = {job: copy_and_extend_gain(graph, paths[job[0]], SHARED_PARAMS[job[1]])
                for job in jobs}
        bases = {name: GainBase(graph, params) for name, params in SHARED_PARAMS.items()}
        with mock.patch.object(posegraph, "_log_count", wraps=posegraph._log_count) as count:
            for i, name in order:
                base = bases[name]
                growth, = base.grow([GridPath([], 0.0, paths[i])])
                assert trajectory_gain(graph, growth, base) == want[i, name]
        distinct = {(placement(graph, paths[i], SHARED_PARAMS[name]), name)
                    for i, name in order}
        assert count.call_count == sum(1 for placed, _ in distinct if placed)


@st.composite
def tree_cases(draw):
    """A small grid of mostly Free cells at 0.5 or 1 m, a start in a Free
    cell and goal points at cell centres, some repeated: the paths of one
    plan_many call branch from one tree over the lattice walks' area."""
    w, h = draw(st.integers(2, 12)), draw(st.integers(2, 12))
    res = draw(st.sampled_from([0.5, 1.0]))
    cells = draw(arrays(np.int8, (h, w), elements=st.sampled_from(
        [FREE, FREE, FREE, UNKNOWN, OCCUPIED])))
    sx, sy = draw(st.integers(0, w - 1)), draw(st.integers(0, h - 1))
    cells[sy, sx] = FREE
    cell = st.tuples(st.integers(0, w - 1), st.integers(0, h - 1))
    goal_cells = draw(st.lists(cell, min_size=1, max_size=10))
    goal_cells += draw(st.lists(st.sampled_from(goal_cells), max_size=2))
    grid = OccupancyGrid(res, 0.0, 0.0, w, h, cells)
    return grid, _centre(sx, sy, res), [_centre(cx, cy, res) for cx, cy in goal_cells]


def _centre(cx, cy, res):
    return ((cx + 0.5) * res, (cy + 0.5) * res)


# x = 1 is a wall from y = 0 to 3, so the path from (0, 0) to (2, 0) goes up
# and around it, and its node at (2, 2) closes a loop on its own node at
# (0, 2), six ids back
AROUND_WALL = (grid_from_rows([".#...", ".#...", ".#...", ".#...", "....."]),
               (0.5, 0.5), [(2.5, 0.5), (2.5, 3.5)])
# two branches off one corridor at 0.5 m: the second and third paths share
# the first path's first four waypoints, x = 0.25 to 1.75
CORRIDOR = (grid_from_rows(["........", "###.####", "###.####"], resolution=0.5),
            (0.25, 0.25), [(3.75, 0.25), (1.75, 1.25), (1.75, 0.25)])


class TestTreeWalk:
    """path_gains walks plan_many's paths as one shortest-path tree: a path
    resumes placement after the prefix it shares with an earlier one, from
    that path's state, and reuses its nodes' loop closures. Each gain must
    be the gain of extending a copy of the graph along that path alone."""

    @settings(max_examples=200)
    @given(st.sampled_from(sorted(GAIN_PARAMS)), lattice_walks(0, 30), tree_cases())
    # a path closes a loop on one of its own nodes, on a graph and on none
    @example("default", [(4.0, 0.0), (4.0, 1.0), (4.0, 2.0)], AROUND_WALL)
    @example("default", [], AROUND_WALL)
    # an empty graph, with branches
    @example("half_spacing", [], CORRIDOR)
    # a shared prefix that ends on a placed node: from the graph's last
    # node, the paths place nodes at x = 0.75 and x = 1.75
    @example("default", [(-0.5, 0.25)], CORRIDOR)
    # duplicate goals, and a goal in the start cell: a one-waypoint path
    @example("default", [(0.0, 0.0), (1.0, 0.0)],
             (grid_from_rows(["....", "...."]), (0.5, 0.5),
              [(3.5, 1.5), (3.5, 1.5), (0.5, 0.5), (3.5, 1.5)]))
    @example("default", [], (grid_from_rows(["..", ".."]), (0.5, 0.5), [(0.5, 0.5)]))
    def test_equals_each_path_alone(self, name, base_walk, case):
        grid, start, goals = case
        params = GAIN_PARAMS[name]
        graph = PoseGraph()
        for x, y in base_walk:
            extend_trajectory(graph, (x, y, 0.0), params)
        paths = [p for p in plan_many(grid, start, goals) if p is not None]
        gains = path_gains(graph, paths, params)
        for path, gain in zip(paths, gains, strict=True):
            assert gain == copy_and_extend_gain(graph, path.waypoints, params)
            assert gain == gain_alone(graph, path.waypoints, params)

    def test_wrong_prefix_report_is_walked_whole(self):
        # a reported prefix that the paths do not share is not trusted: the
        # second path turns away from the first after one waypoint, where
        # the graph's nodes give it loop closures
        params = GAIN_PARAMS["default"]
        graph = PoseGraph()
        for y in range(6):
            extend_trajectory(graph, (-1.0, float(y), 0.0), params)
        along_x = [(float(x), 0.0) for x in range(5)]
        along_y = [(0.0, float(y)) for y in range(5)]
        paths = [GridPath([], 4.0, along_x), GridPath([], 4.0, along_y, 0, 4)]
        want = [copy_and_extend_gain(graph, p.waypoints, params) for p in paths]
        assert want[0] != want[1]
        assert path_gains(graph, paths, params) == want


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


"""Per-robot pose graph and its spanning-tree connectivity utility.

The log of the weighted spanning-tree count of the graph Laplacian is the
uncertainty proxy used to score candidate trajectories: better-connected
graphs (more/heavier loop closures) admit more spanning trees.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .grid import finite_numbers, require_finite


@dataclass(frozen=True)
class GraphBuildParams:
    node_spacing: float = 1.0
    loop_closure_radius: float = 2.0
    odometry_weight: float = 1.0
    loop_weight: float = 2.0

    def __post_init__(self):
        require_finite(self, [f.name for f in fields(self)])
        if not all(getattr(self, f.name) > 0 for f in fields(self)):
            raise ValueError("graph build parameters must be positive")
        if self.loop_closure_radius < self.node_spacing:
            raise ValueError("loop_closure_radius must be >= node_spacing")
        # loop_closure_target takes int() of this ratio
        if not math.isfinite(self.loop_closure_radius / self.node_spacing):
            raise ValueError("loop_closure_radius / node_spacing must be finite")


@dataclass
class PoseGraph:
    """Nodes are (x, y) positions with dense ids from 0; edges are
    (a, b, weight) tuples with a < b. extend_trajectory gives every node
    after the first exactly one odometry edge, (id - 1, id), so every
    other edge is a loop closure.

    The graph is append-only: extend_trajectory, its one writer, appends
    at most one node per call, together with that node's edges, and never
    changes or removes earlier ones. So the node count pins the nodes and
    the edges."""

    nodes: list[tuple[float, float]] = field(default_factory=list)
    edges: list[tuple[int, int, float]] = field(default_factory=list)

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def loop_closure_count(self) -> int:
        return len(self.edges) - max(len(self.nodes) - 1, 0)


def loop_closure_target(nodes, ids, new_id: int, params: GraphBuildParams):
    """The id that node new_id closes a loop to, or None.

    Only genuine revisits close loops, and the rule for that is an id gap,
    not a distance: the int(loop_closure_radius / node_spacing) most recent
    ids before new_id are the trajectory's own tail and are never
    candidates, however long their hops are; candidates stop at the id
    before those. ids are the ids to consider, ascending; the nearest
    of them within loop_closure_radius (by math.hypot) wins, and a tie
    keeps the lowest id. nodes maps an id to its (x, y).
    """
    last = new_id - int(params.loop_closure_radius / params.node_spacing) - 1
    radius = params.loop_closure_radius
    x, y = nodes[new_id]
    best = best_d = None
    for nid in ids:
        if nid > last:
            break
        nx, ny = nodes[nid]
        d = math.hypot(x - nx, y - ny)
        if d <= radius and (best is None or d < best_d):
            best, best_d = nid, d
    return best


def _place(last, points, start: int, spacing: float) -> list[int]:
    """The indices, from start on, of the points at which extending a graph
    whose last node sits at last, an (x, y), along points places a node:
    each point at least spacing (by math.hypot) from the node placed before
    it. A graph with no nodes first places points[0] (see GainBase.grow).
    The scan can resume after a prefix (see GainBase)."""
    lx, ly = last
    out = []
    for i, (wx, wy) in enumerate(points[start:], start):
        if math.hypot(wx - lx, wy - ly) < spacing:
            continue
        out.append(i)
        lx, ly = wx, wy
    return out


def _xy(nodes) -> np.ndarray:
    """A list of (x, y) as a 2 x n array: the x row, then the y row."""
    flat = np.fromiter(itertools.chain.from_iterable(nodes), np.float64, 2 * len(nodes))
    return flat.reshape(len(nodes), 2).T


def _near(xy: np.ndarray, new_nodes, params: GraphBuildParams) -> list[list[int]]:
    """Per new node, the ids, ascending, of the nodes whose coordinates xy
    holds (a 2 x n array) within loop_closure_radius of it. np.hypot may
    differ from math.hypot by an ulp, so this prefilter only drops nodes
    far outside the radius, and loop_closure_target decides on the
    survivors."""
    x, y = xy
    nx, ny = _xy(new_nodes)
    near = np.hypot(nx[:, None] - x, ny[:, None] - y)
    rows, cols = np.nonzero(near <= params.loop_closure_radius * (1 + 1e-9))
    cols = cols.tolist()
    bounds = np.searchsorted(rows, np.arange(len(new_nodes) + 1)).tolist()
    return [cols[a:b] for a, b in zip(bounds, bounds[1:])]


def _edges(first_id: int, targets, params: GraphBuildParams) -> list[tuple[int, int, float]]:
    """The edges of the new nodes first_id, first_id + 1, ..., given each
    one's loop-closure target or None, in creation order: per node, its
    odometry edge to its predecessor (node 0 has none), then its loop
    closure, if any. This is the graph's one edge rule."""
    out = []
    for new_id, target in enumerate(targets, first_id):
        if new_id:
            out.append((new_id - 1, new_id, params.odometry_weight))
        if target is not None:
            out.append((target, new_id, params.loop_weight))
    return out


def extend_trajectory(graph: PoseGraph, pose, params: GraphBuildParams) -> PoseGraph:
    """Append a node at the pose's (x, y) once it is node_spacing away
    from the last node; the heading is not kept.

    Every node after the first gets exactly one odometry edge, to its
    predecessor, and at most one loop-closure edge; loop_closure_count
    relies on that. The node and its edges come from _place,
    loop_closure_target and _edges, the growth rule that trajectory_gain
    scores paths with (see GainBase); one node needs no distance
    prefilter, so every earlier node is a candidate. Mutates and returns
    the graph. Raises ValueError when the pose is not three finite numbers.
    """
    if not finite_numbers(pose, 3):
        raise ValueError("pose is not three finite numbers (x, y, heading)")
    nodes = graph.nodes
    point = (pose[0], pose[1])
    if nodes and not _place(nodes[-1], [point], 0, params.node_spacing):
        return graph
    nodes.append(point)
    new_id = len(nodes) - 1
    target = loop_closure_target(nodes, range(new_id), new_id, params)
    graph.edges += _edges(new_id, [target], params)
    return graph


# per edge (a, b, w), the entries it adds to and its signs: w to (a, a) and
# (b, b), -w to (a, b) and (b, a), in that order
_ROWS, _COLS = np.array([0, 1, 0, 1]), np.array([0, 1, 1, 0])
_SIGNS = np.array([1.0, 1.0, -1.0, -1.0])


def _add_edges(lap: np.ndarray, edges) -> None:
    """Add the (a, b, w) edges to the Laplacian. np.add.at is unbuffered
    and goes in index order, so each entry gets its additions in edge
    order, as an edge-by-edge loop would."""
    a, b, w = zip(*edges)
    ab = np.array((a, b), dtype=np.intp).T
    np.add.at(lap, (ab[:, _ROWS].ravel(), ab[:, _COLS].ravel()),
              np.multiply.outer(np.asarray(w, dtype=np.float64), _SIGNS).ravel())


def weighted_laplacian(graph: PoseGraph) -> np.ndarray:
    n = graph.node_count
    if n == 0:
        raise ValueError("graph has no nodes")
    lap = np.zeros((n, n), dtype=np.float64)
    if graph.edges:
        _add_edges(lap, graph.edges)
    return lap


def _log_count(lap: np.ndarray) -> float:
    """Natural log of the weighted spanning-tree count of a full Laplacian,
    via its reduced form (matrix-tree theorem). One node counts as one tree."""
    if lap.shape[0] == 1:
        return 0.0
    sign, logdet = np.linalg.slogdet(lap[1:, 1:])
    if sign <= 0 or not math.isfinite(logdet):
        raise ValueError("zero spanning trees: graph is disconnected")
    return float(logdet)


def log_spanning_trees(graph: PoseGraph) -> float:
    """Natural log of the weighted spanning-tree count, via the reduced
    Laplacian (matrix-tree theorem). A single node counts as one tree."""
    return _log_count(weighted_laplacian(graph))


class GainBase:
    """What trajectory_gain needs of a graph, built once for every path
    scored on it in one request with one GraphBuildParams: the params, the
    log count (0 for a graph with no nodes), the full weighted Laplacian,
    and the nodes, also as a 2 x n array of coordinates.

    grow(paths) walks a request's paths as one shortest-path tree, and
    trajectory_gain scores each path's growth. Together they give, bit for
    bit, the gain of extending a copy of the graph along each path alone
    with extend_trajectory and differencing the log counts:
    - placement (_place) is a left-to-right scan whose state after a point
      is the last node alone, which depends only on the points up to
      there; so a path that repeats an earlier path's first points may
      resume the scan after them from that path's last node there;
    - a node's edges (_edges) depend only on the graph and the nodes
      placed before it, so the shared prefix's nodes keep their loop
      closures;
    - the graph's edges are a prefix of the extended graph's edge list, so
      adding only the new edges, in creation order, to the base Laplacian
      gives every entry the same float additions as weighted_laplacian
      would. The graph is neither copied nor changed.

    It also holds the request's memo of gains, keyed on the placed nodes:
    the gain depends on the path only through the nodes it places, so
    paths of one request that place the same nodes share one computation.
    The memo lives and dies with the GainBase, and grow keeps nothing;
    nothing is kept across requests."""

    def __init__(self, graph: PoseGraph, params: GraphBuildParams):
        n = graph.node_count
        self.params = params
        self.laplacian = weighted_laplacian(graph) if n else np.zeros((0, 0))
        self.log_count = _log_count(self.laplacian) if n else 0.0
        self.nodes = graph.nodes
        self.xy = _xy(graph.nodes)
        self.memo: dict = {}

    def grow(self, paths) -> list[tuple[list, list]]:
        """Per path, what extending the graph along its waypoints adds: the
        placed nodes, by _place, and each one's loop-closure target or
        None, by loop_closure_target. Raises ValueError for a path with no
        waypoints.

        A path whose extends is the position of an earlier path whose first
        shared waypoints equal its own (see GridPath) walks only the tree
        edge past them: it keeps that path's nodes placed before waypoint
        shared, with their targets, and resumes _place from its last one.
        Any other path (extends None, or a report that fails that test) is
        walked whole. One distance prefilter, against the graph's nodes,
        serves the new nodes of every path; a new node's candidates among
        its path's own nodes all go to loop_closure_target."""
        nodes, params = self.nodes, self.params
        n0 = len(nodes)
        walks = []  # per path: (waypoint index of each node, the nodes, count kept)
        for i, path in enumerate(paths):
            points, parent, shared = path.waypoints, path.extends, path.shared
            if not points:
                raise ValueError("empty candidate path")
            if (parent is not None and 0 <= parent < i and 0 < shared <= len(points)
                    and paths[parent].waypoints[:shared] == points[:shared]):
                idx, placed, _ = walks[parent]
                kept = bisect.bisect_left(idx, shared)
                idx, placed, start = idx[:kept], placed[:kept], shared
            elif nodes:
                idx, placed, kept, start = [], [], 0, 0
            else:
                idx, placed, kept, start = [0], [points[0]], 0, 1
            new = _place(placed[-1] if placed else nodes[-1], points, start,
                         params.node_spacing)
            idx += new
            placed += [points[k] for k in new]
            walks.append((idx, placed, kept))

        fresh = [p for _, placed, kept in walks for p in placed[kept:]]
        near = iter(_near(self.xy, fresh, params) if n0 and fresh else [()] * len(fresh))
        gap = int(params.loop_closure_radius / params.node_spacing)
        out = []
        for (_, placed, kept), path in zip(walks, paths):
            targets = out[path.extends][1][:kept] if kept else []
            if kept < len(placed):
                all_nodes = nodes + placed
                for new_id in range(n0 + kept, n0 + len(placed)):
                    ids = next(near)
                    if new_id - gap > n0:  # the path's own nodes are candidates too
                        ids = itertools.chain(ids, range(n0, new_id - gap))
                    targets.append(loop_closure_target(all_nodes, ids, new_id, params))
            out.append((placed, targets))
        return out


def trajectory_gain(graph: PoseGraph, growth, base: GainBase) -> float:
    """Predicted log-gain in spanning trees from extending the graph by
    growth, what base.grow gave for one path, where base is
    GainBase(graph, params). Equal, bit for bit, to extending a copy of
    the graph along the path and differencing the log counts (see
    GainBase). A growth that places the same nodes as one scored earlier
    on the same base gets that gain from base's memo, so a request takes
    one slogdet per distinct placement. graph is not read: the base holds
    what the gain needs of it."""
    placed, targets = growth
    if not placed:  # the graph as it is
        return 0.0
    key = tuple(placed)
    if key in base.memo:
        return base.memo[key]
    n0 = len(base.nodes)
    n = n0 + len(placed)
    lap = np.zeros((n, n), dtype=np.float64)
    lap[:n0, :n0] = base.laplacian
    edges = _edges(n0, targets, base.params)
    if edges:
        _add_edges(lap, edges)
    gain = base.memo[key] = _log_count(lap) - base.log_count
    return gain


def normalize_gains(gains) -> list[float]:
    """Max-normalize gains into [0, 1]; all-equal gain sets map to all 1."""
    gains = list(gains)
    if not gains:
        return []
    top = max(gains)
    if top <= 0 or all(g == gains[0] for g in gains):
        return [1.0] * len(gains)
    return [max(0.0, g) / top for g in gains]


"""Per-robot pose graph and its spanning-tree connectivity utility.

The log of the weighted spanning-tree count of the graph Laplacian is the
uncertainty proxy used to score candidate trajectories: better-connected
graphs (more/heavier loop closures) admit more spanning trees.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .grid import require_finite


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
    other edge is a loop closure."""

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


def _place(nodes, points, spacing: float) -> list[tuple[float, float]]:
    """The (x, y) of the nodes that extending a graph whose nodes are
    nodes along points places: the first point if there are no nodes, then
    each point at least spacing (by math.hypot) from the last node."""
    lx, ly = nodes[-1] if nodes else points[0]
    placed = [] if nodes else [(lx, ly)]
    for wx, wy in points:
        if math.hypot(wx - lx, wy - ly) < spacing:
            continue
        placed.append((wx, wy))
        lx, ly = wx, wy
    return placed


def _xy(nodes) -> np.ndarray:
    """A list of (x, y) as a 2 x n array: the x row, then the y row."""
    flat = np.fromiter(itertools.chain.from_iterable(nodes), np.float64, 2 * len(nodes))
    return flat.reshape(len(nodes), 2).T


def _new_edges(nodes, placed, params: GraphBuildParams, x, y) -> list:
    """The edges that placing the nodes placed after nodes adds, in
    creation order: per new node, an odometry edge to its predecessor (the
    graph's first node has none), then its loop closure, if any. x and y
    are the coordinates of nodes + placed as arrays."""
    # np.hypot may differ from math.hypot by an ulp, so numpy only drops
    # nodes far outside the radius and loop_closure_target decides on the
    # survivors
    n0 = len(nodes)
    near = np.hypot(x[n0:, None] - x, y[n0:, None] - y)
    rows, cols = np.nonzero(near <= params.loop_closure_radius * (1 + 1e-9))
    cols = cols.tolist()
    row_start = np.searchsorted(rows, np.arange(len(placed) + 1)).tolist()

    all_nodes = nodes + placed
    edges = []
    for new_id in range(max(n0, 1), n0 + len(placed)):
        edges.append((new_id - 1, new_id, params.odometry_weight))
        j = new_id - n0
        target = loop_closure_target(
            all_nodes, cols[row_start[j]:row_start[j + 1]], new_id, params)
        if target is not None:
            edges.append((target, new_id, params.loop_weight))
    return edges


def extend_trajectory(graph: PoseGraph, pose, params: GraphBuildParams) -> PoseGraph:
    """Append a node at the pose's (x, y) once it is node_spacing away
    from the last node; the heading is not kept.

    Every node after the first gets exactly one odometry edge, to its
    predecessor, and at most one loop-closure edge; loop_closure_count
    relies on that. The edges come from _new_edges, the rule that
    trajectory_gain scores paths with. Mutates and returns the graph.
    """
    placed = _place(graph.nodes, [pose[:2]], params.node_spacing)
    if placed:
        xy = _xy(graph.nodes + placed)
        graph.edges += _new_edges(graph.nodes, placed, params, *xy)
        graph.nodes += placed
    return graph


def _add_edges(lap: np.ndarray, a, b, w) -> None:
    """Add the edges a[i]-b[i] of weight w[i] to the Laplacian. np.add.at
    is unbuffered and goes in index order, so each entry gets its
    additions in edge order, as an edge-by-edge loop would."""
    a, b, w = np.asarray(a), np.asarray(b), np.asarray(w, dtype=np.float64)
    rows = np.stack((a, b, a, b), axis=1).ravel()
    cols = np.stack((a, b, b, a), axis=1).ravel()
    np.add.at(lap, (rows, cols), np.stack((w, w, -w, -w), axis=1).ravel())


def weighted_laplacian(graph: PoseGraph) -> np.ndarray:
    n = graph.node_count
    if n == 0:
        raise ValueError("graph has no nodes")
    lap = np.zeros((n, n), dtype=np.float64)
    if graph.edges:
        _add_edges(lap, *zip(*graph.edges))
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
    scored on it in one request: the log count (0 for a graph with no
    nodes), the full weighted Laplacian and the node coordinates as a
    2 x n array.

    It also holds the request's memo of gains, keyed on the placed nodes
    and the GraphBuildParams: the gain depends on the path only through
    the nodes it places, so paths of one request that place the same nodes
    share one computation. The memo lives and dies with the GainBase;
    nothing is kept across requests."""

    def __init__(self, graph: PoseGraph):
        n = graph.node_count
        self.laplacian = weighted_laplacian(graph) if n else np.zeros((0, 0))
        self.log_count = _log_count(self.laplacian) if n else 0.0
        self.xy = _xy(graph.nodes)
        self.memo: dict = {}


def trajectory_gain(graph: PoseGraph, waypoints, params: GraphBuildParams,
                    base: GainBase) -> float:
    """Predicted log-gain in spanning trees from driving the waypoint list.

    The result is that of extending the graph along the waypoints with
    extend_trajectory and differencing the log counts, bit for bit: it
    places the nodes and finds their edges by extend_trajectory's own
    rule, _place then _new_edges, and adds only the new edges to base's
    Laplacian, so the graph is neither copied nor changed. base is
    GainBase(graph); a path whose placed nodes and params match an earlier
    path scored on the same base gets that path's gain from base's memo.
    """
    if not waypoints:
        raise ValueError("empty candidate path")
    nodes = graph.nodes
    placed = _place(nodes, waypoints, params.node_spacing)
    if not placed:  # the graph as it is
        return 0.0
    key = (tuple(placed), params)
    if key in base.memo:
        return base.memo[key]

    # the base edges are a prefix of the extended graph's edge list, so
    # adding the new edges to the base Laplacian in creation order gives
    # every entry the same float additions as weighted_laplacian would
    n0 = len(nodes)
    n = n0 + len(placed)
    edges = _new_edges(nodes, placed, params,
                       *np.concatenate((base.xy, _xy(placed)), axis=1))
    lap = np.zeros((n, n), dtype=np.float64)
    lap[:n0, :n0] = base.laplacian
    if edges:
        _add_edges(lap, *zip(*edges))
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


"""Per-robot pose graph and its spanning-tree connectivity utility.

The log of the weighted spanning-tree count of the graph Laplacian is the
uncertainty proxy used to score candidate trajectories: better-connected
graphs (more/heavier loop closures) admit more spanning trees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .grid import require_finite

ODOMETRY = "odometry"
LOOP_CLOSURE = "loop_closure"


@dataclass(frozen=True)
class Edge:
    node_a: int
    node_b: int
    weight: float
    kind: str = ODOMETRY


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
    """Nodes are (x, y, heading) poses with dense ids from 0."""

    nodes: list[tuple[float, float, float]] = field(default_factory=list)
    edges: list[Edge] = field(default_factory=list)

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def loop_closure_count(self) -> int:
        return sum(1 for e in self.edges if e.kind == LOOP_CLOSURE)


def loop_closure_target(nodes, ids, new_id: int, params: GraphBuildParams):
    """The id that node new_id closes a loop to, or None.

    Only genuine revisits close loops, and the rule for that is an id gap,
    not a distance: the int(loop_closure_radius / node_spacing) most recent
    ids before new_id are the trajectory's own tail and are never
    candidates, however long their hops are; candidates stop at the id
    before those. ids are the ids to consider, ascending; the nearest
    of them within loop_closure_radius (by math.hypot) wins, and a tie
    keeps the lowest id. nodes maps an id to its (x, y, heading).
    """
    last = new_id - int(params.loop_closure_radius / params.node_spacing) - 1
    radius = params.loop_closure_radius
    x, y, _ = nodes[new_id]
    best = best_d = None
    for nid in ids:
        if nid > last:
            break
        nx, ny, _ = nodes[nid]
        d = math.hypot(x - nx, y - ny)
        if d <= radius and (best is None or d < best_d):
            best, best_d = nid, d
    return best


def extend_trajectory(graph: PoseGraph, pose, params: GraphBuildParams) -> PoseGraph:
    """Append a node once the pose is node_spacing away from the last node.

    Each new node gets an odometry edge to its predecessor and at most one
    loop-closure edge, to loop_closure_target's node. Mutates and returns
    the graph.
    """
    x, y, heading = pose
    if not graph.nodes:
        graph.nodes.append((x, y, heading))
        return graph

    lx, ly, _ = graph.nodes[-1]
    if math.hypot(x - lx, y - ly) < params.node_spacing:
        return graph

    new_id = len(graph.nodes)
    graph.nodes.append((x, y, heading))
    graph.edges.append(Edge(new_id - 1, new_id, params.odometry_weight, ODOMETRY))
    target = loop_closure_target(graph.nodes, range(new_id), new_id, params)
    if target is not None:
        graph.edges.append(Edge(target, new_id, params.loop_weight, LOOP_CLOSURE))
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
        _add_edges(lap, *zip(*((e.node_a, e.node_b, e.weight) for e in graph.edges)))
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
    nodes), the full weighted Laplacian and the node x and y as arrays.

    It also holds the request's memo of gains, keyed on the placed nodes
    and the GraphBuildParams: the gain depends on the path only through
    the nodes it places, so paths of one request that place the same nodes
    share one computation. The memo lives and dies with the GainBase;
    nothing is kept across requests."""

    def __init__(self, graph: PoseGraph):
        n = graph.node_count
        self.laplacian = weighted_laplacian(graph) if n else np.zeros((0, 0))
        self.log_count = _log_count(self.laplacian) if n else 0.0
        xy = np.array([node[:2] for node in graph.nodes], dtype=np.float64)
        self.x, self.y = xy.reshape(n, 2).T
        self.memo: dict = {}


def trajectory_gain(graph: PoseGraph, waypoints, params: GraphBuildParams,
                    base: GainBase) -> float:
    """Predicted log-gain in spanning trees from driving the waypoint list.

    The result is that of extending the graph along the waypoints with
    extend_trajectory and differencing the log counts, bit for bit, but
    the graph is neither copied nor changed. base is GainBase(graph); a
    path whose placed nodes and params match an earlier path scored on the
    same base gets that path's gain from base's memo.
    """
    if not waypoints:
        raise ValueError("empty candidate path")
    nodes = graph.nodes
    n0 = len(nodes)

    # extend_trajectory's spacing rule, against the last placed node
    if nodes:
        placed = []
        lx, ly, _ = nodes[-1]
    else:
        lx, ly = waypoints[0]
        placed = [(lx, ly, 0.0)]
    spacing = params.node_spacing
    for wx, wy in waypoints:
        if math.hypot(wx - lx, wy - ly) < spacing:
            continue
        placed.append((wx, wy, 0.0))
        lx, ly = wx, wy
    if n0 and not placed:  # nothing placed: the graph as it is
        return 0.0
    key = (tuple(placed), params)
    if key in base.memo:
        return base.memo[key]

    # loop-closure candidates: np.hypot may differ from math.hypot by an
    # ulp, so numpy only drops nodes far outside the radius and
    # loop_closure_target decides on the survivors
    px, py = np.array([p[:2] for p in placed], dtype=np.float64).T
    near = np.hypot(px[:, None] - np.concatenate((base.x, px)),
                    py[:, None] - np.concatenate((base.y, py)))
    rows, cols = np.nonzero(near <= params.loop_closure_radius * (1 + 1e-9))
    cols = cols.tolist()
    row_start = np.searchsorted(rows, np.arange(len(placed) + 1)).tolist()

    n = n0 + len(placed)
    all_nodes = nodes + placed
    ends_a, ends_b, weights = [], [], []
    for new_id in range(max(n0, 1), n):
        ends_a.append(new_id - 1)
        ends_b.append(new_id)
        weights.append(params.odometry_weight)
        j = new_id - n0
        target = loop_closure_target(
            all_nodes, cols[row_start[j]:row_start[j + 1]], new_id, params)
        if target is not None:
            ends_a.append(target)
            ends_b.append(new_id)
            weights.append(params.loop_weight)

    # the base edges are a prefix of the extended graph's edge list, so
    # adding the new edges to the base Laplacian in creation order gives
    # every entry the same float additions as weighted_laplacian would
    lap = np.zeros((n, n), dtype=np.float64)
    lap[:n0, :n0] = base.laplacian
    if weights:
        _add_edges(lap, ends_a, ends_b, weights)
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


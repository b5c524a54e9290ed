"""Per-robot pose graph and its spanning-tree connectivity utility.

The log of the weighted spanning-tree count of the graph Laplacian is the
uncertainty proxy used to score candidate trajectories: better-connected
graphs (more/heavier loop closures) admit more spanning trees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

ODOMETRY = "odometry"
LOOP_CLOSURE = "loop_closure"


@dataclass(frozen=True)
class Edge:
    node_a: int
    node_b: int
    weight: float
    kind: str = ODOMETRY


@dataclass
class GraphBuildParams:
    node_spacing: float = 1.0
    loop_closure_radius: float = 2.0
    odometry_weight: float = 1.0
    loop_weight: float = 2.0

    def __post_init__(self):
        values = (self.node_spacing, self.loop_closure_radius,
                  self.odometry_weight, self.loop_weight)
        if not all(math.isfinite(v) and v > 0 for v in values):
            raise ValueError("graph build parameters must be finite and positive")
        if self.loop_closure_radius < self.node_spacing:
            raise ValueError("loop_closure_radius must be >= node_spacing")


@dataclass
class PoseGraph:
    """Nodes are (x, y, heading) poses with dense ids from 0."""

    nodes: list[tuple[float, float, float]] = field(default_factory=list)
    edges: list[Edge] = field(default_factory=list)

    def copy(self) -> "PoseGraph":
        return PoseGraph(list(self.nodes), list(self.edges))

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def loop_closure_count(self) -> int:
        return sum(1 for e in self.edges if e.kind == LOOP_CLOSURE)


def extend_trajectory(graph: PoseGraph, pose, params: GraphBuildParams) -> PoseGraph:
    """Append a node once the pose is node_spacing away from the last node.

    Each new node gets an odometry edge to its predecessor and at most one
    loop-closure edge, to the nearest prior node within
    loop_closure_radius. Only genuine revisits close loops: nodes whose
    along-chain distance is within the radius (the recent tail of the
    trajectory) are not candidates. Mutates and returns the graph.
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

    min_gap = int(params.loop_closure_radius / params.node_spacing) + 1
    best = None
    for nid in range(new_id - min_gap + 1):
        nx, ny, _ = graph.nodes[nid]
        d = math.hypot(x - nx, y - ny)
        if d <= params.loop_closure_radius and (best is None or d < best[0]):
            best = (d, nid)
    if best is not None:
        graph.edges.append(Edge(best[1], new_id, params.loop_weight, LOOP_CLOSURE))
    return graph


def weighted_laplacian(graph: PoseGraph) -> np.ndarray:
    n = graph.node_count
    if n == 0:
        raise ValueError("graph has no nodes")
    lap = np.zeros((n, n), dtype=np.float64)
    for e in graph.edges:
        a, b, w = e.node_a, e.node_b, e.weight
        lap[a, a] += w
        lap[b, b] += w
        lap[a, b] -= w
        lap[b, a] -= w
    return lap


def log_spanning_trees(graph: PoseGraph) -> float:
    """Natural log of the weighted spanning-tree count, via the reduced
    Laplacian (matrix-tree theorem). A single node counts as one tree."""
    n = graph.node_count
    if n == 0:
        raise ValueError("graph has no nodes")
    if n == 1:
        return 0.0
    reduced = weighted_laplacian(graph)[1:, 1:]
    sign, logdet = np.linalg.slogdet(reduced)
    if sign <= 0 or not math.isfinite(logdet):
        raise ValueError("zero spanning trees: graph is disconnected")
    return float(logdet)


def base_log_spanning_trees(graph: PoseGraph) -> float:
    """log_spanning_trees of the graph, 0 for a graph with no nodes: the
    base that trajectory_gain differences against."""
    return log_spanning_trees(graph) if graph.node_count else 0.0


def trajectory_gain(graph: PoseGraph, waypoints, params: GraphBuildParams,
                    base: float) -> float:
    """Predicted log-gain in spanning trees from driving the waypoint list.

    Simulates extending a copy of the graph along the waypoints with the
    same spacing and loop-closure rules, then differences the log counts.
    base is base_log_spanning_trees(graph), computed once by callers that
    score many paths on one graph.
    """
    if not waypoints:
        raise ValueError("empty candidate path")
    hypo = graph.copy()
    for wx, wy in waypoints:
        extend_trajectory(hypo, (wx, wy, 0.0), params)
    return base_log_spanning_trees(hypo) - base


def normalize_gains(gains) -> list[float]:
    """Max-normalize gains into [0, 1]; all-equal gain sets map to all 1."""
    gains = list(gains)
    if not gains:
        return []
    top = max(gains)
    if top <= 0 or all(g == gains[0] for g in gains):
        return [1.0] * len(gains)
    return [max(0.0, g) / top for g in gains]


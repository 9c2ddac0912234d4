"""Random Waxman topologies, Gabriel-graph planarization and a line-oriented file format."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable

from .geometry import Position, euclidean_distance

MAX_CONNECT_RETRIES = 100


class TopologyError(Exception):
    """Raised for malformed topologies or infeasible generator configs."""


# Grid whose diagonal is 100 length units, the default maximum node distance.
DEFAULT_GRID_SIZE = 100.0 / math.sqrt(2.0)


# Waxman's edge-probability shape theta and omega, and the edges each new node
# attempts to place (Waxman, IEEE JSAC 1988).
WAXMAN_THETA = 0.4
WAXMAN_OMEGA = 0.4
WAXMAN_LINKS_PER_NODE = 2


@dataclass(slots=True)
class TopologySpec:
    """A random topology: node placement on a square grid, then its edges.

    With ``gabriel`` set, the nodes are connected as the Gabriel graph of
    their positions. Otherwise Waxman edges are drawn: the edge probability
    between nodes at distance d is WAXMAN_THETA * exp(-d / (WAXMAN_OMEGA *
    lambda)), where lambda is the grid diagonal, the largest possible
    inter-node distance, and each new node attempts to place
    ``WAXMAN_LINKS_PER_NODE`` undirected edges toward already-placed nodes.
    """

    node_count: int = 30
    grid_size: float = DEFAULT_GRID_SIZE
    gabriel: bool = True

    def validate(self) -> None:
        # Written so that NaN fails each check.
        if not self.node_count >= 2:
            raise TopologyError("node_count must be at least 2")
        if not (0.0 < self.grid_size < math.inf):
            raise TopologyError("grid_size must be positive and finite")


@dataclass
class Topology:
    nodes: list[tuple[int, Position]]
    edges: set[tuple[int, int]]
    grid_size: float
    retries: int = 0

    _pos: dict[int, Position] = field(init=False, repr=False)
    _adj: dict[int, list[int]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._pos = {nid: pos for nid, pos in self.nodes}
        if len(self._pos) != len(self.nodes):
            raise TopologyError("duplicate node ids")
        normalized = set()
        adj: dict[int, list[int]] = {nid: [] for nid in self._pos}
        for u, v in self.edges:
            if u == v:
                raise TopologyError(f"self-loop at node {u}")
            if u not in self._pos or v not in self._pos:
                raise TopologyError(f"edge ({u}, {v}) references undeclared node")
            normalized.add((min(u, v), max(u, v)))
        self.edges = normalized
        for u, v in sorted(self.edges):
            adj[u].append(v)
            adj[v].append(u)
        self._adj = {nid: sorted(ns) for nid, ns in adj.items()}

    def position(self, node_id: int) -> Position:
        return self._pos[node_id]

    def neighbors(self, node_id: int) -> list[int]:
        return self._adj[node_id]

    def node_ids(self) -> list[int]:
        return [nid for nid, _ in self.nodes]


def waxman_edge_probability(d: float, spec: TopologySpec) -> float:
    """Probability of interconnecting two nodes at distance d."""
    lambda_max = spec.grid_size * math.sqrt(2.0)
    return WAXMAN_THETA * math.exp(-d / (WAXMAN_OMEGA * lambda_max))


def _place(spec: TopologySpec, rng: random.Random) -> list[Position]:
    """Draw the node positions, uniform on the grid; node k sits at index k."""
    return [
        Position(rng.uniform(0.0, spec.grid_size), rng.uniform(0.0, spec.grid_size))
        for _ in range(spec.node_count)
    ]


def _grow(spec: TopologySpec, rng: random.Random) -> Topology:
    """Incremental growth: each new node draws partners with weight P_e."""
    n = spec.node_count
    points = _place(spec, rng)
    edges: set[tuple[int, int]] = set()
    for i in range(1, n):
        wanted = min(WAXMAN_LINKS_PER_NODE, i)
        pool = list(range(i))
        weights = [
            waxman_edge_probability(euclidean_distance(points[i], points[j]), spec)
            for j in pool
        ]
        for _ in range(wanted):
            total = sum(weights)
            if total <= 0.0:
                break
            pick = rng.random() * total
            acc = 0.0
            chosen = len(pool) - 1
            for idx, w in enumerate(weights):
                acc += w
                if pick < acc:
                    chosen = idx
                    break
            edges.add((pool[chosen], i))
            del pool[chosen]
            del weights[chosen]
    return Topology(
        nodes=[(k, points[k]) for k in range(n)],
        edges=edges,
        grid_size=spec.grid_size,
    )


def is_connected(topo: Topology) -> bool:
    ids = topo.node_ids()
    if not ids:
        return False
    seen = {ids[0]}
    stack = [ids[0]]
    while stack:
        u = stack.pop()
        for v in topo.neighbors(u):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == len(ids)


def generate_topology(spec: TopologySpec, seed: int) -> Topology:
    """Validate ``spec``, then generate a connected random topology from ``seed``.

    The Gabriel variant keeps the sampled node placement and connects it as
    the Gabriel graph of the point set, which is planar and contains the
    Euclidean minimum spanning tree. It depends only on ``node_count``,
    ``grid_size`` and ``seed``: no Waxman edges are drawn, and the graph is
    built straight from the points (see ``_gabriel_pairs``) in O(n^2 log n)
    time, holding n(n+1)/2 squared distances and one node's scan order, with
    the edges the Gabriel filter keeps on the complete graph. Either way,
    generation retries with a derived seed until the result is connected;
    the retry count lands in ``retries``.
    """
    spec.validate()
    for attempt in range(MAX_CONNECT_RETRIES):
        rng = random.Random(f"{seed}:waxman:{attempt}")
        if spec.gabriel:
            points = _place(spec, rng)
            final = Topology(
                nodes=list(enumerate(points)),
                edges=_gabriel_pairs(points, combinations(range(len(points)), 2)),
                grid_size=spec.grid_size,
            )
        else:
            final = _grow(spec, rng)
        if is_connected(final):
            final.retries = attempt
            return final
    raise TopologyError(
        f"no connected topology found in {MAX_CONNECT_RETRIES} attempts (seed={seed})"
    )


def _gabriel_pairs(points: list[Position], pairs: Iterable[tuple[int, int]]) -> set[tuple[int, int]]:
    """The index pairs (u, v) of ``pairs`` whose diameter circle holds no other point.

    A witness w has d(u,w)^2 + d(w,v)^2 < d(u,v)^2, hence d(u,w)^2 < d(u,v)^2,
    since fl(a + b) >= a for b >= 0 under round-to-nearest. So w is scanned
    in increasing d(u,w)^2, and the first w with d(u,w)^2 >= d(u,v)^2 (v
    itself at the latest) ends the scan and keeps the pair. Every squared
    distance is the expression the brute-force test over all w evaluates, so
    the kept pairs are bit-for-bit the same; u and v never pass the test and
    need no exclusion. Row u reuses the floats of the rows above it: fl(a - b)
    is -fl(b - a), and a float squared by ``**`` is the square of its
    magnitude, so d(u,w)^2 is d(w,u)^2 bit for bit and n(n+1)/2 values are
    stored. Only the current u's scan order is kept, so ``pairs`` should come
    grouped by u; a u that comes back is sorted again. Cost: O(n^2) for the
    distances plus one O(n log n) sort per group.
    """
    d2: list[list[float]] = []
    for u, p in enumerate(points):
        row = [above[u] for above in d2]
        row += [(p.x - q.x) ** 2 + (p.y - q.y) ** 2 for q in points[u:]]
        d2.append(row)
    kept: set[tuple[int, int]] = set()
    scanned, order = None, []
    for u, v in pairs:
        row, dv = d2[u], d2[v]
        duv = row[v]
        if u != scanned:
            scanned, order = u, sorted(range(len(points)), key=row.__getitem__)
        for w in order:
            duw = row[w]
            if duw >= duv:
                kept.add((u, v))
                break
            if duw + dv[w] < duv:
                break
    return kept


def gabrielize(topo: Topology) -> Topology:
    """Keep only edges whose diameter circle contains no third node.

    Edge (u, v) is dropped when some node w satisfies
    d(u,w)^2 + d(w,v)^2 < d(u,v)^2, i.e. w lies strictly inside the circle
    whose diameter is the segment uv. Node set and positions are unchanged.
    The edges are sorted first, so ``_gabriel_pairs`` sorts each node's scan
    order once: O(n^2) for the distances plus at most one O(n log n) sort
    per node, and each edge's scan stops at d(u,v).
    """
    ids = topo.node_ids()
    index = {nid: i for i, nid in enumerate(ids)}
    kept = _gabriel_pairs([pos for _, pos in topo.nodes],
                          sorted((index[u], index[v]) for u, v in topo.edges))
    return Topology(
        nodes=list(topo.nodes),
        edges={(ids[i], ids[j]) for i, j in kept},
        grid_size=topo.grid_size,
        retries=topo.retries,
    )


def save_topology(topo: Topology, path: str) -> None:
    """Write the line-oriented topology format (coordinates at 6 decimals)."""
    lines = [f"topology v1 {len(topo.nodes)} {len(topo.edges)} {topo.grid_size:.6f}"]
    for nid, pos in topo.nodes:
        lines.append(f"N {nid} {pos.x:.6f} {pos.y:.6f}")
    for u, v in sorted(topo.edges):
        lines.append(f"E {u} {v}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {raw!r}")
    return value


def load_topology(path: str) -> Topology:
    """Read the line-oriented topology format; any malformed line raises TopologyError."""
    with open(path, encoding="ascii") as fh:
        raw = [line.strip() for line in fh if line.strip()]
    if not raw:
        raise TopologyError(f"{path}: empty topology file")
    head = raw[0].split()
    if len(head) != 5 or head[0] != "topology" or head[1] != "v1":
        raise TopologyError(f"{path}: bad header line {raw[0]!r}")
    try:
        node_count, edge_count = int(head[2]), int(head[3])
        grid_size = _finite(head[4])
    except ValueError as exc:
        raise TopologyError(f"{path}: bad header line {raw[0]!r}: {exc}") from None
    nodes: list[tuple[int, Position]] = []
    edges: set[tuple[int, int]] = set()
    for line in raw[1:]:
        parts = line.split()
        try:
            if parts[0] == "N" and len(parts) == 4:
                nodes.append((int(parts[1]), Position(_finite(parts[2]), _finite(parts[3]))))
            elif parts[0] == "E" and len(parts) == 3:
                edges.add((int(parts[1]), int(parts[2])))
            else:
                raise ValueError("expected 'N <id> <x> <y>' or 'E <u> <v>'")
        except ValueError as exc:
            raise TopologyError(f"{path}: bad line {line!r}: {exc}") from None
    if len(nodes) != node_count or len(edges) != edge_count:
        raise TopologyError(f"{path}: header counts do not match body")
    return Topology(nodes=nodes, edges=edges, grid_size=grid_size)

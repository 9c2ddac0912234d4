"""Shared test fixtures and independent oracles used across test modules."""

import random
from itertools import combinations
from typing import Iterable

from qkdsim.config import RunConfig
from qkdsim.engine import HANDSHAKE_BYTES, HANDSHAKE_PACKETS, GpsrqSimulation, Simulation
from qkdsim.geometry import Position, angle_of, ccw_next_neighbor, euclidean_distance
from qkdsim.gpsrq import GpsrqNode, cache_ttl, greedy_choice
from qkdsim.links import MIN_KEY_BITS, KeyStorage
from qkdsim.qos import SimPacket, admission_cost
from qkdsim.topology import Topology, TopologySpec, waxman_edge_probability


def _dist_sq(a: Position, b: Position) -> float:
    return (a.x - b.x) ** 2 + (a.y - b.y) ** 2


def gabriel_violations(topo: Topology) -> list:
    """Brute-force oracle: every (edge, witness) pair via the Pythagorean test.

    Squared distances are formed directly from coordinate differences so a
    witness exactly on the circle boundary is not misreported.
    """
    bad = []
    for u, v in topo.edges:
        pu, pv = topo.position(u), topo.position(v)
        for w, pw in topo.nodes:
            if w in (u, v):
                continue
            if _dist_sq(pu, pw) + _dist_sq(pw, pv) < _dist_sq(pu, pv):
                bad.append(((u, v), w))
    return bad


def naive_gabriel_edges(topo: Topology) -> set[tuple[int, int]]:
    """Reference Gabriel filter: test every edge against every other node, O(E * n).

    Kept as the oracle for ``qkdsim.topology``'s sorted, early-stopping scan;
    the float expressions and the grouping of the test are the same.
    """
    kept: set[tuple[int, int]] = set()
    for u, v in topo.edges:
        pu, pv = topo.position(u), topo.position(v)
        duv_sq = (pu.x - pv.x) ** 2 + (pu.y - pv.y) ** 2
        ok = True
        for w, pw in topo.nodes:
            if w == u or w == v:
                continue
            duw_sq = (pu.x - pw.x) ** 2 + (pu.y - pw.y) ** 2
            dwv_sq = (pw.x - pv.x) ** 2 + (pw.y - pv.y) ** 2
            if duw_sq + dwv_sq < duv_sq:
                ok = False
                break
        if ok:
            kept.add((u, v))
    return kept


def orientation(a: Position, b: Position, c: Position) -> float:
    """Cross product of ab x ac; positive when a->b->c turns counterclockwise."""
    return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)


def segments_cross(a: Position, b: Position, c: Position, d: Position) -> bool:
    """Proper crossing of segments ab and cd; shared endpoints do not count."""
    if a in (c, d) or b in (c, d):
        return False
    o1 = orientation(a, b, c)
    o2 = orientation(a, b, d)
    o3 = orientation(c, d, a)
    o4 = orientation(c, d, b)
    return o1 * o2 < 0 and o3 * o4 < 0


def crossing_pairs(topo: Topology) -> list:
    """Brute-force planarity oracle over all edge pairs."""
    pos = {nid: p for nid, p in topo.nodes}
    bad = []
    for (a, b), (c, d) in combinations(sorted(topo.edges), 2):
        if segments_cross(pos[a], pos[b], pos[c], pos[d]):
            bad.append(((a, b), (c, d)))
    return bad


def waxman_accepts(d: float, spec: TopologySpec, rng: random.Random) -> bool:
    """One Bernoulli edge-acceptance trial at distance d."""
    return rng.random() < waxman_edge_probability(d, spec)


def max_deliverable(storage: KeyStorage, horizon: float, premium: bool = False) -> float:
    """Key bits a store can serve over the next ``horizon`` seconds, floored at zero."""
    if horizon < 0.0:
        raise ValueError("horizon must be non-negative")
    reserve = 0.0 if premium else MIN_KEY_BITS
    return max(0.0, storage.rate * horizon + storage.m_cur - reserve)


def reference_hash_line(ev) -> str:
    """The line ``trace_hash`` covers for one popped event, by the generic encoding.

    Kept as the oracle for the engine's per-kind line builders: the time to
    nine decimals, the kind's tag and the first three payload items, joined
    by ``|``, with a packet written as ``p{uid}.{hop}.{loop}``.
    """
    parts = [f"{ev.fire_at:.9f}", ev.kind.value]
    for item in ev.payload[:3]:
        if isinstance(item, SimPacket):
            parts.append(f"p{item.uid}.{item.hop_count}.{item.loop}")
        else:
            parts.append(str(item))
    return "|".join(parts) + "\n"


def collect_overhead(trace: Iterable[tuple]) -> tuple[int, int]:
    """Recount routing-overhead packets and bytes from a run's event trace.

    Signaling exchanges count their data message plus the modeled reliable
    handshake; distance-vector and hello packets count individually.
    """
    pkts = 0
    size = 0
    for entry in trace:
        if entry[1] != "tx":
            continue
        kind, wire = entry[2], entry[5]
        if kind == "signaling":
            pkts += 1 + HANDSHAKE_PACKETS
            size += wire + HANDSHAKE_BYTES
        elif kind in ("dv", "hello"):
            pkts += 1
            size += wire
    return pkts, size


class NaiveExclusionCache:
    """List-scan reference for ``GpsrqNode``'s exclusion cache.

    Records are (via, center, radius, expires_at) tuples in insertion order.
    Every lookup first drops the records with ``expires_at <= now`` and then
    scans all that remain for a circle of ``via`` that covers ``dst_pos``;
    insertion never prunes.
    """

    def __init__(self, cache_enabled: bool = True):
        self.cache_enabled = cache_enabled
        self.records: list[tuple[int, Position, float, float]] = []

    def add_cache(self, via: int, center: Position, radius: float,
                  now: float, ttl: float) -> tuple | None:
        if not self.cache_enabled:
            return None
        record = (via, center, radius, now + ttl)
        self.records.append(record)
        return record

    def cache_blocked(self, via: int, dst_pos: Position, now: float) -> bool:
        self.prune_cache(now)
        return any(v == via and euclidean_distance(center, dst_pos) <= radius
                   for v, center, radius, _ in self.records)

    def prune_cache(self, now: float) -> None:
        self.records = [r for r in self.records if r[3] > now]


def bfs_reachable(topo: Topology, src: int, dst: int) -> bool:
    seen = {src}
    stack = [src]
    while stack:
        u = stack.pop()
        for v in topo.neighbors(u):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return dst in seen


def two_node_topology() -> Topology:
    return Topology(
        nodes=[(0, Position(10, 10)), (1, Position(20, 10))],
        edges={(0, 1)},
        grid_size=40.0,
    )


def ample_cfg(**kw) -> RunConfig:
    cfg = RunConfig(**kw)
    cfg.init_key_bytes = (25_000_000.0, 25_000_000.0)
    return cfg


def narrative_topology() -> Topology:
    """Hand-built layout: a relay whose only forward link is unavailable.

    Node ids: a=0 (source), k=1, j=2, l=3, i=4, g=5 (destination). The only
    path to g runs over the link j-i, which carries no key material.
    """
    return Topology(
        nodes=[
            (0, Position(16.7, 1.1)),
            (1, Position(4.0, 7.0)),
            (2, Position(6.0, 6.0)),
            (3, Position(5.5, 8.0)),
            (4, Position(8.0, 6.0)),
            (5, Position(10.0, 6.0)),
        ],
        edges={(0, 1), (1, 2), (1, 3), (2, 3), (2, 4), (4, 5)},
        grid_size=20.0,
    )


def narrative_sim(trace: bool = False) -> Simulation:
    cfg = RunConfig(seed=1, duration_s=3.0)
    cfg.init_key_bytes = (5_000_000.0, 5_000_000.0)
    cfg.rate_bps = 0.0  # no charging: no signaling noise, stable metrics
    cfg.traffic_rate_bps = 1000.0  # exactly one packet at t=0
    sim = Simulation(cfg, narrative_topology(), trace=trace)
    dead = sim.links[(2, 4)]
    dead.storage.m_cur = 0.0
    dead.initial_key = 0.0
    return sim


def two_closer_sim() -> Simulation:
    """Source 0 with two closer neighbours of destination 3: 1, the closer one,
    whose link holds little key, and 2, whose link is full. With beta 0 the
    link metric alone scores them, so 2 wins."""
    topo = Topology(
        nodes=[(0, Position(0, 10)), (1, Position(12, 12)), (2, Position(10, 6)),
               (3, Position(30, 10))],
        edges={(0, 1), (0, 2), (1, 3), (2, 3)},
        grid_size=40.0,
    )
    cfg = ample_cfg(seed=1, duration_s=1.0, beta=0.0)
    cfg.rate_bps = 0.0
    sim = Simulation(cfg, topo)
    sim.links[(0, 1)].storage.m_cur = 2 * MIN_KEY_BITS
    sim.links[(0, 2)].storage.m_cur = sim.links[(0, 2)].storage.m_max
    return sim


class ReferenceGpsrqSimulation(GpsrqSimulation):
    """GPSRQ with the routing decision as it was before it read per-run tables.

    Kept as the oracle for ``GpsrqSimulation``'s decision path: every
    distance is computed from positions on each decision, and every
    admission is asked again where the decision needs it. The methods are
    the earlier ones, except that ``_link_metrics`` is handed its link.
    Exclusions are looked up in one ``NaiveExclusionCache`` per node, which
    tests each region's circle against the packet's destination. Every data
    packet joins its class queue on arrival and is decided only when
    ``_serve`` finds it at the head, which scans the queues until none is left.
    ``_decide`` returns its outcome as an action tuple, ("wait",), ("drop",
    cause) or ("forward", target), and ``_serve`` carries it out.
    """

    def _start_protocol(self) -> None:
        super()._start_protocol()
        self.naive_caches = {nid: NaiveExclusionCache(self.cfg.cache_enabled)
                             for nid in self.gpsrq_nodes}

    def _add_exclusion(self, node: GpsrqNode, via: int, block: int) -> None:
        super()._add_exclusion(node, via, block)
        at, center = node.node_id, self.position(self.dst)
        radius = euclidean_distance(self.position(block), center) / 2.0
        ttl = cache_ttl(self.link(at, via).pub_stats)
        self.naive_caches[at].add_cache(via, center, radius, self.now, ttl)

    def _route_data(self, at: int, frm: int | None, pkt: SimPacket) -> None:
        node = self.gpsrq_nodes[at]
        pkt.arrived_from = frm
        if frm is not None and pkt.loop != 1:
            if pkt.upstream is None:
                pkt.upstream = {}
            if pkt.rec_position is not None:
                pkt.upstream.setdefault(at, frm)
            else:
                pkt.upstream[at] = frm

        if pkt.loop == 1 and frm is not None:
            if not self._absorb_return(node, pkt, frm):
                return
        elif at == pkt.rec_position and pkt.rec_if is not None:
            self._add_exclusion(node, pkt.rec_if, pkt.rec_if)
            pkt.recovery_tried.add(pkt.rec_if)

        if not self.queues[at].enqueue(pkt):
            self.stats.dropped_by_class[pkt.traffic_class.name] += 1
            self._count_drop("queue", pkt, at)
            return
        self._serve(at)

    def _serve(self, at: int) -> None:
        qs = self.queues[at]
        while True:
            head = qs.head()
            if head is None:
                return
            cls, pkt = head
            action = self._decide(at, pkt)
            if action[0] == "wait":
                self._schedule_retry(at)
                return
            qs.pop(cls)
            if action[0] == "drop":
                self._count_drop(action[1], pkt, at)
                continue
            self.stats.served_by_class[cls.name] += 1
            self._transmit(at, action[1], pkt)

    def _blocked(self, at: int, via: int, pkt: SimPacket) -> bool:
        return self.naive_caches[at].cache_blocked(via, self.position(pkt.dst), self.now)

    def _admit(self, u: int, v: int, pkt: SimPacket) -> float | None:
        return admission_cost(self.link(u, v), pkt, self.now)

    def _l2_full(self, at: int, target: int) -> bool:
        return len(self.l2[(at, target)]) > self.cfg.queue_capacity

    def _greedy_pick(self, at: int, pkt: SimPacket, node: GpsrqNode) -> int | None:
        dst_pos = self.position(pkt.dst)
        base = euclidean_distance(self.position(at), dst_pos)
        out = []
        for v in self.topo.neighbors(at):
            if v in pkt.retry_exclude or self._blocked(at, v, pkt):
                continue
            d = euclidean_distance(self.position(v), dst_pos)
            if d < base and self._admit(at, v, pkt) is not None:
                out.append((v, self._link_metrics(at, v, self.link(at, v))[3], d))
        return greedy_choice(out, node.beta)

    def _ccw_pick(self, at: int, pkt: SimPacket, node: GpsrqNode, exclude: set,
                  toward: int | None) -> int | None:
        pool = [(v, self.position(v)) for v in self.topo.neighbors(at)
                if v not in exclude and not self._blocked(at, v, pkt)
                and self._admit(at, v, pkt) is not None]
        if not pool or toward is None:
            return None
        here = self.position(at)
        return ccw_next_neighbor(here, angle_of(here, self.position(toward)), pool)

    def _forward_action(self, at: int, target: int, pkt: SimPacket):
        if self._l2_full(at, target):
            return ("wait",)
        if self._admit(at, target, pkt) is None:
            return ("wait",)
        return ("forward", target)

    def _send_back(self, at: int, pkt: SimPacket, target: int):
        action = self._forward_action(at, target, pkt)
        if action[0] == "forward":
            self._clear_recovery(pkt)
            pkt.loop = 1
            self._record("loop_return", at, pkt.uid, target)
        return action

    def _decide(self, at: int, pkt: SimPacket):
        if pkt.kind == "signaling":
            action = self._forward_action(at, pkt.dst, pkt)
            if action[0] == "forward":
                self._pending_signals.pop((at, pkt.dst), None)
            return action

        node = self.gpsrq_nodes[at]
        arrived = pkt.arrived_from

        if pkt.loop == 1:
            target = self._upstream(pkt, at, arrived)
            action = self._forward_action(at, target, pkt)
            if action[0] == "forward":
                self._record("loop_return", at, pkt.uid, target)
            return action

        if (
            pkt.loop == 0
            and at != pkt.src
            and arrived is not None
            and self.now - pkt.created_at > pkt.max_delay
        ):
            action = self._forward_action(at, arrived, pkt)
            if action[0] == "forward":
                pkt.loop = 1
                self._record("delay_return", at, pkt.uid, arrived)
            return action

        if pkt.rec_position is not None:
            if at == pkt.rec_position:
                return self._decide_recovery_origin(at, pkt, node, arrived)
            dst_pos = self.position(pkt.dst)
            entry_pos = self.position(pkt.rec_position)
            if euclidean_distance(self.position(at), dst_pos) < euclidean_distance(entry_pos, dst_pos):
                self._clear_recovery(pkt)
                self._record("recovery_exit", at, pkt.uid)
            else:
                v = self._ccw_pick(at, pkt, node, set(), arrived)
                if v is not None:
                    return self._forward_action(at, v, pkt)
                if arrived is not None:
                    return self._send_back(at, pkt, arrived)
                return ("drop", "source")

        return self._decide_greedy(at, pkt, node, arrived)

    def _decide_recovery_origin(self, at: int, pkt: SimPacket, node: GpsrqNode,
                                arrived: int | None):
        choice = self._greedy_pick(at, pkt, node)
        if choice is not None:
            action = self._forward_action(at, choice, pkt)
            if action[0] == "forward":
                self._clear_recovery(pkt)
                pkt.retry_exclude = set()
            return action
        exclude = set(pkt.recovery_tried)
        if arrived is not None:
            exclude.add(arrived)
        v = self._ccw_pick(at, pkt, node, exclude, pkt.dst)
        if v is not None:
            action = self._forward_action(at, v, pkt)
            if action[0] == "forward":
                pkt.rec_if = v
                pkt.recovery_tried.add(v)
                self._record("recovery_enter", at, pkt.uid, v)
            return action
        if at == pkt.src:
            return ("drop", "source")
        target = arrived if arrived is not None else self._upstream(pkt, at)
        if target is None:
            return ("drop", "source")
        return self._send_back(at, pkt, target)

    def _decide_greedy(self, at: int, pkt: SimPacket, node: GpsrqNode, arrived: int | None):
        choice = self._greedy_pick(at, pkt, node)
        if choice is not None:
            action = self._forward_action(at, choice, pkt)
            if action[0] == "forward":
                pkt.retry_exclude = set()
            return action

        usable = [v for v in self.topo.neighbors(at) if self._admit(at, v, pkt) is not None]
        if not usable:
            return ("wait",)  # no serviceable link: hold for reprocessing

        if pkt.loop == 0:
            entry_exclude = set(pkt.retry_exclude)
            if arrived is not None:
                entry_exclude.add(arrived)
            v = self._ccw_pick(at, pkt, node, entry_exclude, pkt.dst)
            if v is not None:
                action = self._forward_action(at, v, pkt)
                if action[0] == "forward":
                    pkt.rec_position = at
                    pkt.rec_if = v
                    pkt.recovery_tried = {v}
                    pkt.retry_exclude = set()
                    self._record("recovery_enter", at, pkt.uid, v)
                return action
            if at == pkt.src:
                return ("drop", "source")
            return self._send_back(at, pkt, arrived)

        # loop == 2: a retried packet hit another dead end; send it back.
        if at == pkt.src:
            return ("drop", "source")
        target = self._upstream(pkt, at, arrived)
        if target is None:
            return ("drop", "source")
        return self._send_back(at, pkt, target)

"""Proactive distance-vector baseline with destination sequence numbers.

Every node periodically broadcasts its full routing table; changed routes
are re-advertised as triggered incremental updates. Destinations stamp
their own entries with even sequence numbers; a node that loses a link
poisons the affected routes with an incremented odd sequence number.
Higher sequence numbers always win, equal sequence prefers fewer hops.
``DvSimulation`` runs the protocol on the engine's core as ``dv``.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

from .engine import PROTOCOL_SIMULATIONS, QKD_HEADER_BYTES, UDP_IP_BYTES, EventKind, Simulation
from .metrics import public_metric
from .qos import SimPacket, TrafficClass
from .rng import substream

INFINITE_METRIC = 1 << 16

# Wire sizes in bytes; an update's payload holds one entry per route.
HELLO_PAYLOAD_BYTES = 8
HELLO_WIRE_BYTES = QKD_HEADER_BYTES + UDP_IP_BYTES + HELLO_PAYLOAD_BYTES
DV_FIXED_PAYLOAD_BYTES = 4
DV_ENTRY_BYTES = 12
# Under ``hello`` liveness: seconds between hellos, and of silence that marks a link dead.
DV_HELLO_INTERVAL_S = 10.0
DV_DEAD_INTERVAL_S = 40.0

# Read for every update; an enum class attribute lookup costs more.
_PREMIUM = TrafficClass.PREMIUM


@dataclass(slots=True)
class DvRoute:
    next_hop: int | None
    metric: int
    seq: int


class DvNode:
    def __init__(self, node_id: int):
        self.node_id = node_id
        self.own_seq = 0
        self.table: dict[int, DvRoute] = {node_id: DvRoute(node_id, 0, 0)}
        self.pending: dict[int, tuple[int, int]] = {}

    def bump_own_sequence(self) -> None:
        self.own_seq += 2
        self.table[self.node_id].seq = self.own_seq

    def full_dump(self) -> list[tuple[int, int, int]]:
        return [
            (dst, route.metric, route.seq)
            for dst, route in sorted(self.table.items())
        ]

    def pending_dump(self) -> list[tuple[int, int, int]]:
        return [(dst, metric, seq) for dst, (metric, seq) in sorted(self.pending.items())]

    def process_update(self, from_neighbor: int, entries) -> list[int]:
        """Merge an advertisement received from a neighbor; returns changed routes."""
        changed: list[int] = []
        for dst, metric, seq in entries:
            if dst == self.node_id:
                continue
            cand_metric = metric + 1 if metric < INFINITE_METRIC else INFINITE_METRIC
            cur = self.table.get(dst)
            accept = (
                cur is None
                or seq > cur.seq
                or (seq == cur.seq and cand_metric < cur.metric)
            )
            if not accept:
                continue
            if cur is not None and (cur.next_hop, cur.metric, cur.seq) == (from_neighbor, cand_metric, seq):
                continue
            self.table[dst] = DvRoute(from_neighbor, cand_metric, seq)
            self.pending[dst] = (cand_metric, seq)
            changed.append(dst)
        return changed

    def mark_link_dead(self, neighbor: int) -> list[int]:
        """Poison every route through a dead neighbor with an odd sequence."""
        changed: list[int] = []
        for dst, route in self.table.items():
            if route.next_hop == neighbor and route.metric < INFINITE_METRIC:
                self.table[dst] = DvRoute(None, INFINITE_METRIC, route.seq + 1)
                self.pending[dst] = (INFINITE_METRIC, route.seq + 1)
                changed.append(dst)
        return changed

    def next_hop(self, dst: int) -> int | None:
        route = self.table.get(dst)
        if route is None or route.metric >= INFINITE_METRIC:
            return None
        return route.next_hop


class DvSimulation(Simulation):
    """Distance-vector baseline: periodic and triggered updates, forwarding by
    table lookup, and link liveness by admission probes or hello messages."""

    def _start_protocol(self) -> None:
        cfg = self.cfg
        self.dv_nodes = {nid: DvNode(nid) for nid, _ in self.topo.nodes}
        self._rng_dv = substream(cfg.seed, "dv")
        self._dead_links: set[tuple[int, int]] = set()
        self._flush_pending: set[int] = set()
        self._next_periodic: dict[int, float] = {}
        self._last_hello: dict[tuple[int, int], float] = {}
        for nid in self.topo.node_ids():
            jitter = 0.01 + self._rng_dv.random()
            self._next_periodic[nid] = jitter
            self.events.push(jitter, EventKind.DV_TIMER, (nid, "periodic"))
            if cfg.dv_liveness == "hello":
                self.events.push(0.01 + self._rng_dv.random(), EventKind.DV_TIMER, (nid, "hello"))

    def _route_data(self, at: int, frm: int | None, pkt: SimPacket) -> None:
        """Forward by table lookup at once; a refused packet is dropped, not queued."""
        nh = self.dv_nodes[at].next_hop(pkt.dst)
        if nh is None or (at, nh) in self._dead_links:
            self._count_drop("source" if at == pkt.src else "link", pkt, at)
            return
        if not self._send(at, nh, pkt):
            self._count_drop("link", pkt, at)
            if self.cfg.dv_liveness == "probe":
                self._mark_dead(at, nh, "probe")

    def _deliver_control(self, at: int, frm: int, pkt: SimPacket) -> None:
        if pkt.kind == "hello":
            self._last_hello[(at, frm)] = self.now
            if (at, frm) in self._dead_links:
                self._dead_links.discard((at, frm))
                self._send_updates(at, (frm,), self.dv_nodes[at].full_dump())
        elif self.dv_nodes[at].process_update(frm, pkt.entries):
            self._schedule_flush(at)

    def _after_key_charge(self, u: int, v: int) -> None:
        """Under ``probe`` liveness, revive each dead direction of the charged
        link once its public channel is fresh and it can carry a data packet."""
        if self.cfg.dv_liveness != "probe":
            return
        lk = self.link(u, v)
        for nid, nbr in ((u, v), (v, u)):
            if ((nid, nbr) in self._dead_links and public_metric(lk.pub_stats, self.now) <= 1.0
                    and lk.storage.can_consume(self.data_key_cost, premium=False)):
                self._dead_links.discard((nid, nbr))
                self._send_updates(nid, (nbr,), self.dv_nodes[nid].full_dump())

    def _send_updates(self, nid: int, nbrs: Iterable[int], entries: list) -> None:
        """Send ``entries`` to each of ``nbrs`` as a premium update; a refused one is lost."""
        entries = tuple(entries)
        payload = DV_FIXED_PAYLOAD_BYTES + DV_ENTRY_BYTES * len(entries)
        wire = QKD_HEADER_BYTES + UDP_IP_BYTES + payload
        key_cost = payload * 8.0 + self.cfg.link.auth_key_bits
        for nbr in nbrs:
            pkt = SimPacket(next(self._uid), "dv", nid, nbr, _PREMIUM, wire, self.now,
                            math.inf, key_cost, entries=entries)
            if not self._send(nid, nbr, pkt):
                self._record("dv_update_lost", nid, nbr)

    def _advertise(self, nid: int, entries: list) -> None:
        self._send_updates(nid, self.topo.neighbors(nid), entries)
        self.dv_nodes[nid].pending.clear()

    def _on_dv_timer(self, nid: int, mode: str) -> None:
        dvn = self.dv_nodes[nid]
        if mode == "periodic":
            dvn.bump_own_sequence()
            self._advertise(nid, dvn.full_dump())
            self._next_periodic[nid] = self.now + self.cfg.dv_period_s
            self.events.push(self._next_periodic[nid], EventKind.DV_TIMER, (nid, "periodic"))
        elif mode == "flush":
            self._flush_pending.discard(nid)
            if dvn.pending:
                self._advertise(nid, dvn.pending_dump())
        elif mode == "hello":
            key_cost = HELLO_PAYLOAD_BYTES * 8.0 + self.cfg.link.auth_key_bits
            for nbr in self.topo.neighbors(nid):
                self._send(nid, nbr, self._control_packet("hello", nid, nbr, key_cost,
                                                          HELLO_WIRE_BYTES))
                last = self._last_hello.get((nid, nbr), 0.0)
                if self.now - last > DV_DEAD_INTERVAL_S and (nid, nbr) not in self._dead_links:
                    self._mark_dead(nid, nbr, "hello")
            self.events.push(self.now + DV_HELLO_INTERVAL_S, EventKind.DV_TIMER, (nid, "hello"))

    def _schedule_flush(self, nid: int) -> None:
        # Merge with an imminent periodic update instead of a separate burst.
        merge = self.cfg.dv_merge_window_s
        if nid in self._flush_pending or self._next_periodic[nid] - self.now <= merge:
            return
        self._flush_pending.add(nid)
        self.events.push(self.now + merge, EventKind.DV_TIMER, (nid, "flush"))

    def _mark_dead(self, nid: int, nbr: int, reason: str) -> None:
        """Mark nid's link to nbr dead, for "probe" (a refusal) or "hello" (silence)."""
        self._dead_links.add((nid, nbr))
        poisoned = len(self.dv_nodes[nid].mark_link_dead(nbr))
        self._record("dead_mark", nid, nbr, reason, poisoned)
        if poisoned:
            self._schedule_flush(nid)

    _dispatch = {**Simulation._dispatch, EventKind.DV_TIMER: _on_dv_timer}


PROTOCOL_SIMULATIONS["dv"] = DvSimulation

"""Deterministic discrete-event simulation of a trusted-relay QKD network.

One Simulation owns one topology, one link state per edge and one event
loop. Routing decisions are made at dequeue time, immediately before a
packet is handed to the link, so they always see fresh link state. All
randomness comes from named substreams of the run seed and events with
equal firing times process in scheduling order, which makes complete runs
bit-reproducible.

``Simulation`` is the protocol-agnostic core: event loop, hash and trace,
key charging, admission, class queues, L2 transmission and accounting.
Each routing protocol is a subclass that fills in a few hooks and adds its
own event handlers; ``Simulation(cfg, topology)`` builds the subclass that
``cfg.protocol`` names.
"""

from __future__ import annotations

import hashlib
import heapq
import logging
import math
from collections import deque
from dataclasses import dataclass
from enum import Enum
from itertools import count

from .config import RunConfig
from .dv import DvNode
from .geometry import Position, angle_of, ccw_next_neighbor, euclidean_distance
from .gpsrq import GpsrqNode, cache_ttl, greedy_choice
from .headers import HEADER_OVERHEAD_BYTES, QKD_HEADER_BYTES
from .links import KeyStorage, PublicChannelStats, QkdLink
from .metrics import link_metric, local_mean, public_metric, quantum_metric
from .qos import (
    PRIORITY_ORDER,
    PriorityQueueSet,
    SimPacket,
    TrafficClass,
    admission_cost,
    classify,
)
from .rng import substream
from .stats import HANDSHAKE_BYTES, HANDSHAKE_PACKETS, RunStats
from .topology import Topology, is_connected

logger = logging.getLogger(__name__)

UDP_IP_BYTES = 28
TCP_IP_BYTES = 40
SIGNALING_PAYLOAD_BYTES = 8
HELLO_PAYLOAD_BYTES = 8
DV_FIXED_PAYLOAD_BYTES = 4
DV_ENTRY_BYTES = 12


class SimulationError(RuntimeError):
    """An engine invariant was violated during a run."""


class EventKind(Enum):
    PACKET_ARRIVAL = "PacketArrival"
    LINK_TRANSMIT_DONE = "LinkTransmitDone"
    KEY_CHARGE = "KeyCharge"
    SIGNALING_TIMER = "SignalingTimer"
    DV_TIMER = "DvTimer"
    RETRY_TIMER = "RetryTimer"
    CACHE_EXPIRY = "CacheExpiry"
    SIMULATION_END = "SimulationEnd"


@dataclass(slots=True)
class SimEvent:
    fire_at: float
    sequence: int
    kind: EventKind
    payload: tuple


class EventQueue:
    """Time-ordered event set; equal times resolve by scheduling order."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, SimEvent]] = []
        self._seq = count()

    def push(self, fire_at: float, kind: EventKind, payload: tuple = ()) -> SimEvent:
        ev = SimEvent(fire_at, next(self._seq), kind, payload)
        heapq.heappush(self._heap, (fire_at, ev.sequence, ev))
        return ev

    def pop(self) -> SimEvent | None:
        if not self._heap:
            return None
        return heapq.heappop(self._heap)[2]

    def __len__(self) -> int:
        return len(self._heap)


class Simulation:
    def __new__(cls, cfg: RunConfig, topology: Topology, metrics_log: bool = False):
        cfg.validate()
        if cls is Simulation:
            cls = PROTOCOL_SIMULATIONS[cfg.protocol]
        return super().__new__(cls)

    def __init__(self, cfg: RunConfig, topology: Topology, metrics_log: bool = False):
        if len(topology.nodes) < 2:
            raise SimulationError("need at least two nodes")
        if not is_connected(topology):
            raise SimulationError("topology must be connected")
        self.cfg = cfg
        self.topo = topology
        self.now = 0.0
        self.events = EventQueue()
        self.src = topology.nodes[0][0]
        self.dst = topology.nodes[-1][0]

        self._rng_keys = substream(cfg.seed, "initkeys")
        self._rng_rounds = substream(cfg.seed, "rounds")

        lc = cfg.link
        self.links: dict[tuple[int, int], QkdLink] = {}
        for u, v in sorted(topology.edges):
            lo, hi = lc.init_key_bytes_range
            init_bits = self._rng_keys.uniform(lo, hi) * 8.0
            storage = KeyStorage(
                m_min=lc.min_key_bytes * 8.0,
                m_max=lc.max_key_bytes * 8.0,
                m_cur=min(init_bits, lc.max_key_bytes * 8.0),
                rate=lc.rate_bps,
                charge_period=lc.charge_period_s,
            )
            stats = PublicChannelStats(
                window_len=cfg.t_avg_window,
                initial_average=lc.charge_period_s,
            )
            self.links[(u, v)] = QkdLink(u, v, storage, stats, lc.bandwidth_bps)

        self.l2: dict[tuple[int, int], deque] = {}
        self.l2_busy: dict[tuple[int, int], bool] = {}
        self._link_by_dir: dict[tuple[int, int], QkdLink] = {}
        for (u, v), lk in self.links.items():
            for d in ((u, v), (v, u)):
                self.l2[d] = deque()
                self.l2_busy[d] = False
                self._link_by_dir[d] = lk

        self.queues: dict[int, PriorityQueueSet] = {
            nid: PriorityQueueSet(cfg.queue_capacity) for nid in topology.node_ids()
        }

        self.crypto = cfg.traffic.crypto(lc.auth_key_bits)
        self.data_class = classify("application", cfg.traffic.resolved_class())
        self.data_key_cost = self.crypto.key_cost(cfg.traffic.packet_bytes * 8.0)
        self.data_max_delay = cfg.traffic.resolved_max_delay()

        self._uid = count()
        self._retry_pending: set[int] = set()
        self._warned_reserve: set[tuple[int, int]] = set()

        self.trace: list[tuple] = []
        self._hasher = hashlib.sha256()
        self.metrics_log: list[tuple] | None = [] if metrics_log else None

        # Statistics accumulators (application data packets only).
        self.sent = 0
        self.received = 0
        self.delay_sum = 0.0
        self.hops_sum = 0
        self.drop_queue = 0
        self.drop_delay = 0
        self.drop_source = 0
        self.drop_link = 0
        self.ovh_pkts = 0
        self.ovh_bytes = 0
        self.key_data_bits = 0.0
        self.key_routing_bits = 0.0
        self.loop2_count = 0
        self.reserve_dips = 0
        self.max_forwards = 0
        self.served_by_class = {c.name: 0 for c in PRIORITY_ORDER}
        self.dropped_by_class = {c.name: 0 for c in PRIORITY_ORDER}

        if lc.rate_bps > 0.0:
            for key in sorted(self.links):
                self.events.push(lc.charge_period_s, EventKind.KEY_CHARGE, (key,))
        self.events.push(0.0, EventKind.PACKET_ARRIVAL, (None, self.src, None))
        self._start_protocol()
        self.events.push(cfg.duration_s, EventKind.SIMULATION_END, ())

    # --------------------------------------------------------- protocol hooks

    def _start_protocol(self) -> None:
        """Build per-node routing state and push the protocol's start-up events."""
        raise NotImplementedError

    def _route_data(self, at: int, frm: int | None, pkt: SimPacket) -> None:
        """Handle a data packet that arrived at ``at``, its destination excluded."""
        raise NotImplementedError

    def _deliver_control(self, at: int, frm: int, pkt: SimPacket) -> None:
        """Consume a routing control packet sent to ``at`` by its neighbour ``frm``."""
        raise NotImplementedError

    def _decide(self, at: int, pkt: SimPacket) -> tuple:
        """Head-of-queue decision: ("wait",), ("drop", cause) or ("forward", target, cost)."""
        raise NotImplementedError

    def _after_key_charge(self, u: int, v: int) -> None:
        """React to a charge of link (u, v), before both endpoints are served."""
        raise NotImplementedError

    def _link_threshold(self, u: int, v: int, m_max: float) -> float:
        """The threshold m_thr that node u applies to its link to v."""
        raise NotImplementedError

    def dump_caches(self) -> list[str]:
        """Per-node exclusion-cache lines; empty for a protocol without caches."""
        return []

    # ------------------------------------------------------------------ utils

    def link(self, u: int, v: int) -> QkdLink:
        return self._link_by_dir[(u, v)]

    def position(self, nid: int) -> Position:
        return self.topo.position(nid)

    def _record(self, *entry) -> None:
        self.trace.append((self.now, *entry))

    def _hash_event(self, ev: SimEvent) -> None:
        parts = [f"{ev.fire_at:.9f}", ev.kind.value]
        for item in ev.payload[:3]:
            if isinstance(item, SimPacket):
                parts.append(f"p{item.uid}.{item.hop_count}.{item.loop}")
            else:
                parts.append(str(item))
        self._hasher.update(("|".join(parts) + "\n").encode())

    def _wire_bytes(self, pkt: SimPacket) -> int:
        if pkt.kind == "data":
            return HEADER_OVERHEAD_BYTES + UDP_IP_BYTES + pkt.payload_len
        if pkt.kind == "signaling":
            return HEADER_OVERHEAD_BYTES + TCP_IP_BYTES + SIGNALING_PAYLOAD_BYTES
        if pkt.kind == "dv":
            return (
                QKD_HEADER_BYTES
                + UDP_IP_BYTES
                + DV_FIXED_PAYLOAD_BYTES
                + DV_ENTRY_BYTES * len(pkt.entries)
            )
        if pkt.kind == "hello":
            return QKD_HEADER_BYTES + UDP_IP_BYTES + HELLO_PAYLOAD_BYTES
        raise SimulationError(f"unknown packet kind {pkt.kind!r}")

    def _make_data_packet(self) -> SimPacket:
        return SimPacket(
            uid=next(self._uid),
            kind="data",
            src=self.src,
            dst=self.dst,
            traffic_class=self.data_class,
            payload_len=self.cfg.traffic.packet_bytes,
            created_at=self.now,
            max_delay=self.data_max_delay,
            key_cost=self.data_key_cost,
        )

    def _control_packet(self, kind: str, src: int, dst: int, key_cost: float,
                        payload_len: int = 0, **fields) -> SimPacket:
        """A premium routing packet for the neighbour ``dst``; it has no deadline."""
        return SimPacket(
            uid=next(self._uid),
            kind=kind,
            src=src,
            dst=dst,
            traffic_class=TrafficClass.PREMIUM,
            payload_len=payload_len,
            created_at=self.now,
            max_delay=math.inf,
            key_cost=key_cost,
            **fields,
        )

    # ------------------------------------------------------------------- run

    def run(self) -> RunStats:
        while True:
            ev = self.events.pop()
            if ev is None:
                break
            if ev.fire_at < self.now - 1e-9:
                raise SimulationError("event fired before current time")
            self.now = ev.fire_at
            self._hash_event(ev)
            if ev.kind == EventKind.SIMULATION_END:
                break
            handler = self._dispatch[ev.kind]
            handler(self, *ev.payload)
        return self._finalize()

    def _finalize(self) -> RunStats:
        for key, lk in sorted(self.links.items()):
            err = abs(lk.conservation_error())
            scale = max(1.0, lk.initial_key + lk.storage.charged_total)
            if err > 1e-6 * scale:
                raise SimulationError(f"key accounting broken on link {key}: {err}")
        drops = self.drop_queue + self.drop_delay + self.drop_source + self.drop_link
        in_flight = self.sent - self.received - drops
        if in_flight < 0:
            raise SimulationError("negative in-flight count")
        stats = RunStats(
            protocol=self.cfg.protocol,
            nodes=len(self.topo.nodes),
            seed=self.cfg.seed,
            beta=self.cfg.beta,
            alpha=self.cfg.alpha,
            t_avg_window=self.cfg.t_avg_window,
            cache=self.cfg.cache_enabled,
            sent=self.sent,
            received=self.received,
            mean_delay_s=self.delay_sum / self.received if self.received else 0.0,
            mean_hops=self.hops_sum / self.received if self.received else 0.0,
            ovh_pkts=self.ovh_pkts,
            ovh_bytes=self.ovh_bytes,
            key_data_bits=self.key_data_bits,
            key_routing_bits=self.key_routing_bits,
            drop_queue=self.drop_queue,
            drop_delay=self.drop_delay,
            drop_source=self.drop_source,
            drop_link=self.drop_link,
            in_flight=in_flight,
            loop2_count=self.loop2_count,
            reserve_dips=self.reserve_dips,
            trace_hash=self._hasher.hexdigest(),
            topology_retries=self.topo.retries,
            served_by_class=dict(self.served_by_class),
            dropped_by_class=dict(self.dropped_by_class),
        )
        return stats

    # ------------------------------------------------------------ packet flow

    def _on_packet_arrival(self, pkt: SimPacket | None, at: int, frm: int | None) -> None:
        if pkt is None:
            pkt = self._make_data_packet()
            self.sent += 1
            nxt = self.now + self.cfg.traffic.packet_bytes * 8.0 / self.cfg.traffic.rate_bps
            if nxt < self.cfg.duration_s:
                self.events.push(nxt, EventKind.PACKET_ARRIVAL, (None, self.src, None))
        if frm is not None:
            pkt.hop_count += 1
            self.max_forwards = max(self.max_forwards, pkt.hop_count)
        self._record("arrive", pkt.kind, pkt.uid, at, frm)

        if pkt.kind != "data":
            self._deliver_control(at, frm, pkt)
            return

        pkt.arrived_from = frm
        if at == pkt.dst:
            self.received += 1
            self.delay_sum += self.now - pkt.created_at
            self.hops_sum += pkt.hop_count
            self._record("deliver", pkt.uid, self.now - pkt.created_at, pkt.hop_count)
            return
        self._route_data(at, frm, pkt)

    def _serve(self, at: int) -> None:
        qs = self.queues[at]
        while True:
            head = qs.head()
            if head is None:
                return
            cls, pkt = head
            for higher in PRIORITY_ORDER:
                if higher == cls:
                    break
                if qs.queues[higher]:
                    raise SimulationError("strict priority violated")
            action = self._decide(at, pkt)
            if action[0] == "wait":
                self._schedule_retry(at)
                return
            qs.pop(cls)
            if action[0] == "drop":
                self._count_drop(action[1], pkt, at)
                continue
            self.served_by_class[cls.name] += 1
            _, target, cost = action
            self._transmit(at, target, pkt, cost)

    def _count_drop(self, cause: str, pkt: SimPacket, at: int) -> None:
        if cause == "source":
            self.drop_source += 1
        elif cause == "delay":
            self.drop_delay += 1
        elif cause == "link":
            self.drop_link += 1
        else:
            self.drop_queue += 1
        self._record("drop", cause, pkt.uid, at)

    def _schedule_retry(self, at: int) -> None:
        if at not in self._retry_pending:
            self._retry_pending.add(at)
            self.events.push(self.now + self.cfg.retry_fallback_s, EventKind.RETRY_TIMER, (at,))

    def _on_retry_timer(self, nid: int) -> None:
        self._retry_pending.discard(nid)
        self._serve(nid)

    def _admit(self, u: int, v: int, pkt: SimPacket) -> float | None:
        return admission_cost(self.link(u, v), pkt, self.now)

    def _l2_full(self, at: int, target: int) -> bool:
        direction = (at, target)
        return self.l2_busy[direction] and len(self.l2[direction]) >= self.cfg.queue_capacity

    # ------------------------------------------------------------ transmission

    def _transmit(self, at: int, target: int, pkt: SimPacket, cost: float) -> bool:
        lk = self.link(at, target)
        direction = (at, target)
        wire = self._wire_bytes(pkt)
        if self._l2_full(at, target):
            # Queue-served packets wait at decision time instead; only the
            # unreliable routing updates can still arrive here and are lost.
            if pkt.kind == "data":
                self.drop_queue += 1
                self._record("drop", "queue", pkt.uid, at)
            else:
                self._record("tx_blocked", pkt.kind, at, target)
            return False
        premium = pkt.traffic_class == TrafficClass.PREMIUM
        if not lk.storage.consume(cost, premium):
            raise SimulationError("admission raced ahead of consumption")
        if pkt.kind == "data":
            self.key_data_bits += cost
            lk.consumed_data += cost
        else:
            self.key_routing_bits += cost
            lk.consumed_routing += cost
        if premium and lk.storage.m_cur < lk.storage.m_min:
            self.reserve_dips += 1
            if lk.key() not in self._warned_reserve:
                self._warned_reserve.add(lk.key())
                logger.warning(
                    "premium traffic dipped below the pre-shared reserve on link %s", lk.key()
                )
        if pkt.kind == "signaling":
            self.ovh_pkts += 1 + HANDSHAKE_PACKETS
            self.ovh_bytes += wire + HANDSHAKE_BYTES
        elif pkt.kind in ("dv", "hello"):
            self.ovh_pkts += 1
            self.ovh_bytes += wire
        self._record("tx", pkt.kind, at, target, wire, lk.storage.m_cur)
        if self.l2_busy[direction]:
            self.l2[direction].append((pkt, wire))
        else:
            self.l2_busy[direction] = True
            done = self.now + wire * 8.0 / lk.bandwidth
            self.events.push(done, EventKind.LINK_TRANSMIT_DONE, (direction, pkt, wire))
        return True

    def _on_transmit_done(self, direction: tuple[int, int], pkt: SimPacket, wire: int) -> None:
        at, target = direction
        lk = self.link(at, target)
        lk.busy_accum += wire * 8.0 / lk.bandwidth
        self.events.push(
            self.now + self.cfg.propagation_delay_s,
            EventKind.PACKET_ARRIVAL,
            (pkt, target, at),
        )
        queue = self.l2[direction]
        if queue:
            nxt, nwire = queue.popleft()
            done = self.now + nwire * 8.0 / lk.bandwidth
            self.events.push(done, EventKind.LINK_TRANSMIT_DONE, (direction, nxt, nwire))
        else:
            self.l2_busy[direction] = False
        # Freed transmission capacity may unblock the sender's waiting head.
        self._serve(at)

    # ------------------------------------------------------------ key charging

    def _on_key_charge(self, key: tuple[int, int]) -> None:
        lk = self.links[key]
        lc = self.cfg.link
        lk.storage.charge()
        base = self._rng_rounds.gauss(lc.charge_period_s, lc.round_stddev_frac * lc.charge_period_s)
        busy_frac = min(1.0, lk.busy_accum / lc.charge_period_s)
        lk.busy_accum = 0.0
        duration = max(lc.round_floor_s, base * (1.0 + lc.round_load_gain * busy_frac))
        lk.pub_stats.record_key_round(duration, self.now)
        self._record("charge", key, duration)
        if self.metrics_log is not None:
            self._log_metrics(key)

        u, v = key
        self._after_key_charge(u, v)
        # Fresh key may unblock waiting heads at both endpoints.
        self._serve(u)
        self._serve(v)
        nxt = self.now + lc.charge_period_s
        if nxt <= self.cfg.duration_s:
            self.events.push(nxt, EventKind.KEY_CHARGE, (key,))

    def _link_metrics(self, u: int, v: int) -> tuple[float, float, float, float]:
        """(q_frac, q_m, p_m, r_m) of the link u-v as node u sees it."""
        lk = self.link(u, v)
        m_thr = self._link_threshold(u, v, lk.storage.m_max)
        q_frac, q_m = quantum_metric(lk.storage.m_cur, m_thr, lk.storage.m_max)
        p_m = public_metric(lk.pub_stats, self.now)
        return q_frac, q_m, p_m, link_metric(q_m, p_m, self.cfg.alpha)

    def _log_metrics(self, key: tuple[int, int]) -> None:
        self.metrics_log.append((self.now, *key, *self._link_metrics(*key)))

    _dispatch = {
        EventKind.PACKET_ARRIVAL: _on_packet_arrival,
        EventKind.LINK_TRANSMIT_DONE: _on_transmit_done,
        EventKind.KEY_CHARGE: _on_key_charge,
        EventKind.RETRY_TIMER: _on_retry_timer,
    }


class GpsrqSimulation(Simulation):
    """QoS-aware geographic routing: greedy forwarding scored by the link
    metric, perimeter recovery, an exclusion cache and returning loops."""

    def _start_protocol(self) -> None:
        cfg = self.cfg
        self.gpsrq_nodes = {
            nid: GpsrqNode(nid, pos, cfg.beta, cfg.alpha, cfg.cache_enabled)
            for nid, pos in self.topo.nodes
        }
        self.signaling_key_cost = (
            SIGNALING_PAYLOAD_BYTES * 8.0
            + cfg.link.auth_key_bits
            + HANDSHAKE_PACKETS * cfg.link.auth_key_bits
        )
        self._signal_epoch: dict[int, float] = {}
        self._pending_signals: dict[tuple[int, int], SimPacket] = {}

    def dump_caches(self) -> list[str]:
        lines = []
        for nid in sorted(self.gpsrq_nodes):
            for r in self.gpsrq_nodes[nid].cache:
                lines.append(
                    f"CACHE {nid} {r.via_neighbor} {r.center.x:.6f} {r.center.y:.6f} "
                    f"{r.radius:.6f} {r.expires_at:.6f}"
                )
        return lines

    # ---------------------------------------------------------------- arrival

    def _route_data(self, at: int, frm: int | None, pkt: SimPacket) -> None:
        node = self.gpsrq_nodes[at]
        if frm is not None and pkt.loop != 1:
            if pkt.in_rec:
                # Perimeter transits only leave a breadcrumb for unwinding.
                node.upstream.setdefault(pkt.uid, frm)
            else:
                node.upstream[pkt.uid] = frm

        if pkt.loop == 1 and frm is not None:
            if not self._absorb_return(node, pkt, frm):
                return
        elif pkt.in_rec and at == pkt.rec_position and pkt.rec_if is not None:
            # The perimeter walk came back to where it started: exclude the
            # edge used for this episode and let service retry alternatives.
            self._add_exclusion(node, pkt.rec_if, pkt.rec_if, self.position(pkt.dst))
            pkt.recovery_tried.add(pkt.rec_if)

        if not self.queues[at].enqueue(pkt):
            self.drop_queue += 1
            self.dropped_by_class[pkt.traffic_class.name] += 1
            self._record("drop", "queue", pkt.uid, at)
            return
        self._serve(at)

    def _add_exclusion(self, node: GpsrqNode, via: int, block: int, dst_pos: Position) -> None:
        """Cache that ``via`` does not lead toward the destination region around ``block``."""
        at = node.node_id
        radius = euclidean_distance(self.position(block), dst_pos) / 2.0
        ttl = cache_ttl(self.link(at, via).pub_stats)
        if node.add_cache(via, dst_pos, radius, self.now, ttl):
            self.events.push(self.now + ttl, EventKind.CACHE_EXPIRY, (at,))
            self._record("cache_add", at, via, dst_pos.x, dst_pos.y, radius)

    def _absorb_return(self, node: GpsrqNode, pkt: SimPacket, frm: int) -> bool:
        """Process a packet returned with the loop flag set.

        Adds the exclusion record, then either continues unwinding (expired
        packets travel back toward the source), drops at the source, or
        converts the packet for a greedy retry that excludes the returner.
        Returns False when the packet died here.
        """
        at = node.node_id
        block = pkt.rec_position if (pkt.in_rec and pkt.rec_position is not None) else frm
        self._add_exclusion(node, frm, block, self.position(pkt.dst))

        expired = self.now - pkt.created_at > pkt.max_delay
        if expired:
            if at == pkt.src:
                self.drop_delay += 1
                self._record("drop", "delay", pkt.uid, at)
                return False
            pkt.pending_return = True  # keep loop=1, unwind further at service
            return True
        pkt.loop = 2
        self.loop2_count += 1
        self._record("loop2", at, pkt.uid)
        self._clear_recovery(pkt)
        pkt.retry_exclude = {frm}
        return True

    def _deliver_control(self, at: int, frm: int, pkt: SimPacket) -> None:
        node = self.gpsrq_nodes[at]
        node.recv_l[frm] = pkt.signal_value
        self._record("thr_update", at, frm, node.m_thr(frm, self.link(at, frm).storage.m_max))
        if self.metrics_log is not None:
            self._log_metrics(self.link(at, frm).key())
        self._serve(at)

    # --------------------------------------------------------------- decision

    def _greedy_pick(self, at: int, pkt: SimPacket, node: GpsrqNode) -> int | None:
        """Best-scoring admissible neighbour closer to the destination, if any."""
        dst_pos = self.position(pkt.dst)
        base = euclidean_distance(self.position(at), dst_pos)
        out = []
        for v in self.topo.neighbors(at):
            if v in pkt.retry_exclude or node.cache_blocked(v, dst_pos, self.now):
                continue
            d = euclidean_distance(self.position(v), dst_pos)
            if d < base and self._admit(at, v, pkt) is not None:
                out.append((v, self._link_metrics(at, v)[3], d))
        return greedy_choice(out, node.beta)

    def _ccw_pick(self, at: int, pkt: SimPacket, node: GpsrqNode, exclude: set,
                  toward: int | None) -> int | None:
        """First admissible neighbour counterclockwise from the bearing of ``toward``.

        None when no neighbour qualifies or there is no reference node.
        """
        dst_pos = self.position(pkt.dst)
        pool = [(v, self.position(v)) for v in self.topo.neighbors(at)
                if v not in exclude and not node.cache_blocked(v, dst_pos, self.now)
                and self._admit(at, v, pkt) is not None]
        if not pool or toward is None:
            return None
        here = self.position(at)
        return ccw_next_neighbor(here, angle_of(here, self.position(toward)), pool)

    @staticmethod
    def _clear_recovery(pkt: SimPacket) -> None:
        pkt.in_rec = 0
        pkt.rec_position = None
        pkt.rec_if = None
        pkt.recovery_tried = set()

    def _forward_action(self, at: int, target: int, pkt: SimPacket):
        if self._l2_full(at, target):
            return ("wait",)
        cost = self._admit(at, target, pkt)
        if cost is None:
            return ("wait",)
        return ("forward", target, cost)

    def _send_back(self, at: int, pkt: SimPacket, target: int):
        """Return the packet toward ``target`` as a returning loop (loop=1)."""
        action = self._forward_action(at, target, pkt)
        if action[0] == "forward":
            self._clear_recovery(pkt)
            pkt.loop = 1
            self._record("loop_return", at, pkt.uid, target)
        return action

    def _decide(self, at: int, pkt: SimPacket):
        """Routing decision for the head-of-line packet; may mutate the packet.

        Packet state is only touched on decisions that leave the queue, so a
        "wait" can be retried later with unchanged state.
        """
        if pkt.kind == "signaling":
            action = self._forward_action(at, pkt.fixed_egress, pkt)
            if action[0] == "forward":
                self._pending_signals.pop((at, pkt.fixed_egress), None)
            return action

        node = self.gpsrq_nodes[at]
        arrived = pkt.arrived_from

        if pkt.pending_return:
            target = node.upstream.get(pkt.uid, arrived)
            action = self._forward_action(at, target, pkt)
            if action[0] == "forward":
                pkt.pending_return = False
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

        if pkt.in_rec:
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
        """The perimeter walk returned to its entry node: retry alternatives."""
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
        target = arrived if arrived is not None else node.upstream.get(pkt.uid)
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
                    pkt.in_rec = 1
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
        target = node.upstream.get(pkt.uid, arrived)
        if target is None:
            return ("drop", "source")
        return self._send_back(at, pkt, target)

    # -------------------------------------------------------------- signaling

    def _after_key_charge(self, u: int, v: int) -> None:
        for nid in (u, v):
            if self._signal_epoch.get(nid) != self.now:
                self._signal_epoch[nid] = self.now
                self.events.push(self.now, EventKind.SIGNALING_TIMER, (nid,))

    def _link_threshold(self, u: int, v: int, m_max: float) -> float:
        return self.gpsrq_nodes[u].m_thr(v, m_max)

    def _on_signaling_timer(self, nid: int) -> None:
        node = self.gpsrq_nodes[nid]
        m_curs = [self.link(nid, v).storage.m_cur for v in self.topo.neighbors(nid)]
        value = local_mean(m_curs)
        node.l_sent = value
        self._record("signal", nid, value)
        for nbr in self.topo.neighbors(nid):
            pkt = self._control_packet(
                "signaling", nid, nbr, self.signaling_key_cost,
                payload_len=SIGNALING_PAYLOAD_BYTES, signal_value=value, fixed_egress=nbr,
            )
            old = self._pending_signals.get((nid, nbr))
            if old is not None:
                self.queues[nid].remove(old)
            self._pending_signals[(nid, nbr)] = pkt
            self.queues[nid].enqueue(pkt)
        self._serve(nid)

    def _on_cache_expiry(self, nid: int) -> None:
        self.gpsrq_nodes[nid].prune_cache(self.now)

    _dispatch = {
        **Simulation._dispatch,
        EventKind.SIGNALING_TIMER: _on_signaling_timer,
        EventKind.CACHE_EXPIRY: _on_cache_expiry,
    }


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
                hj = 0.01 + self._rng_dv.random()
                self.events.push(hj, EventKind.DV_TIMER, (nid, "hello"))

    def _route_data(self, at: int, frm: int | None, pkt: SimPacket) -> None:
        """Forward by table lookup at once; a refused packet is dropped, not queued."""
        nh = self.dv_nodes[at].next_hop(pkt.dst)
        if nh is None or (at, nh) in self._dead_links:
            cause = "source" if at == pkt.src else "link"
            self._count_drop(cause, pkt, at)
            return
        if not self._send(at, nh, pkt):
            self._count_drop("link", pkt, at)
            if self.cfg.dv_liveness == "probe":
                self._mark_dead(at, nh)

    def _deliver_control(self, at: int, frm: int, pkt: SimPacket) -> None:
        if pkt.kind == "hello":
            self._last_hello[(at, frm)] = self.now
            if (at, frm) in self._dead_links:
                self._dead_links.discard((at, frm))
                self._send_update(at, frm, self.dv_nodes[at].full_dump())
        elif self.dv_nodes[at].process_update(frm, pkt.entries):
            self._schedule_flush(at)

    def _send(self, at: int, target: int, pkt: SimPacket) -> bool:
        """Transmit at once if the link admits the packet; False when it is refused."""
        cost = self._admit(at, target, pkt)
        if cost is not None:
            self._transmit(at, target, pkt, cost)
        return cost is not None

    def _after_key_charge(self, u: int, v: int) -> None:
        self._liveness_recheck(u, v)
        self._liveness_recheck(v, u)

    def _link_threshold(self, u: int, v: int, m_max: float) -> float:
        return m_max

    def _send_update(self, nid: int, nbr: int, entries: list) -> None:
        payload_bits = (DV_FIXED_PAYLOAD_BYTES + DV_ENTRY_BYTES * len(entries)) * 8.0
        pkt = self._control_packet("dv", nid, nbr, payload_bits + self.cfg.link.auth_key_bits,
                                   entries=tuple(entries))
        if not self._send(nid, nbr, pkt):
            self._record("dv_update_lost", nid, nbr)

    def _advertise(self, nid: int, entries: list) -> None:
        for nbr in self.topo.neighbors(nid):
            self._send_update(nid, nbr, entries)
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
            for nbr in self.topo.neighbors(nid):
                self._send_hello(nid, nbr)
                last = self._last_hello.get((nid, nbr), 0.0)
                if self.now - last > self.cfg.dv_dead_interval_s and (nid, nbr) not in self._dead_links:
                    self._mark_dead(nid, nbr)
            self.events.push(
                self.now + self.cfg.dv_hello_interval_s, EventKind.DV_TIMER, (nid, "hello")
            )

    def _send_hello(self, nid: int, nbr: int) -> None:
        pkt = self._control_packet("hello", nid, nbr,
                                   HELLO_PAYLOAD_BYTES * 8.0 + self.cfg.link.auth_key_bits)
        self._send(nid, nbr, pkt)

    def _schedule_flush(self, nid: int) -> None:
        # Merge with an imminent periodic update instead of a separate burst.
        if self._next_periodic.get(nid, math.inf) - self.now <= self.cfg.dv_merge_window_s:
            return
        if nid not in self._flush_pending:
            self._flush_pending.add(nid)
            self.events.push(
                self.now + self.cfg.dv_merge_window_s, EventKind.DV_TIMER, (nid, "flush")
            )

    def _mark_dead(self, nid: int, nbr: int) -> None:
        self._dead_links.add((nid, nbr))
        if self.dv_nodes[nid].mark_link_dead(nbr):
            self._schedule_flush(nid)

    def _liveness_recheck(self, nid: int, nbr: int) -> None:
        if self.cfg.dv_liveness != "probe":
            return
        if (nid, nbr) not in self._dead_links:
            return
        lk = self.link(nid, nbr)
        if (
            public_metric(lk.pub_stats, self.now) <= 1.0
            and lk.storage.can_consume(self.data_key_cost, premium=False)
        ):
            self._dead_links.discard((nid, nbr))
            self._send_update(nid, nbr, self.dv_nodes[nid].full_dump())

    _dispatch = {**Simulation._dispatch, EventKind.DV_TIMER: _on_dv_timer}


# The Simulation subclass that implements each name in config.PROTOCOLS.
PROTOCOL_SIMULATIONS = {"gpsrq": GpsrqSimulation, "dv": DvSimulation}


def run_simulation(cfg: RunConfig, topology: Topology, metrics_log: bool = False) -> RunStats:
    """Run one complete simulation and return its statistics."""
    return Simulation(cfg, topology, metrics_log=metrics_log).run()

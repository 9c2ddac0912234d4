"""Deterministic discrete-event simulation of a trusted-relay QKD network.

One Simulation owns one topology, one link state per edge and one event
loop. A routing decision is made when a packet reaches an idle node or when
it is served from its queue, immediately before it is handed to the link,
so it always sees fresh link state. All randomness comes from named
substreams of the run seed and events with equal firing times process in
scheduling order, which makes complete runs bit-reproducible.

``Simulation`` is the protocol-agnostic core: event loop, hash and trace,
key charging, admission, L2 transmission and accounting.
Each routing protocol is a subclass that fills in a few hooks and adds its
own event handlers. Its module registers it in ``PROTOCOL_SIMULATIONS`` (DV's
in ``dv.py``), and ``Simulation(cfg, topology)`` builds the one ``cfg.protocol``
names. GPSRQ's stays here while perfbench's tracer patches the functions its
decisions call (``greedy_choice``, ``angle_of``, ...) by their names here.
"""

from __future__ import annotations

import logging
import math
from collections import deque
from enum import Enum
from heapq import heappop, heappush
from itertools import chain, count
from typing import NamedTuple

# CPython's built-in SHA-256 gives the same digest as OpenSSL's; importing it
# instead of the OpenSSL-backed module keeps libcrypto out of the process.
try:
    from _sha256 import sha256
except ImportError:  # Python 3.12 and later
    from _sha2 import sha256

from .config import AUTH_KEY_BITS, CLASS_NAMES, DATA_KEY_BITS, MAX_DELAY_S, PACKET_BYTES, RunConfig
# Not called here: perfbench's tracer wraps ccw_next_neighbor by this module's name.
from .geometry import ccw_next_neighbor  # noqa: F401
from .geometry import Position, angle_of, ccw_order, euclidean_distance
from .gpsrq import GpsrqNode, cache_ttl, greedy_choice
from .links import CHARGE_PERIOD_S, MIN_KEY_BITS, KeyStorage, PublicChannelStats, QkdLink
from .metrics import link_metric, local_mean, public_metric, quantum_metric
from .qos import NO_NODES, NO_PACKETS, PriorityQueueSet, SimPacket, TrafficClass, admission_cost
from .rng import substream
from .stats import RunStats
from .topology import Topology, TopologyError, is_connected

logger = logging.getLogger(__name__)

# Wire sizes in bytes. Only these counts enter the model: a data or signaling
# packet carries the QKD header and the command header, a DV update or hello
# only the QKD header. The routing state (recovery indicator, loop indicator,
# recovery interface and position) travels inside these two headers. Each
# packet is built with its wire size (``SimPacket.wire``).
QKD_HEADER_BYTES = 28
COMMAND_HEADER_BYTES = 8
HEADER_OVERHEAD_BYTES = QKD_HEADER_BYTES + COMMAND_HEADER_BYTES
UDP_IP_BYTES = 28
TCP_IP_BYTES = 40
SIGNALING_PAYLOAD_BYTES = 8
SIGNALING_WIRE_BYTES = HEADER_OVERHEAD_BYTES + TCP_IP_BYTES + SIGNALING_PAYLOAD_BYTES
DATA_WIRE_BYTES = HEADER_OVERHEAD_BYTES + UDP_IP_BYTES + PACKET_BYTES
# Modeled reliable-transport handshake around each signaling exchange.
HANDSHAKE_PACKETS = 3
HANDSHAKE_BYTES = 120
# Key bits one signaling message consumes: its payload, and an authentication
# key for it and for each handshake packet.
SIGNALING_KEY_BITS = (
    SIGNALING_PAYLOAD_BYTES * 8.0 + AUTH_KEY_BITS + HANDSHAKE_PACKETS * AUTH_KEY_BITS
)

# Fixed timings in seconds: every link's propagation delay and the fallback
# retry of a GPSRQ node whose head must wait.
PROPAGATION_DELAY_S = 0.001
RETRY_FALLBACK_S = 0.1
# Key establishment: every link charges once per ``CHARGE_PERIOD_S``. A round's
# duration is drawn around the period with this relative deviation, stretched
# by (1 + gain * the public channel's utilization since the last charge), and
# is never shorter than the floor.
ROUND_STDDEV_FRAC = 0.1
ROUND_LOAD_GAIN = 2.0
ROUND_FLOOR_S = 0.1


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

    # Members are singletons, so identity hashing keeps dispatch lookups in C.
    __hash__ = object.__hash__


# Each kind's tag in the hash line; built once so no event reads ``.value``.
KIND_TAG = {kind: kind.value for kind in EventKind}
# Each class's key in the per-class counters; built once so no count reads ``.name``.
CLASS_NAME = {cls: cls.name for cls in TrafficClass}
# Enum members read on every event; a class attribute lookup costs more.
_ARRIVAL = EventKind.PACKET_ARRIVAL
_TRANSMIT_DONE = EventKind.LINK_TRANSMIT_DONE
_END = EventKind.SIMULATION_END
_PREMIUM = TrafficClass.PREMIUM

# Hash lines per ``update``; SHA-256 streams, so the digest does not change.
HASH_BATCH_LINES = 1024
# Hash lines (README) of a forwarded and a source arrival, a transmit-done and any
# other kind; ``%.9f`` and ``%s`` give the bytes of ``f"{fire_at:.9f}"`` and ``str()``.
_FORWARDED_LINE = f"%.9f|{KIND_TAG[_ARRIVAL]}|p%s.%s.%s|%s|%s\n"
_SOURCE_LINE = f"%.9f|{KIND_TAG[_ARRIVAL]}|None|%s|%s\n"
_TRANSMIT_DONE_LINE = f"%.9f|{KIND_TAG[_TRANSMIT_DONE]}|(%s, %s)|p%s.%s.%s|%s\n"
_OTHER_LINE = "%.9f|%s\n"


class SimEvent(NamedTuple):
    fire_at: float
    sequence: int
    kind: EventKind
    payload: tuple


# Builds a SimEvent from a ready tuple, skipping the NamedTuple constructor's
# argument handling; bound once, so a push does no attribute lookup for it.
_new_tuple = tuple.__new__


class EventQueue:
    """Time-ordered event set; equal times resolve by scheduling order.
    Sequence numbers are unique, so heap comparisons never reach ``kind``.

    ``push`` drops an event timed after ``horizon`` before it draws a
    sequence number. A run's ``SimulationEnd`` sits at the horizon and is
    pushed before the run starts, so a dropped event could never have fired."""

    def __init__(self, horizon: float) -> None:
        self.horizon = horizon
        self._heap: list[SimEvent] = []
        self._seq = count()

    def push(self, fire_at: float, kind: EventKind, payload: tuple = ()) -> None:
        if fire_at <= self.horizon:
            heappush(self._heap, _new_tuple(SimEvent, (fire_at, next(self._seq), kind, payload)))

    def pop(self) -> SimEvent:
        return heappop(self._heap)

    def __len__(self) -> int:
        return len(self._heap)


class Simulation:
    """One run. ``metrics_log=True`` keeps a link-metric snapshot per key charge
    and threshold update in ``metrics_log``. ``trace=True`` keeps one tuple per
    model step (arrival, transmission, drop, ...) in ``trace``, which otherwise
    stays empty; ``trace_hash`` covers every event either way."""

    def __new__(cls, cfg: RunConfig, topology: Topology, metrics_log: bool = False,
                trace: bool = False):
        cfg.validate()
        if cls is Simulation:
            cls = PROTOCOL_SIMULATIONS[cfg.protocol]
        return super().__new__(cls)

    def __init__(self, cfg: RunConfig, topology: Topology, metrics_log: bool = False,
                 trace: bool = False):
        if len(topology.nodes) < 2:
            raise TopologyError("need at least two nodes")
        if not is_connected(topology):
            raise TopologyError("topology must be connected")
        self.cfg = cfg
        self.topo = topology
        self.now = 0.0
        self.events = EventQueue(cfg.duration_s)
        self.src = topology.nodes[0][0]
        self.dst = topology.nodes[-1][0]

        self._rng_keys = substream(cfg.seed, "initkeys")
        self._rng_rounds = substream(cfg.seed, "rounds")

        self.links: dict[tuple[int, int], QkdLink] = {}
        for u, v in sorted(topology.edges):
            lo, hi = cfg.init_key_bytes
            init_bits = self._rng_keys.uniform(lo, hi) * 8.0
            m_max = cfg.max_key_bytes * 8.0
            storage = KeyStorage(m_max=m_max, m_cur=min(init_bits, m_max), rate=cfg.rate_bps)
            stats = PublicChannelStats(window_len=cfg.t_avg_window)
            self.links[(u, v)] = QkdLink(u, v, storage, stats, cfg.bandwidth_bps)

        # Each direction's L2 queue, NO_PACKETS until its first packet; its
        # head is the packet on the wire.
        self.l2: dict[tuple[int, int], deque | tuple] = {}
        self._link_by_dir: dict[tuple[int, int], QkdLink] = {}
        for (u, v), lk in self.links.items():
            for d in ((u, v), (v, u)):
                self.l2[d] = NO_PACKETS
                self._link_by_dir[d] = lk

        self.data_class = CLASS_NAMES[cfg.traffic_class]
        self.data_key_cost = DATA_KEY_BITS[cfg.crypto_mode]
        self.data_max_delay = MAX_DELAY_S[self.data_class]

        self._uid = count()
        self._warned_reserve: set[tuple[int, int]] = set()

        self.trace: list[tuple] = []
        self._tracing = trace
        self._hasher = sha256()
        # The batch not yet hashed: each line's format, and all their values in order.
        self._hash_formats: list[str] = []
        self._hash_values: list = []
        self.metrics_log: list[tuple] | None = [] if metrics_log else None

        # The run's counts; the two sums give the means at the end.
        self.stats = RunStats.for_run(cfg, len(topology.nodes))
        self.delay_sum = 0.0
        self.hops_sum = 0

        if cfg.rate_bps > 0.0:
            for key in sorted(self.links):
                self.events.push(CHARGE_PERIOD_S, EventKind.KEY_CHARGE, (key,))
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

    def _after_key_charge(self, u: int, v: int) -> None:
        """React to a charge of link (u, v), before both endpoints are served."""
        raise NotImplementedError

    def _link_threshold(self, u: int, v: int, m_max: float) -> float:
        """Node u's threshold m_thr on its link to v; by default the store's capacity."""
        return m_max

    def _serve(self, at: int) -> None:
        """Serve the packets waiting at ``at`` after its link state changed;
        a protocol without waiting queues has nothing to do."""

    def dump_caches(self) -> list[str]:
        """Per-node exclusion-cache lines; empty for a protocol without caches."""
        return []

    # ------------------------------------------------------------------ utils

    def link(self, u: int, v: int) -> QkdLink:
        return self._link_by_dir[(u, v)]

    def position(self, nid: int) -> Position:
        return self.topo.position(nid)

    def _record(self, *entry) -> None:
        if self._tracing:
            self.trace.append((self.now, *entry))

    def _hash_event(self, ev: SimEvent) -> None:
        """Queue the event's line for ``trace_hash``: its format and its values, read
        now, when the event is popped, because its packet changes later."""
        fire_at, _, kind, payload = ev
        formats, values = self._hash_formats, self._hash_values
        if kind is _ARRIVAL:
            pkt, at, frm = payload
            if pkt is None:
                formats.append(_SOURCE_LINE)
                values += (fire_at, at, frm)
            else:
                formats.append(_FORWARDED_LINE)
                values += (fire_at, pkt.uid, pkt.hop_count, pkt.loop, at, frm)
        elif kind is _TRANSMIT_DONE:
            (u, v), pkt, wire = payload
            formats.append(_TRANSMIT_DONE_LINE)
            values += (fire_at, u, v, pkt.uid, pkt.hop_count, pkt.loop, wire)
        else:
            # No other kind carries a packet.
            formats.append(_OTHER_LINE)
            values += (fire_at, "|".join([KIND_TAG[kind], *map(str, payload[:3])]))
        if len(formats) >= HASH_BATCH_LINES:
            self._flush_hash()

    def _flush_hash(self) -> None:
        """Format the queued lines with one ``%`` and add their bytes to ``trace_hash``.
        The batch is emptied before the text is encoded, which keeps peak memory down."""
        text = "".join(self._hash_formats) % tuple(self._hash_values)
        self._hash_formats.clear()
        self._hash_values.clear()
        self._hasher.update(text.encode())

    def _make_data_packet(self) -> SimPacket:
        return SimPacket(
            uid=next(self._uid),
            kind="data",
            src=self.src,
            dst=self.dst,
            traffic_class=self.data_class,
            wire=DATA_WIRE_BYTES,
            created_at=self.now,
            max_delay=self.data_max_delay,
            key_cost=self.data_key_cost,
        )

    def _control_packet(self, kind: str, src: int, dst: int, key_cost: float, wire: int,
                        **fields) -> SimPacket:
        """A premium routing packet for the neighbour ``dst``; it has no deadline."""
        return SimPacket(
            uid=next(self._uid),
            kind=kind,
            src=src,
            dst=dst,
            traffic_class=TrafficClass.PREMIUM,
            wire=wire,
            created_at=self.now,
            max_delay=math.inf,
            key_cost=key_cost,
            **fields,
        )

    # ------------------------------------------------------------------- run

    def run(self) -> RunStats:
        pop, hash_event, dispatch = self.events.pop, self._hash_event, self._dispatch
        while True:
            ev = pop()
            fire_at, _, kind, payload = ev
            if fire_at < self.now - 1e-9:
                raise SimulationError("event fired before current time")
            self.now = fire_at
            hash_event(ev)
            if kind is _END:
                break
            dispatch[kind](self, *payload)
        self._finalize()
        return self.stats

    def _finalize(self) -> None:
        for key, lk in sorted(self.links.items()):
            err = abs(lk.conservation_error())
            scale = max(1.0, lk.initial_key + lk.storage.charged_total)
            if err > 1e-6 * scale:
                raise SimulationError(f"key accounting broken on link {key}: {err}")
        self._flush_hash()
        st = self.stats
        if st.received:
            st.mean_delay_s = self.delay_sum / st.received
            st.mean_hops = self.hops_sum / st.received
        st.trace_hash = self._hasher.hexdigest()
        if st.in_flight < 0:
            raise SimulationError("negative in-flight count")

    # ------------------------------------------------------------ packet flow

    def _on_packet_arrival(self, pkt: SimPacket | None, at: int, frm: int | None) -> None:
        if pkt is None:
            pkt = self._make_data_packet()
            self.stats.sent += 1
            nxt = self.now + PACKET_BYTES * 8.0 / self.cfg.traffic_rate_bps
            self.events.push(nxt, _ARRIVAL, (None, self.src, None))
        if frm is not None:
            pkt.hop_count += 1
        if self._tracing:
            self._record("arrive", pkt.kind, pkt.uid, at, frm)

        if pkt.kind != "data":
            self._deliver_control(at, frm, pkt)
            return

        if at == pkt.dst:
            self.stats.received += 1
            self.delay_sum += self.now - pkt.created_at
            self.hops_sum += pkt.hop_count
            if self._tracing:
                self._record("deliver", pkt.uid, self.now - pkt.created_at, pkt.hop_count)
            return
        self._route_data(at, frm, pkt)

    def _count_drop(self, cause: str, pkt: SimPacket, at: int) -> None:
        """Count a data packet dropped at ``at`` and record why."""
        st = self.stats
        if cause == "source":
            st.drop_source += 1
        elif cause == "delay":
            st.drop_delay += 1
        elif cause == "link":
            st.drop_link += 1
        elif cause == "queue":
            st.drop_queue += 1
        else:
            raise SimulationError(f"unknown drop cause {cause!r}")
        self._record("drop", cause, pkt.uid, at)

    # ------------------------------------------------------------ transmission

    def _send(self, at: int, target: int, pkt: SimPacket) -> bool:
        """Transmit at once if the link admits the packet; False when it is refused.
        An admitted packet that finds the L2 queue full is lost, data and routing
        updates alike (GPSRQ's queued packets wait at decision time instead)."""
        direction = (at, target)
        if admission_cost(self._link_by_dir[direction], pkt, self.now) is None:
            return False
        if len(self.l2[direction]) <= self.cfg.queue_capacity:
            self._transmit(at, target, pkt)
        elif pkt.kind == "data":
            self._count_drop("queue", pkt, at)
        else:
            self._record("tx_blocked", pkt.kind, at, target)
        return True

    def _transmit(self, at: int, target: int, pkt: SimPacket) -> None:
        """Send ``pkt``, which the link has just admitted and whose L2 queue
        has room, and consume its key cost."""
        direction = (at, target)
        lk = self._link_by_dir[direction]
        premium = pkt.traffic_class == _PREMIUM
        cost = pkt.key_cost
        if not lk.storage.consume(cost, premium):
            raise SimulationError("admission raced ahead of consumption")
        st, wire = self.stats, pkt.wire
        if pkt.kind == "data":
            st.key_data_bits += cost
            lk.consumed_data += cost
        else:
            st.key_routing_bits += cost
            lk.consumed_routing += cost
            st.ovh_pkts += 1
            st.ovh_bytes += wire
            if pkt.kind == "signaling":
                st.ovh_pkts += HANDSHAKE_PACKETS
                st.ovh_bytes += HANDSHAKE_BYTES
        if premium and lk.storage.m_cur < MIN_KEY_BITS:
            st.reserve_dips += 1
            if lk.key() not in self._warned_reserve:
                self._warned_reserve.add(lk.key())
                logger.warning(
                    "premium traffic dipped below the pre-shared reserve on link %s", lk.key()
                )
        if self._tracing:
            self._record("tx", pkt.kind, at, target, wire, lk.storage.m_cur)
        queue = self.l2[direction]
        if queue is NO_PACKETS:
            queue = self.l2[direction] = deque()
        queue.append(pkt)
        if len(queue) == 1:
            done = self.now + wire * 8.0 / lk.bandwidth
            self.events.push(done, _TRANSMIT_DONE, (direction, pkt, wire))

    def _on_transmit_done(self, direction: tuple[int, int], pkt: SimPacket, wire: int) -> None:
        at, target = direction
        lk = self._link_by_dir[direction]
        lk.busy_accum += wire * 8.0 / lk.bandwidth
        self.events.push(self.now + PROPAGATION_DELAY_S, _ARRIVAL, (pkt, target, at))
        queue = self.l2[direction]
        queue.popleft()
        if queue:
            nxt = queue[0]
            done = self.now + nxt.wire * 8.0 / lk.bandwidth
            self.events.push(done, _TRANSMIT_DONE, (direction, nxt, nxt.wire))
        # Freed transmission capacity may unblock the sender's waiting head.
        self._serve(at)

    # ------------------------------------------------------------ key charging

    def _on_key_charge(self, key: tuple[int, int]) -> None:
        lk = self.links[key]
        lk.storage.charge()
        base = self._rng_rounds.gauss(CHARGE_PERIOD_S, ROUND_STDDEV_FRAC * CHARGE_PERIOD_S)
        busy_frac = min(1.0, lk.busy_accum / CHARGE_PERIOD_S)
        lk.busy_accum = 0.0
        duration = max(ROUND_FLOOR_S, base * (1.0 + ROUND_LOAD_GAIN * busy_frac))
        lk.pub_stats.record_key_round(duration, self.now)
        self._record("charge", key, duration)
        if self.metrics_log is not None:
            self._log_metrics(key)

        u, v = key
        self._after_key_charge(u, v)
        # Fresh key may unblock waiting heads at both endpoints.
        self._serve(u)
        self._serve(v)
        self.events.push(self.now + CHARGE_PERIOD_S, EventKind.KEY_CHARGE, (key,))

    def _link_metrics(self, u: int, v: int, lk: QkdLink) -> tuple[float, float, float, float]:
        """(q_frac, q_m, p_m, r_m) of the link ``lk`` between u and v as node u sees it."""
        m_thr = self._link_threshold(u, v, lk.storage.m_max)
        q_frac, q_m = quantum_metric(lk.storage.m_cur, m_thr, lk.storage.m_max)
        p_m = public_metric(lk.pub_stats, self.now)
        return q_frac, q_m, p_m, link_metric(q_m, p_m, self.cfg.alpha)

    def _log_metrics(self, key: tuple[int, int]) -> None:
        self.metrics_log.append((self.now, *key, *self._link_metrics(*key, self.links[key])))

    _dispatch = {
        EventKind.PACKET_ARRIVAL: _on_packet_arrival,
        EventKind.LINK_TRANSMIT_DONE: _on_transmit_done,
        EventKind.KEY_CHARGE: _on_key_charge,
    }


# Each name in config.PROTOCOLS -> its subclass, registered by the protocol's module.
PROTOCOL_SIMULATIONS: dict[str, type[Simulation]] = {}


class GpsrqSimulation(Simulation):
    """QoS-aware geographic routing: greedy forwarding scored by the link
    metric, perimeter recovery, an exclusion cache and returning loops.
    A data packet that reaches a node whose class queues are all empty is
    routed on arrival; otherwise, or when it must wait, it joins its class
    queue and is routed when served."""

    def _start_protocol(self) -> None:
        cfg = self.cfg
        self.queues: dict[int, PriorityQueueSet] = {
            nid: PriorityQueueSet(cfg.queue_capacity) for nid in self.topo.node_ids()
        }
        self._retry_pending: set[int] = set()
        self.gpsrq_nodes = {nid: GpsrqNode(nid) for nid, _ in self.topo.nodes}
        self._signal_epoch: dict[int, float] = {}
        self._pending_signals: dict[tuple[int, int], SimPacket] = {}
        # Nodes do not move and every data packet goes to ``self.dst``, so each
        # node's position and its distance to the destination are fixed for the run.
        self._pos = dict(self.topo.nodes)
        self._dst_pos = self._pos[self.dst]
        self._to_dst = to_dst = {nid: euclidean_distance(p, self._dst_pos)
                                 for nid, p in self._pos.items()}
        # Greedy candidates: each node's strictly closer neighbours, in
        # neighbour order, with their distances to the destination and links.
        links = self._link_by_dir
        self._closer = {nid: tuple((v, to_dst[v], links[(nid, v)])
                                   for v in self.topo.neighbors(nid)
                                   if to_dst[v] < to_dst[nid])
                        for nid in self._pos}
        # Recovery: (node, reference neighbour) -> ccw_order, filled on first use.
        self._ccw_orders: dict[tuple[int, int], list[int]] = {}
        # The payload of every per-node timer, shared so a pending event holds no tuple of its own.
        self._node_payload = {nid: (nid,) for nid in self._pos}

    def dump_caches(self) -> list[str]:
        c = self._dst_pos
        return [f"CACHE {nid} {via} {c.x:.6f} {c.y:.6f} {radius:.6f} {expires_at:.6f}"
                for nid in sorted(self.gpsrq_nodes)
                for (via, radius), expires_at in self.gpsrq_nodes[nid].cache.items()]

    # ---------------------------------------------------------------- arrival

    def _route_data(self, at: int, frm: int | None, pkt: SimPacket) -> None:
        node = self.gpsrq_nodes[at]
        pkt.arrived_from = frm
        if frm is not None and pkt.loop != 1:
            if pkt.upstream is None:
                pkt.upstream = {}
            if pkt.rec_position is not None:
                # Perimeter transits only leave a breadcrumb for unwinding.
                pkt.upstream.setdefault(at, frm)
            else:
                pkt.upstream[at] = frm

        if pkt.loop == 1:
            if not self._absorb_return(node, pkt, frm):
                return
        elif at == pkt.rec_position:
            # The perimeter walk came back to where it started: exclude the
            # edge used for this episode and let service retry alternatives.
            self._add_exclusion(node, pkt.rec_if, pkt.rec_if)

        qs = self.queues[at]
        if not qs.size:
            # An idle node: the packet would be the head, so decide it now. A
            # forward or a drop leaves the queues empty, as serving it would;
            # a wait queues it in an empty class queue, which always has room.
            if not self._decide(at, pkt):
                qs.enqueue(pkt)
                self._schedule_retry(at)
            return
        if not qs.enqueue(pkt):
            self.stats.dropped_by_class[CLASS_NAME[pkt.traffic_class]] += 1
            self._count_drop("queue", pkt, at)
            return
        self._serve(at)

    def _add_exclusion(self, node: GpsrqNode, via: int, block: int) -> None:
        """Exclude ``via`` for the region around the destination reaching halfway
        to ``block``; a run with its cache off keeps no exclusion."""
        if not self.cfg.cache_enabled:
            return
        at, dst_pos = node.node_id, self._dst_pos
        radius = euclidean_distance(self.position(block), dst_pos) / 2.0
        ttl = cache_ttl(self.link(at, via).pub_stats)
        node.add_cache(via, radius, self.now, ttl)
        self.events.push(self.now + ttl, EventKind.CACHE_EXPIRY, self._node_payload[at])
        self._record("cache_add", at, via, dst_pos.x, dst_pos.y, radius)

    def _absorb_return(self, node: GpsrqNode, pkt: SimPacket, frm: int) -> bool:
        """Process a packet returned with the loop flag set.

        Adds the exclusion record, then either continues unwinding (expired
        packets travel back toward the source), drops at the source, or
        converts the packet for a greedy retry that excludes the returner.
        Returns False when the packet died here.
        """
        at = node.node_id
        block = frm if pkt.rec_position is None else pkt.rec_position
        self._add_exclusion(node, frm, block)

        expired = self.now - pkt.created_at > pkt.max_delay
        if expired:
            if at == pkt.src:
                self._count_drop("delay", pkt, at)
                return False
            return True  # keep loop=1, unwind further at service
        pkt.loop = 2
        self.stats.loop2_count += 1
        self._record("loop2", at, pkt.uid)
        self._clear_recovery(pkt)
        pkt.retry_exclude = {frm}
        return True

    def _deliver_control(self, at: int, frm: int, pkt: SimPacket) -> None:
        node = self.gpsrq_nodes[at]
        node.recv_l[frm] = pkt.signal_value
        if self._tracing:
            self._record("thr_update", at, frm, node.m_thr(frm, self.link(at, frm).storage.m_max))
        if self.metrics_log is not None:
            self._log_metrics(self.link(at, frm).key())
        self._serve(at)

    # --------------------------------------------------------------- decision

    def _serve(self, at: int) -> None:
        """Route head-of-line packets in strict priority until one must wait."""
        qs = self.queues[at]
        while qs.size:
            cls, pkt = qs.head()
            if not self._decide(at, pkt):
                self._schedule_retry(at)
                return
            qs.pop(cls)

    def _schedule_retry(self, at: int) -> None:
        if at not in self._retry_pending:
            self._retry_pending.add(at)
            self.events.push(self.now + RETRY_FALLBACK_S, EventKind.RETRY_TIMER,
                             self._node_payload[at])

    def _on_retry_timer(self, nid: int) -> None:
        self._retry_pending.discard(nid)
        self._serve(nid)

    def _greedy_pick(self, at: int, pkt: SimPacket,
                     node: GpsrqNode) -> tuple[int | None, list[int]]:
        """Best-scoring admissible closer neighbour, if any, and the closer
        neighbours whose admission it did not ask: the excluded and cache-blocked.
        Each asked link's public metric is read once, for its admission and its
        score; the score is ``_link_metrics``' link metric."""
        now, exclude = self.now, pkt.retry_exclude
        admitted, unasked = [], []
        for v, d, lk in self._closer[at]:
            # Asked even at a node that holds no exclusion: perfbench's self-test
            # expects every GPSRQ run to count cache lookups here.
            if v in exclude or node.cache_blocked(v, now):
                unasked.append(v)
                continue
            p_m = public_metric(lk.pub_stats, now)
            if admission_cost(lk, pkt, now, p_m) is not None:
                admitted.append((v, d, lk.storage, p_m))
        if len(admitted) < 2:  # a lone candidate wins whatever its score
            return (admitted[0][0] if admitted else None), unasked
        alpha = self.cfg.alpha
        scored = [(v, link_metric(quantum_metric(s.m_cur, node.m_thr(v, s.m_max), s.m_max)[1],
                                  p_m, alpha), d)
                  for v, d, s, p_m in admitted]
        return greedy_choice(scored, self.cfg.beta), unasked

    def _all_refused(self, at: int, pkt: SimPacket, unasked: list[int]) -> bool:
        """True when no link out of ``at`` admits ``pkt``, given that the greedy
        pick found every closer neighbour it asked refused: asks only the rest,
        the closer ones in ``unasked`` and the ones no closer than ``at``."""
        to_dst, links, now = self._to_dst, self._link_by_dir, self.now
        here = to_dst[at]
        farther = (v for v in self.topo.neighbors(at) if to_dst[v] >= here)
        return all(admission_cost(links[(at, v)], pkt, now) is None
                   for v in chain(unasked, farther))

    def _ccw_pick(self, at: int, pkt: SimPacket, node: GpsrqNode, exclude: set | frozenset,
                  toward: int) -> int | None:
        """First admissible neighbour counterclockwise from the bearing of ``toward``;
        None when none qualifies."""
        order = self._ccw_orders.get((at, toward))
        if order is None:
            pos = self._pos
            order = self._ccw_orders[(at, toward)] = ccw_order(
                pos[at], angle_of(pos[at], pos[toward]),
                [(v, pos[v]) for v in self.topo.neighbors(at)])
        # A node that holds no exclusion blocks nothing, so its cache is not asked.
        now, links, blocked = self.now, self._link_by_dir, node.blocked_until
        for v in order:
            if (v not in exclude and not (blocked and node.cache_blocked(v, now))
                    and admission_cost(links[(at, v)], pkt, now) is not None):
                return v
        return None

    @staticmethod
    def _upstream(pkt: SimPacket, at: int, default: int | None = None) -> int | None:
        """The neighbour ``pkt`` first reached ``at`` from, or ``default``."""
        return pkt.upstream.get(at, default) if pkt.upstream else default

    @staticmethod
    def _clear_recovery(pkt: SimPacket) -> None:
        pkt.rec_position = None
        pkt.rec_if = None
        pkt.recovery_tried = NO_NODES

    def _can_forward(self, at: int, target: int, pkt: SimPacket, admitted: bool = False) -> bool:
        """True unless the L2 queue to ``target`` is full or its link refuses
        the packet; ``admitted`` says that a pick has just asked the link."""
        direction = (at, target)
        return len(self.l2[direction]) <= self.cfg.queue_capacity and (
            admitted or admission_cost(self._link_by_dir[direction], pkt, self.now) is not None)

    def _forward(self, at: int, target: int, pkt: SimPacket) -> bool:
        """Count ``pkt`` served and transmit it; True, as the decision that sent it returns."""
        self.stats.served_by_class[CLASS_NAME[pkt.traffic_class]] += 1
        self._transmit(at, target, pkt)
        return True

    def _send_back(self, at: int, pkt: SimPacket, target: int) -> bool:
        """Return the packet toward ``target`` as a returning loop (loop=1);
        False when it must wait."""
        if not self._can_forward(at, target, pkt):
            return False
        self._clear_recovery(pkt)
        pkt.loop = 1
        self._record("loop_return", at, pkt.uid, target)
        return self._forward(at, target, pkt)

    def _dead_end(self, at: int, pkt: SimPacket, target: int) -> bool:
        """Send the packet back toward ``target``; drop it at the source."""
        if at == pkt.src:
            self._count_drop("source", pkt, at)
            return True
        return self._send_back(at, pkt, target)

    def _decide(self, at: int, pkt: SimPacket) -> bool:
        """Route the head-of-line packet: forward or drop it and return True,
        or return False when it must wait. May mutate the packet.

        In order: signaling, an expired return unwinding toward the source
        (loop 1), delay return, perimeter transit away from the entry node
        (ended at a node closer to the destination), greedy, perimeter entry
        or re-entry, dead end.
        Packet state is only touched when the packet leaves, so a wait can be
        retried later with unchanged state; each trace record of a forward
        comes before its ``tx``.
        """
        if pkt.kind == "signaling":
            if not self._can_forward(at, pkt.dst, pkt):
                return False
            self._pending_signals.pop((at, pkt.dst), None)
            return self._forward(at, pkt.dst, pkt)

        node = self.gpsrq_nodes[at]
        arrived = pkt.arrived_from

        if pkt.loop == 1:
            target = self._upstream(pkt, at, arrived)
            if not self._can_forward(at, target, pkt):
                return False
            self._record("loop_return", at, pkt.uid, target)
            return self._forward(at, target, pkt)

        if (
            pkt.loop == 0
            and at != pkt.src
            and arrived is not None
            and self.now - pkt.created_at > pkt.max_delay
        ):
            if not self._can_forward(at, arrived, pkt):
                return False
            pkt.loop = 1
            self._record("delay_return", at, pkt.uid, arrived)
            return self._forward(at, arrived, pkt)

        at_entry = at == pkt.rec_position
        if pkt.rec_position is not None and not at_entry:
            if self._to_dst[at] < self._to_dst[pkt.rec_position]:
                self._clear_recovery(pkt)
                self._record("recovery_exit", at, pkt.uid)
            else:
                v = self._ccw_pick(at, pkt, node, NO_NODES, arrived)
                if v is None:
                    return self._send_back(at, pkt, arrived)
                if not self._can_forward(at, v, pkt, admitted=True):
                    return False
                return self._forward(at, v, pkt)

        choice, unasked = self._greedy_pick(at, pkt, node)
        if choice is not None:
            if not self._can_forward(at, choice, pkt, admitted=True):
                return False
            if at_entry:  # the only packets here that still hold recovery state
                self._clear_recovery(pkt)
            pkt.retry_exclude = NO_NODES
            return self._forward(at, choice, pkt)

        if at_entry:
            # The walk came back: retry the edges not yet tried this episode.
            exclude = set(pkt.recovery_tried)
            target = arrived
        elif self._all_refused(at, pkt, unasked):
            return False  # no serviceable link: hold for reprocessing
        elif pkt.loop != 0:  # loop == 2: a retried packet hit another dead end
            return self._dead_end(at, pkt, self._upstream(pkt, at, arrived))
        else:
            exclude = set(pkt.retry_exclude)
            target = arrived
        if arrived is not None:
            exclude.add(arrived)
        v = self._ccw_pick(at, pkt, node, exclude, pkt.dst)
        if v is None:
            return self._dead_end(at, pkt, target)
        if not self._can_forward(at, v, pkt, admitted=True):
            return False
        if not at_entry:
            pkt.rec_position = at
            pkt.recovery_tried = set()
            pkt.retry_exclude = set()
        pkt.rec_if = v
        pkt.recovery_tried.add(v)
        self._record("recovery_enter", at, pkt.uid, v)
        return self._forward(at, v, pkt)

    # -------------------------------------------------------------- signaling

    def _after_key_charge(self, u: int, v: int) -> None:
        for nid in (u, v):
            if self._signal_epoch.get(nid) != self.now:
                self._signal_epoch[nid] = self.now
                self.events.push(self.now, EventKind.SIGNALING_TIMER, self._node_payload[nid])

    def _link_threshold(self, u: int, v: int, m_max: float) -> float:
        return self.gpsrq_nodes[u].m_thr(v, m_max)

    def _on_signaling_timer(self, nid: int) -> None:
        node = self.gpsrq_nodes[nid]
        m_curs = [self.link(nid, v).storage.m_cur for v in self.topo.neighbors(nid)]
        value = local_mean(m_curs)
        node.l_sent = value
        self._record("signal", nid, value)
        queue = self.queues[nid]
        for nbr in self.topo.neighbors(nid):
            pkt = self._control_packet("signaling", nid, nbr, SIGNALING_KEY_BITS,
                                       SIGNALING_WIRE_BYTES, signal_value=value)
            old = self._pending_signals.pop((nid, nbr), None)
            if old is not None:
                queue.remove(old)
            if queue.enqueue(pkt):
                self._pending_signals[(nid, nbr)] = pkt
            else:
                self.stats.dropped_by_class[CLASS_NAME[pkt.traffic_class]] += 1
                self._record("signal_refused", nid, nbr)
        self._serve(nid)

    def _on_cache_expiry(self, nid: int) -> None:
        self.gpsrq_nodes[nid].prune_cache(self.now)

    _dispatch = {
        **Simulation._dispatch,
        EventKind.RETRY_TIMER: _on_retry_timer,
        EventKind.SIGNALING_TIMER: _on_signaling_timer,
        EventKind.CACHE_EXPIRY: _on_cache_expiry,
    }


PROTOCOL_SIMULATIONS["gpsrq"] = GpsrqSimulation


def run_simulation(cfg: RunConfig, topology: Topology) -> RunStats:
    """Run one complete simulation and return its statistics."""
    return Simulation(cfg, topology).run()

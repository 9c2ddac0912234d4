"""Traffic classes, packets, strict-priority waiting queues and admission control.

Three traffic classes are distinguished by DSCP code point. Post-processing
and signaling traffic is premium and may consume the pre-shared key reserve;
application traffic is served only while the store stays above the reserve.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import IntEnum

from .links import QkdLink
from .metrics import public_metric


class TrafficClass(IntEnum):
    """Traffic classes with their DSCP code points as values."""

    BEST_EFFORT = 0
    REAL_TIME = 46
    PREMIUM = 56


# Read on every admission; an Enum class attribute lookup costs more.
_PREMIUM = TrafficClass.PREMIUM
# GPSRQ's shared empty set of neighbours: a packet's default exclusions.
NO_NODES: frozenset = frozenset()
# The shared stand-in for a queue that has never held a packet; the first
# packet replaces it with a deque, so an idle queue costs no deque.
NO_PACKETS: tuple = ()

PRIORITY_ORDER: tuple[TrafficClass, ...] = (
    TrafficClass.PREMIUM,
    TrafficClass.REAL_TIME,
    TrafficClass.BEST_EFFORT,
)


@dataclass(slots=True)
class SimPacket:
    uid: int
    kind: str  # "data" | "signaling" | "dv" | "hello"
    src: int
    dst: int
    traffic_class: TrafficClass
    wire: int  # bytes on the wire
    created_at: float
    max_delay: float
    key_cost: float
    loop: int = 0
    # GPSRQ: the node where perimeter recovery began; None outside recovery.
    rec_position: int | None = None
    rec_if: int | None = None
    hop_count: int = 0
    # GPSRQ: the neighbour this packet last arrived from; None at the source.
    arrived_from: int | None = None
    # GPSRQ: one shared empty default; the engine assigns a fresh set before
    # any add, so an add on the default fails loudly.
    retry_exclude: set | frozenset = NO_NODES
    recovery_tried: set | frozenset = NO_NODES
    signal_value: float | None = None
    entries: tuple = ()
    # GPSRQ: node -> the neighbour this packet came from, made on first use.
    upstream: dict | None = None


class PriorityQueueSet:
    """One bounded FIFO per traffic class with strict priority service.

    ``size`` counts the packets in all class queues, so a caller can see an
    empty set without scanning the queues. A class queue is ``NO_PACKETS``
    until its first packet arrives."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.queues: dict[TrafficClass, deque | tuple] = dict.fromkeys(PRIORITY_ORDER, NO_PACKETS)
        self.size = 0

    def enqueue(self, pkt: SimPacket) -> bool:
        q = self.queues[pkt.traffic_class]
        if len(q) >= self.capacity:
            return False
        if q is NO_PACKETS:
            q = self.queues[pkt.traffic_class] = deque()
        q.append(pkt)
        self.size += 1
        return True

    def head(self) -> tuple[TrafficClass, SimPacket] | None:
        for cls in PRIORITY_ORDER:
            q = self.queues[cls]
            if q:
                return cls, q[0]
        return None

    def pop(self, cls: TrafficClass) -> SimPacket:
        pkt = self.queues[cls].popleft()
        self.size -= 1
        return pkt

    def remove(self, pkt: SimPacket) -> bool:
        q = self.queues[pkt.traffic_class]
        if q is NO_PACKETS:
            return False
        try:
            q.remove(pkt)
        except ValueError:
            return False
        self.size -= 1
        return True


def admission_cost(link: QkdLink, pkt: SimPacket, now: float,
                   p_m: float | None = None) -> float | None:
    """Key bits the link must supply to serve the packet now, or None if refused.

    Admission requires both enough key material for the packet's class and a
    public channel that is not flagged as failing. ``p_m`` is the link's
    public metric at ``now`` when the caller has already read it.
    """
    if p_m is None:
        p_m = public_metric(link.pub_stats, now)
    if p_m > 1.0:
        return None
    premium = pkt.traffic_class == _PREMIUM
    if link.storage.can_consume(pkt.key_cost, premium):
        return pkt.key_cost
    return None

"""Traffic classes, packets, strict-priority waiting queues and admission control.

Three traffic classes are distinguished by DSCP code point. Post-processing
and signaling traffic is premium and may consume the pre-shared key reserve;
application traffic is served only while the store stays above the reserve.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from enum import IntEnum

from .headers import (
    HEADER_OVERHEAD_BYTES,
    QkdCommandHeader,
    QkdHeader,
    encode_ms16,
    serialize_command_header,
    serialize_qkd_header,
)
from .links import QkdLink
from .metrics import public_metric


class TrafficClass(IntEnum):
    """Traffic classes with their DSCP code points as values."""

    BEST_EFFORT = 0
    REAL_TIME = 46
    PREMIUM = 56


PRIORITY_ORDER: tuple[TrafficClass, ...] = (
    TrafficClass.PREMIUM,
    TrafficClass.REAL_TIME,
    TrafficClass.BEST_EFFORT,
)

CRYPTO_MODES = ("otp", "aes")

PREMIUM_TAGS = frozenset({"postprocessing", "signaling", "routing"})


def classify(app_tag: str, flow_class: TrafficClass | None = None) -> TrafficClass:
    """Map an application tag to a traffic class; unknown tags down-class."""
    if app_tag in PREMIUM_TAGS:
        return TrafficClass.PREMIUM
    if app_tag == "application" and flow_class is not None:
        return flow_class
    return TrafficClass.BEST_EFFORT


@dataclass(frozen=True, slots=True)
class CryptoPolicy:
    """Per-flow key-consumption accounting.

    In "otp" mode every payload bit consumes one key bit; in "aes" mode a
    session key is amortized over a refresh window of packets. Either way a
    fixed authentication key is drawn per packet to produce the tag.
    """

    mode: str = "otp"
    auth_key_bits: int = 256
    auth_tag_bits: int = 32
    aes_session_key_bits: int = 256
    aes_refresh_packets: int = 100

    def __post_init__(self) -> None:
        if self.mode not in CRYPTO_MODES:
            raise ValueError(f"unknown crypto mode {self.mode!r}")
        if self.auth_key_bits <= 0 or self.aes_session_key_bits <= 0 or self.aes_refresh_packets <= 0:
            raise ValueError("crypto sizes must be positive")

    def key_cost(self, payload_bits: float) -> float:
        """Key bits consumed to encrypt and authenticate one packet."""
        if self.mode == "otp":
            return payload_bits + self.auth_key_bits
        return self.aes_session_key_bits / self.aes_refresh_packets + self.auth_key_bits

    def ratio(self, payload_bits: float) -> float:
        """Key bits consumed per payload bit (above 1 for OTP with authentication)."""
        return self.key_cost(payload_bits) / payload_bits


@dataclass(slots=True)
class SimPacket:
    uid: int
    kind: str  # "data" | "signaling" | "dv" | "hello"
    src: int
    dst: int
    traffic_class: TrafficClass
    payload_len: int
    created_at: float
    max_delay: float
    key_cost: float
    loop: int = 0
    in_rec: int = 0
    rec_position: int | None = None
    rec_if: int | None = None
    hop_count: int = 0
    arrived_from: int | None = None
    pending_return: bool = False
    retry_exclude: set = field(default_factory=set)
    recovery_tried: set = field(default_factory=set)
    signal_value: float | None = None
    fixed_egress: int | None = None
    entries: tuple = ()


def _wire_length(pkt: SimPacket) -> int:
    return (pkt.payload_len + HEADER_OVERHEAD_BYTES) & 0xFFFFFFFF


def build_headers(pkt: SimPacket, channel: int = 0) -> tuple[QkdHeader, QkdCommandHeader]:
    """Rearrange live routing state into the two wire headers."""
    qkd = QkdHeader(
        length=_wire_length(pkt),
        message_id=pkt.uid & 0xFFFFFFFF,
        e=1,
        a=1,
        z=0,
        v=1,
        r=pkt.in_rec & 0b11,
        l=pkt.loop & 0b11,
        channel=channel & 0xFFFF,
        max_delay=encode_ms16(pkt.max_delay) if math.isfinite(pkt.max_delay) else 0,
        timestamp=encode_ms16(pkt.created_at),
        encryption_key_id=pkt.uid & 0xFFFFFFFF,
        authentication_key_id=pkt.uid & 0xFFFFFFFF,
        authentication_tag=0,
    )
    cmd = QkdCommandHeader(
        protocol=17,
        command=0,
        rec_if=(pkt.rec_if or 0) & 0xFFFF,
        rec_position=(pkt.rec_position or 0) & 0xFFFF,
    )
    return qkd, cmd


def serialize_headers(pkt: SimPacket, channel: int = 0) -> bytes:
    """36-byte wire encoding of both headers for one packet.

    A packet without a deadline (``max_delay`` infinite, as on every
    signaling, DV and hello packet) carries max_delay 0.
    """
    qkd, cmd = build_headers(pkt, channel)
    return serialize_qkd_header(qkd) + serialize_command_header(cmd)


class PriorityQueueSet:
    """One bounded FIFO per traffic class with strict priority service."""

    def __init__(self, capacity: int = 1000):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self.queues: dict[TrafficClass, deque] = {c: deque() for c in PRIORITY_ORDER}

    def enqueue(self, pkt: SimPacket) -> bool:
        q = self.queues[pkt.traffic_class]
        if len(q) >= self.capacity:
            return False
        q.append(pkt)
        return True

    def head(self) -> tuple[TrafficClass, SimPacket] | None:
        for cls in PRIORITY_ORDER:
            q = self.queues[cls]
            if q:
                return cls, q[0]
        return None

    def pop(self, cls: TrafficClass) -> SimPacket:
        return self.queues[cls].popleft()

    def remove(self, pkt: SimPacket) -> bool:
        q = self.queues[pkt.traffic_class]
        try:
            q.remove(pkt)
            return True
        except ValueError:
            return False

    def __len__(self) -> int:
        return sum(len(q) for q in self.queues.values())


def admission_cost(link: QkdLink, pkt: SimPacket, now: float) -> float | None:
    """Key bits the link must supply to serve the packet now, or None if refused.

    Admission requires both enough key material for the packet's class and a
    public channel that is not flagged as failing.
    """
    if public_metric(link.pub_stats, now) > 1.0:
        return None
    premium = pkt.traffic_class == TrafficClass.PREMIUM
    if link.storage.can_consume(pkt.key_cost, premium):
        return pkt.key_cost
    return None

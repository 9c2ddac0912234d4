"""Bit-exact wire layout of the QKD header and the QKD command header.

The QKD header is 28 bytes, the command header 8 bytes; routing state
(recovery indicator, loop indicator, recovery interface and position)
is carried inside these two headers rather than in a separate one. A
max_delay of 0 means the packet has no deadline (premium control traffic).

Normative bit offsets, most-significant bit first:

==================  ======  =============================================
QKD header field    bits    byte offset
==================  ======  =============================================
length              32      0..3
message_id          32      4..7
e / a               4 / 4   8   (e in the high nibble)
z / v / r / l       2 each  9   (z bits 7..6, v 5..4, r 3..2, l 1..0)
channel             16      10..11
max_delay           16      12..13  (milliseconds, modulo 2^16; 0 = none)
timestamp           16      14..15  (milliseconds, modulo 2^16)
encryption_key_id   32      16..19
authentication_key_id  32   20..23
authentication_tag  32      24..27
==================  ======  =============================================

==================  ======  ====================
Command header      bits    byte offset
==================  ======  ====================
protocol            16      0..1
command             16      2..3
rec_if              16      4..5
rec_position        16      6..7
==================  ======  ====================
"""

from __future__ import annotations

from dataclasses import dataclass

QKD_HEADER_BYTES = 28
COMMAND_HEADER_BYTES = 8
HEADER_OVERHEAD_BYTES = QKD_HEADER_BYTES + COMMAND_HEADER_BYTES

MS16_MODULUS = 1 << 16
MS16_HORIZON = 1 << 15


class HeaderFieldError(ValueError):
    """A header field does not fit its declared bit width."""


@dataclass(slots=True)
class QkdHeader:
    length: int = 0
    message_id: int = 0
    e: int = 0
    a: int = 0
    z: int = 0
    v: int = 0
    r: int = 0
    l: int = 0
    channel: int = 0
    max_delay: int = 0
    timestamp: int = 0
    encryption_key_id: int = 0
    authentication_key_id: int = 0
    authentication_tag: int = 0


@dataclass(slots=True)
class QkdCommandHeader:
    protocol: int = 0
    command: int = 0
    rec_if: int = 0
    rec_position: int = 0


QKD_FIELDS: tuple[tuple[str, int], ...] = (
    ("length", 32),
    ("message_id", 32),
    ("e", 4),
    ("a", 4),
    ("z", 2),
    ("v", 2),
    ("r", 2),
    ("l", 2),
    ("channel", 16),
    ("max_delay", 16),
    ("timestamp", 16),
    ("encryption_key_id", 32),
    ("authentication_key_id", 32),
    ("authentication_tag", 32),
)

COMMAND_FIELDS: tuple[tuple[str, int], ...] = (
    ("protocol", 16),
    ("command", 16),
    ("rec_if", 16),
    ("rec_position", 16),
)


def _pack(fields: tuple[tuple[str, int], ...], obj: object, total_bytes: int) -> bytes:
    acc = 0
    for name, width in fields:
        value = getattr(obj, name)
        if not isinstance(value, int) or not (0 <= value < (1 << width)):
            raise HeaderFieldError(f"{name}={value!r} does not fit in {width} bits")
        acc = (acc << width) | value
    return acc.to_bytes(total_bytes, "big")


def _unpack(fields: tuple[tuple[str, int], ...], data: bytes, total_bytes: int) -> dict[str, int]:
    if len(data) != total_bytes:
        raise HeaderFieldError(f"expected {total_bytes} bytes, got {len(data)}")
    acc = int.from_bytes(data, "big")
    out: dict[str, int] = {}
    remaining = total_bytes * 8
    for name, width in fields:
        remaining -= width
        out[name] = (acc >> remaining) & ((1 << width) - 1)
    return out


def serialize_qkd_header(header: QkdHeader) -> bytes:
    return _pack(QKD_FIELDS, header, QKD_HEADER_BYTES)


def deserialize_qkd_header(data: bytes) -> QkdHeader:
    return QkdHeader(**_unpack(QKD_FIELDS, data, QKD_HEADER_BYTES))


def serialize_command_header(header: QkdCommandHeader) -> bytes:
    return _pack(COMMAND_FIELDS, header, COMMAND_HEADER_BYTES)


def deserialize_command_header(data: bytes) -> QkdCommandHeader:
    return QkdCommandHeader(**_unpack(COMMAND_FIELDS, data, COMMAND_HEADER_BYTES))


def encode_ms16(seconds: float) -> int:
    """Encode a time value as milliseconds modulo 2^16."""
    return int(round(seconds * 1000.0)) % MS16_MODULUS


def ms16_delta(later: int, earlier: int) -> int:
    """Signed millisecond difference of two 16-bit stamps within a 32 s horizon."""
    d = (later - earlier) % MS16_MODULUS
    return d if d < MS16_HORIZON else d - MS16_MODULUS

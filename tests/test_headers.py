import math

import pytest
from hypothesis import given, strategies as st

from qkdsim.headers import (
    COMMAND_FIELDS,
    COMMAND_HEADER_BYTES,
    HEADER_OVERHEAD_BYTES,
    HeaderFieldError,
    QKD_FIELDS,
    QKD_HEADER_BYTES,
    QkdCommandHeader,
    QkdHeader,
    deserialize_command_header,
    deserialize_qkd_header,
    encode_ms16,
    ms16_delta,
    serialize_command_header,
    serialize_qkd_header,
)
from qkdsim.qos import SimPacket, TrafficClass, serialize_headers


def test_declared_sizes():
    assert sum(w for _, w in QKD_FIELDS) == QKD_HEADER_BYTES * 8 == 224
    assert sum(w for _, w in COMMAND_FIELDS) == COMMAND_HEADER_BYTES * 8 == 64
    assert HEADER_OVERHEAD_BYTES == 36


def test_serialized_lengths():
    assert len(serialize_qkd_header(QkdHeader())) == 28
    assert len(serialize_command_header(QkdCommandHeader())) == 8


def _field_strategy(fields):
    return st.fixed_dictionaries(
        {name: st.integers(0, (1 << width) - 1) for name, width in fields}
    )


@given(_field_strategy(QKD_FIELDS))
def test_qkd_header_round_trip(values):
    header = QkdHeader(**values)
    assert deserialize_qkd_header(serialize_qkd_header(header)) == header


@given(_field_strategy(COMMAND_FIELDS))
def test_command_header_round_trip(values):
    header = QkdCommandHeader(**values)
    assert deserialize_command_header(serialize_command_header(header)) == header


def test_flag_bit_offsets():
    # Recovery indicator occupies bits 3..2 and loop bits 1..0 of byte 9.
    raw = serialize_qkd_header(QkdHeader(r=1, l=2))
    assert raw[9] == 0b0000_0110
    raw = serialize_qkd_header(QkdHeader(z=3, v=1, r=1, l=2))
    assert raw[9] == 0b1101_0110


def test_nibble_offsets():
    raw = serialize_qkd_header(QkdHeader(e=0xA, a=0x5))
    assert raw[8] == 0xA5


def test_wide_field_offsets():
    raw = serialize_qkd_header(QkdHeader(length=0x01020304, channel=0xBEEF))
    assert raw[0:4] == bytes([1, 2, 3, 4])
    assert raw[10:12] == b"\xbe\xef"


def test_command_header_layout():
    raw = serialize_command_header(
        QkdCommandHeader(protocol=0x1111, command=0x2222, rec_if=0x3333, rec_position=0x4444)
    )
    assert raw == bytes.fromhex("1111222233334444")


def test_field_overflow_rejected():
    with pytest.raises(HeaderFieldError):
        serialize_qkd_header(QkdHeader(e=16))
    with pytest.raises(HeaderFieldError):
        serialize_qkd_header(QkdHeader(l=4))
    with pytest.raises(HeaderFieldError):
        serialize_command_header(QkdCommandHeader(rec_if=1 << 16))


def test_deserialize_wrong_length_rejected():
    with pytest.raises(HeaderFieldError):
        deserialize_qkd_header(b"\x00" * 27)


# --- packet-level serialization ---------------------------------------------

def _packet(**kw):
    base = dict(
        uid=77,
        kind="data",
        src=1,
        dst=2,
        traffic_class=TrafficClass.BEST_EFFORT,
        payload_len=512,
        created_at=1.25,
        max_delay=5.0,
        key_cost=4352.0,
    )
    base.update(kw)
    return SimPacket(**base)


def test_packet_headers_are_36_bytes():
    assert len(serialize_headers(_packet())) == 36


def test_packet_routing_state_lands_in_headers():
    pkt = _packet(loop=2, in_rec=1, rec_if=7, rec_position=9)
    raw = serialize_headers(pkt)
    qkd = deserialize_qkd_header(raw[:28])
    cmd = deserialize_command_header(raw[28:])
    assert qkd.r == 1
    assert qkd.l == 2
    assert cmd.rec_if == 7
    assert cmd.rec_position == 9
    assert qkd.timestamp == encode_ms16(1.25)
    assert qkd.max_delay == encode_ms16(5.0)


def test_signaling_packet_without_deadline_round_trips():
    pkt = _packet(kind="signaling", traffic_class=TrafficClass.PREMIUM,
                  payload_len=8, max_delay=math.inf)
    raw = serialize_headers(pkt)
    assert len(raw) == 36
    qkd = deserialize_qkd_header(raw[:28])
    cmd = deserialize_command_header(raw[28:])
    assert qkd.max_delay == 0  # no deadline
    assert qkd.length == 8 + HEADER_OVERHEAD_BYTES
    assert serialize_qkd_header(qkd) + serialize_command_header(cmd) == raw


# --- 16-bit millisecond stamps ----------------------------------------------

def test_encode_ms16_wraps():
    assert encode_ms16(1.25) == 1250
    assert encode_ms16(65.536) == 0
    assert encode_ms16(70.0) == 70_000 - 65_536


def test_ms16_delta_plain_and_wrapped():
    assert ms16_delta(1500, 1250) == 250
    late = encode_ms16(66.0)   # wrapped stamp
    early = encode_ms16(60.0)
    assert ms16_delta(late, early) == 6000


def test_ms16_delta_signed_window():
    assert ms16_delta(100, 200) == -100

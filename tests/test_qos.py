from collections import Counter

import pytest
from hypothesis import given, strategies as st

from helpers import two_closer_sim
from qkdsim.config import (
    AES_REFRESH_PACKETS, AES_SESSION_KEY_BITS, CLASS_NAMES, DATA_KEY_BITS, RunConfig,
)
from qkdsim.engine import Simulation
from qkdsim.links import KeyStorage, PublicChannelStats, QkdLink
from qkdsim.metrics import public_metric
from qkdsim.qos import (
    PRIORITY_ORDER,
    PriorityQueueSet,
    SimPacket,
    TrafficClass,
    admission_cost,
)
from qkdsim.topology import TopologySpec, generate_topology


def _packet(cls=TrafficClass.BEST_EFFORT, cost=4352.0, uid=0):
    return SimPacket(
        uid=uid,
        kind="data",
        src=0,
        dst=1,
        traffic_class=cls,
        wire=576,
        created_at=0.0,
        max_delay=5.0,
        key_cost=cost,
    )


# --- classification -----------------------------------------------------------

def test_dscp_code_points():
    assert TrafficClass.BEST_EFFORT.value == 0
    assert TrafficClass.REAL_TIME.value == 46
    assert TrafficClass.PREMIUM.value == 56


def test_application_flow_class_respected():
    # GPSRQ counts every packet it forwards, whether decided on arrival or from
    # its class queue, so the data transmissions count under the flow's class
    # and the signaling under PREMIUM.
    for name in ("best_effort", "real_time"):
        cfg = RunConfig(seed=2, duration_s=10.0)
        cfg.traffic_class = name
        sim = Simulation(cfg, generate_topology(TopologySpec(node_count=10), 2), trace=True)
        served = sim.run().served_by_class
        sent = Counter(entry[2] for entry in sim.trace if entry[1] == "tx")
        assert sent["data"] > 0 and sent["signaling"] > 0
        expected = {c.name: 0 for c in PRIORITY_ORDER}
        expected[CLASS_NAMES[name].name] = sent["data"]
        expected["PREMIUM"] = sent["signaling"]
        assert served == expected


# --- crypto accounting ----------------------------------------------------------

def test_otp_key_cost_512_byte_packet():
    assert DATA_KEY_BITS["otp"] == 4096 + 256


def test_otp_ratio_above_one():
    assert DATA_KEY_BITS["otp"] / (512 * 8) > 1.0


def test_aes_key_cost_amortized():
    assert (AES_SESSION_KEY_BITS, AES_REFRESH_PACKETS) == (256, 100)
    assert DATA_KEY_BITS["aes"] == pytest.approx(AES_SESSION_KEY_BITS / AES_REFRESH_PACKETS + 256)
    assert DATA_KEY_BITS["aes"] / (512 * 8) < 1.0


# --- priority queues -------------------------------------------------------------

def test_fifo_identity():
    qs = PriorityQueueSet(capacity=10)
    pkt = _packet()
    assert qs.enqueue(pkt)
    cls, head = qs.head()
    assert head is pkt
    assert qs.pop(cls) is pkt
    assert qs.head() is None


def test_strict_priority_order():
    qs = PriorityQueueSet(capacity=10)
    be = _packet(TrafficClass.BEST_EFFORT, uid=1)
    rt = _packet(TrafficClass.REAL_TIME, uid=2)
    pm = _packet(TrafficClass.PREMIUM, uid=3)
    for p in (be, rt, pm):
        qs.enqueue(p)
    order = []
    while (head := qs.head()) is not None:
        order.append(qs.pop(head[0]).uid)
    assert order == [3, 2, 1]


def test_capacity_drop_counted():
    qs = PriorityQueueSet(capacity=2)
    assert qs.enqueue(_packet(uid=1))
    assert qs.enqueue(_packet(uid=2))
    assert not qs.enqueue(_packet(uid=3))
    assert [len(q) for q in qs.queues.values()] == [0, 0, 2]


def test_remove_specific_packet():
    qs = PriorityQueueSet(capacity=5)
    a, b = _packet(uid=1), _packet(uid=2)
    qs.enqueue(a)
    qs.enqueue(b)
    qs.remove(a)
    assert qs.head()[1] is b
    assert qs.size == 1


@given(st.lists(st.sampled_from(list(TrafficClass)), max_size=40))
def test_service_order_is_priority_then_fifo(classes):
    qs = PriorityQueueSet(capacity=100)
    for uid, cls in enumerate(classes):
        qs.enqueue(_packet(cls, uid=uid))
    drained = []
    while (head := qs.head()) is not None:
        drained.append(qs.pop(head[0]))
    # Strict priority between classes, arrival order within a class.
    expected = [
        pkt for cls in PRIORITY_ORDER
        for pkt in sorted((p for p in drained if p.traffic_class is cls),
                          key=lambda p: p.uid)
    ]
    assert [p.uid for p in drained] == [p.uid for p in expected]
    assert len(drained) == len(classes)


@given(st.lists(st.sampled_from(list(TrafficClass)), min_size=1, max_size=6),
       st.lists(st.tuples(st.sampled_from(("enqueue", "pop", "remove")), st.integers(0, 5)),
                max_size=60))
def test_size_counts_the_queued_packets(classes, ops):
    # Two slots per class, so some enqueues are refused; only a queued packet is removed.
    qs = PriorityQueueSet(capacity=2)
    pkts = [_packet(cls, uid=uid) for uid, cls in enumerate(classes)]
    for op, i in ops:
        pkt = pkts[i % len(pkts)]
        if op == "enqueue":
            qs.enqueue(pkt)
        elif op == "remove":
            if pkt in qs.queues[pkt.traffic_class]:
                qs.remove(pkt)
        elif qs.queues[pkt.traffic_class]:
            qs.pop(pkt.traffic_class)
        assert qs.size == sum(len(q) for q in qs.queues.values())


# --- admission ------------------------------------------------------------------

def _link(m_cur, window=5):
    return QkdLink(
        node_a=0,
        node_b=1,
        storage=KeyStorage(m_max=8e8, m_cur=m_cur, rate=1e5),
        pub_stats=PublicChannelStats(window_len=window),
        bandwidth=1e7,
    )


def test_admission_cost_for_otp_packet():
    lk = _link(m_cur=1e7)
    assert admission_cost(lk, _packet(cost=4352.0), now=0.0) == 4352.0


def test_admission_refused_at_reserve_for_best_effort():
    lk = _link(m_cur=8e6)
    assert admission_cost(lk, _packet(cost=4352.0), now=0.0) is None


def test_admission_premium_allowed_at_reserve():
    lk = _link(m_cur=8e6)
    pkt = _packet(cls=TrafficClass.PREMIUM, cost=4352.0)
    assert admission_cost(lk, pkt, now=0.0) == 4352.0


def test_admission_refused_when_public_channel_failing():
    lk = _link(m_cur=1e7)
    # Stale stats: seeded last duration of 7 s against a 14 s bound, so the
    # metric crosses 1.0 once the last record is older than 7 s.
    assert admission_cost(lk, _packet(), now=6.9) is not None
    assert admission_cost(lk, _packet(), now=7.1) is None


def test_a_public_metric_of_exactly_one_admits():
    # t_last = t_average = 7 s, last recorded at 0: at 7 s the metric is
    # (7 + 7) / 14 == 1.0, the highest value that still admits.
    lk = _link(m_cur=1e7)
    assert public_metric(lk.pub_stats, 7.0) == 1.0
    assert admission_cost(lk, _packet(), now=7.0) == 4352.0
    assert admission_cost(lk, _packet(), now=7.0, p_m=1.0) == 4352.0
    # Both closer neighbours' links carry the same default public channel stats.
    sim = two_closer_sim()
    sim.now = 7.0
    assert sim._greedy_pick(0, sim._make_data_packet(), sim.gpsrq_nodes[0]) == (2, [])

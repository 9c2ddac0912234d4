import hashlib
import math
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import Phase, given, seed, settings, strategies as st

from helpers import (
    NaiveExclusionCache,
    ReferenceGpsrqSimulation,
    ample_cfg,
    bfs_reachable,
    collect_overhead,
    narrative_sim,
    reference_hash_line,
    two_closer_sim,
    two_node_topology,
)
from qkdsim import engine, qos
from qkdsim.config import PACKET_BYTES, PROTOCOLS, RunConfig
from qkdsim.engine import (
    HASH_BATCH_LINES,
    EventKind,
    EventQueue,
    Simulation,
    SimulationError,
    run_simulation,
)
from qkdsim.experiment import run_sweep
from qkdsim.geometry import Position, euclidean_distance
from qkdsim.gpsrq import GpsrqNode, greedy_choice
from qkdsim.qos import NO_NODES, PriorityQueueSet, SimPacket, TrafficClass
from qkdsim.topology import Topology, TopologySpec, generate_topology


# --- event queue -------------------------------------------------------------

def test_events_ordered_by_time_then_sequence():
    q = EventQueue()
    q.push(5.0, EventKind.KEY_CHARGE, ("a",))
    q.push(1.0, EventKind.KEY_CHARGE, ("b",))
    q.push(5.0, EventKind.RETRY_TIMER, ("c",))
    order = [q.pop().payload[0] for _ in range(3)]
    assert order == ["b", "a", "c"]
    assert len(q) == 0


def test_events_after_the_horizon_are_dropped_without_a_sequence_number():
    q = EventQueue(5.0)
    q.push(5.0, EventKind.KEY_CHARGE, ("kept",))
    q.push(math.nextafter(5.0, 6.0), EventKind.KEY_CHARGE, ("dropped",))
    assert len(q) == 1
    # The benchmark counts popped events as sequence numbers drawn minus events queued.
    assert next(q._seq) == 1
    assert q.pop().payload == ("kept",)


@pytest.mark.parametrize("protocol, nodes, kw", [
    ("gpsrq", 40, {"duration_s": 20.0, "max_key_bytes": 4_000_000,
                   "init_key_bytes": (1_000_000, 4_000_000)}),
    ("dv", 30, {"duration_s": 60.0, "dv_liveness": "hello"}),
], ids=["gpsrq-starved-cache-expiry", "dv-hello-timer"])
def test_no_pending_event_outlives_the_run(protocol, nodes, kw):
    """Cache expiries and DV timers timed after the end are never scheduled."""
    cfg = RunConfig(protocol=protocol, seed=1, **kw)
    sim = Simulation(cfg, generate_topology(TopologySpec(node_count=nodes), 1))
    sim.run()
    late = []
    while sim.events:
        ev = sim.events.pop()
        if ev.fire_at > cfg.duration_s:
            late.append(ev.kind)
    assert late == []


# --- trace hash ----------------------------------------------------------------

def _hash_case(case: str) -> Simulation:
    if case == "narrative":
        return narrative_sim(trace=True)
    protocol, seed, duration, kw = {
        "gpsrq": ("gpsrq", 3, 20.0, {}),
        "gpsrq-starved": ("gpsrq", 1, 20.0, {"max_key_bytes": 4_000_000,
                                             "init_key_bytes": (1_000_000, 4_000_000)}),
        "dv": ("dv", 3, 5.0, {}),
        "dv-hello": ("dv", 3, 5.0, {"dv_liveness": "hello"}),
    }[case]
    cfg = RunConfig(protocol=protocol, seed=seed, duration_s=duration, **kw)
    return Simulation(cfg, generate_topology(TopologySpec(node_count=10), seed), trace=True)


def _hash_features(ev) -> set:
    """What of the hash encoding one event's line exercises: its kind, a DV
    timer's mode, a source arrival and the loop value of a packet."""
    out = {ev.kind}
    if ev.kind is EventKind.DV_TIMER:
        out.add(("dv mode", ev.payload[1]))
    if ev.kind is EventKind.PACKET_ARRIVAL and ev.payload[0] is None:
        out.add("source arrival")
    out.update(("loop", item.loop) for item in ev.payload[:3] if isinstance(item, SimPacket))
    return out


_COMMON = {EventKind.PACKET_ARRIVAL, EventKind.LINK_TRANSMIT_DONE, EventKind.SIMULATION_END,
           "source arrival", ("loop", 0)}
# What each case of the reference-encoding test must reach.
HASH_CASE_COVERS = {
    "narrative": _COMMON | {("loop", 1), ("loop", 2)},
    "gpsrq": _COMMON | {EventKind.KEY_CHARGE, EventKind.SIGNALING_TIMER, EventKind.CACHE_EXPIRY,
                        ("loop", 1), ("loop", 2)},
    "gpsrq-starved": _COMMON | {EventKind.RETRY_TIMER},
    "dv": _COMMON | {EventKind.DV_TIMER, ("dv mode", "periodic"), ("dv mode", "flush")},
    "dv-hello": _COMMON | {EventKind.DV_TIMER, ("dv mode", "hello")},
}


def test_hash_cases_cover_every_line_format():
    """Together the reference-encoding cases hash every event kind, every DV
    timer mode, source arrivals and packets at every loop value, so each
    line format is checked against the oracle."""
    covered = set().union(*HASH_CASE_COVERS.values())
    assert covered == {*EventKind, ("dv mode", "periodic"), ("dv mode", "flush"),
                       ("dv mode", "hello"), "source arrival", ("loop", 0), ("loop", 1),
                       ("loop", 2)}


@pytest.mark.parametrize("case", list(HASH_CASE_COVERS))
def test_trace_hash_matches_reference_encoding(monkeypatch, case):
    """The per-kind line formats and the batched updates give the digest of
    the generic encoding, for a run shorter than one batch (the narrative) and
    runs longer than three; the first two gpsrq runs enter recovery."""
    sim = _hash_case(case)
    lines, seen = [], set()
    real = Simulation._hash_event

    def oracle_then_real(self, ev):
        lines.append(reference_hash_line(ev))
        seen.update(_hash_features(ev))
        real(self, ev)

    monkeypatch.setattr(Simulation, "_hash_event", oracle_then_real)
    stats = sim.run()
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == stats.trace_hash
    assert HASH_CASE_COVERS[case] <= seen
    if case == "narrative":
        assert len(lines) < HASH_BATCH_LINES
    else:
        assert len(lines) > 3 * HASH_BATCH_LINES
    if case in ("narrative", "gpsrq"):
        assert any(entry[1] == "recovery_enter" for entry in sim.trace)


def test_simulating_never_loads_openssl():
    """trace_hash comes from CPython's built-in SHA-256, so neither the package,
    the CLI module, a run nor a sweep written as CSV loads OpenSSL's libcrypto
    (through hashlib's _hashlib)."""
    script = (
        "import io, sys\n"
        "import qkdsim, qkdsim.cli\n"
        "from qkdsim.config import RunConfig\n"
        "from qkdsim.engine import Simulation\n"
        "from qkdsim.experiment import run_sweep\n"
        "from qkdsim.stats import write_csv\n"
        "from qkdsim.topology import TopologySpec, generate_topology\n"
        "cfg = RunConfig(protocol='gpsrq', seed=1, duration_s=5.0)\n"
        "assert Simulation(cfg, generate_topology(TopologySpec(node_count=10), 1)).run().trace_hash\n"
        "rows, meta = run_sweep('protocol=gpsrq,dv\\nnodes=10\\nseeds=1\\nduration=3\\n')\n"
        "assert [r.error for r in rows] == ['', '']\n"
        "write_csv(io.StringIO(), rows, meta)\n"
        "print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))\n"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


# --- basic runs ----------------------------------------------------------------

def test_two_node_full_delivery():
    stats = run_simulation(ample_cfg(seed=3, duration_s=20.0), two_node_topology())
    assert stats.pdr == 1.0
    assert stats.mean_hops == 1.0
    assert stats.drops_total == 0
    assert stats.sent == stats.received + stats.in_flight


def test_zero_key_no_charging_delivers_nothing():
    cfg = RunConfig(seed=3, duration_s=10.0)
    cfg.init_key_bytes = (0.0, 0.0)
    cfg.rate_bps = 0.0
    stats = run_simulation(cfg, two_node_topology())
    assert stats.received == 0
    assert stats.pdr == 0.0


def test_same_seed_identical_stats_and_trace():
    topo = generate_topology(TopologySpec(node_count=12), 5)
    a = run_simulation(RunConfig(seed=5, duration_s=15.0), topo)
    b = run_simulation(RunConfig(seed=5, duration_s=15.0), topo)
    assert a.trace_hash == b.trace_hash
    assert a.csv_row() == b.csv_row()


def test_different_seed_different_trace():
    topo = generate_topology(TopologySpec(node_count=12), 5)
    a = run_simulation(RunConfig(seed=5, duration_s=15.0), topo)
    b = run_simulation(RunConfig(seed=6, duration_s=15.0), topo)
    assert a.trace_hash != b.trace_hash


def test_disconnected_topology_rejected():
    topo = Topology(
        nodes=[(0, Position(0, 0)), (1, Position(5, 0)), (2, Position(9, 0)), (3, Position(14, 0))],
        edges={(0, 1), (2, 3)},
        grid_size=20.0,
    )
    with pytest.raises(SimulationError):
        Simulation(RunConfig(seed=1), topo)


def test_each_drop_cause_counts_once_and_unknown_causes_raise():
    sim = Simulation(ample_cfg(seed=3, duration_s=1.0), two_node_topology(), trace=True)
    pkt = sim._make_data_packet()
    for cause in ("source", "delay", "link", "queue"):
        sim._count_drop(cause, pkt, 0)
    st = sim.stats
    assert (st.drop_source, st.drop_delay, st.drop_link, st.drop_queue) == (1, 1, 1, 1)
    assert [e[2] for e in sim.trace if e[1] == "drop"] == ["source", "delay", "link", "queue"]
    with pytest.raises(SimulationError):
        sim._count_drop("lost", pkt, 0)


# --- the event trace is opt-in ------------------------------------------------------

@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_keeping_the_trace_changes_no_output(protocol):
    topo = generate_topology(TopologySpec(node_count=10), 3)
    cfg = RunConfig(protocol=protocol, seed=3, duration_s=20.0)
    plain = Simulation(cfg, topo, metrics_log=True)
    traced = Simulation(cfg, topo, metrics_log=True, trace=True)
    a, b = plain.run(), traced.run()
    assert (a.csv_row(), a.trace_hash) == (b.csv_row(), b.trace_hash)
    assert plain.metrics_log and plain.metrics_log == traced.metrics_log
    assert plain.dump_caches() == traced.dump_caches()
    # The gpsrq run enters recovery and leaves exclusion records; dv keeps none.
    assert bool(plain.dump_caches()) == (protocol == "gpsrq")
    assert plain.trace == [] and traced.trace


def _count_records(monkeypatch) -> Counter:
    """Count the calls to ``Simulation._record`` by tag from now on."""
    tags = Counter()
    record = Simulation._record

    def counting(self, tag, *entry):
        tags[tag] += 1
        record(self, tag, *entry)

    monkeypatch.setattr(Simulation, "_record", counting)
    return tags


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_untraced_runs_skip_the_per_packet_records(monkeypatch, protocol):
    """Arrivals, deliveries and transmissions reach ``_record`` only when traced."""
    tags = _count_records(monkeypatch)
    topo = generate_topology(TopologySpec(node_count=10), 3)
    cfg = RunConfig(protocol=protocol, seed=3, duration_s=5.0)
    Simulation(cfg, topo).run()
    assert [tags[t] for t in ("arrive", "deliver", "tx")] == [0, 0, 0]
    Simulation(cfg, topo, trace=True).run()
    assert all(tags[t] > 0 for t in ("arrive", "deliver", "tx"))


def test_untraced_gpsrq_runs_skip_the_threshold_records(monkeypatch):
    """Signaling starts at the first key charge (7 s); the threshold that each
    update sets is computed for the trace only when the run is traced."""
    tags = _count_records(monkeypatch)
    topo = generate_topology(TopologySpec(node_count=10), 3)
    cfg = RunConfig(seed=3, duration_s=15.0)
    Simulation(cfg, topo).run()
    assert tags["thr_update"] == 0
    Simulation(cfg, topo, trace=True).run()
    assert tags["thr_update"] > 0


def test_a_default_run_keeps_no_trace():
    sim = Simulation(ample_cfg(seed=3, duration_s=5.0), two_node_topology())
    stats = sim.run()
    assert stats.received > 0
    assert sim.trace == []


def test_run_simulation_and_sweeps_keep_no_trace(monkeypatch):
    sims = []
    init = Simulation.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        sims.append(self)

    monkeypatch.setattr(Simulation, "__init__", spy)
    run_simulation(ample_cfg(seed=3, duration_s=5.0), two_node_topology())
    rows, _ = run_sweep("protocol=gpsrq,dv\nnodes=10\nseeds=3\nduration=5\n")
    assert [r.error for r in rows] == ["", ""]
    assert len(sims) == 3
    assert all(sim.stats.sent > 0 and sim.trace == [] for sim in sims)


def test_delay_floor_on_mean_delay():
    stats = run_simulation(ample_cfg(seed=3, duration_s=20.0), two_node_topology())
    wire_bits = (512 + 36 + 28) * 8
    min_tx = wire_bits / 10_000_000.0
    assert stats.mean_delay_s >= min_tx * stats.mean_hops


def test_dv_two_nodes_converges_and_delivers():
    stats = run_simulation(ample_cfg(protocol="dv", seed=3, duration_s=20.0), two_node_topology())
    # Cold start costs the packets generated before the first table exchange.
    assert stats.received > 0.9 * stats.sent
    assert stats.ovh_pkts > 0


# --- queues are made on first use --------------------------------------------------

def test_a_queue_holds_a_deque_only_once_a_packet_has_used_it():
    # Set-up gives every L2 direction and class queue the shared NO_PACKETS; a
    # deque replaces it at its first packet, so idle queues cost no memory.
    sim = Simulation(RunConfig(protocol="gpsrq", seed=9, duration_s=2.0),
                     generate_topology(TopologySpec(node_count=200), 9), trace=True)
    assert all(q is qos.NO_PACKETS for q in sim.l2.values())
    assert all(q is qos.NO_PACKETS for qs in sim.queues.values() for q in qs.queues.values())
    sim.run()
    # A trace "tx" entry: (now, "tx", kind, at, target, wire, key left).
    carried = {(e[3], e[4]) for e in sim.trace if e[1] == "tx"}
    assert 0 < len(carried) < len(sim.l2)
    assert {d for d, q in sim.l2.items() if q is not qos.NO_PACKETS} == carried


# --- signaling overhead closed form ---------------------------------------------

def test_signaling_overhead_matches_schedule():
    topo = generate_topology(TopologySpec(node_count=10), 7)
    cfg = ample_cfg(seed=7, duration_s=20.0)
    sim = Simulation(cfg, topo, trace=True)
    stats = sim.run()
    epochs = int(20.0 / engine.CHARGE_PERIOD_S)  # charges at 7 and 14
    exchanges = 2 * len(topo.edges) * epochs
    assert stats.ovh_pkts == exchanges * 4
    assert stats.ovh_bytes == exchanges * 204
    assert collect_overhead(sim.trace) == (stats.ovh_pkts, stats.ovh_bytes)


def test_zero_traffic_zero_charging_zero_overhead():
    topo = generate_topology(TopologySpec(node_count=10), 7)
    cfg = ample_cfg(seed=7, duration_s=20.0)
    cfg.rate_bps = 0.0
    cfg.traffic_rate_bps = 1.0
    assert PACKET_BYTES * 8 / cfg.traffic_rate_bps > cfg.duration_s  # only the packet at t=0
    stats = run_simulation(cfg, topo)
    assert stats.ovh_pkts == 0
    assert stats.ovh_bytes == 0


def test_a_refused_signal_counts_as_a_premium_drop():
    """One-slot class queues on 200 kbit/s links refuse 56 of the run's 96
    signals. Each refusal is a premium drop with its own record, and only
    queued signals stay pending. Neither the CSV row nor trace_hash depends
    on the refusals."""
    cfg = RunConfig(protocol="gpsrq", seed=1, duration_s=30.0, queue_capacity=1,
                    bandwidth_bps=200_000)
    sim = Simulation(cfg, generate_topology(TopologySpec(node_count=10), 1), trace=True)
    stats = sim.run()
    refused = [e for e in sim.trace if e[1] == "signal_refused"]
    assert stats.dropped_by_class["PREMIUM"] == len(refused) == 56
    for (nid, _), pkt in sim._pending_signals.items():
        assert any(queued is pkt for queued in sim.queues[nid].queues[pkt.traffic_class])
    assert ",".join(stats.csv_row()) == (
        "gpsrq,10,1,0.6,0.5,5,on,7325,1300,0.17759562841530055,0.09220888615321034,"
        "2.0,160,8160,11341312.0,43520.0,6020,0,0,0")
    assert stats.trace_hash == "ce8a69c836afa0e88883b0d25687440b819a3e1a46776d27809500562de25e6f"


# --- premium starvation ----------------------------------------------------------

def test_only_premium_crosses_a_starved_link():
    topo = two_node_topology()
    cfg = RunConfig(seed=1, duration_s=10.0)
    cfg.init_key_bytes = (1_000_000.0, 1_000_000.0)  # exactly the reserve
    cfg.rate_bps = 0.0
    cfg.traffic_class = "premium"
    premium = run_simulation(cfg, topo)
    assert premium.received > 0

    cfg2 = RunConfig(seed=1, duration_s=10.0)
    cfg2.init_key_bytes = (1_000_000.0, 1_000_000.0)
    cfg2.rate_bps = 0.0
    cfg2.traffic_class = "best_effort"
    besteffort = run_simulation(cfg2, topo)
    assert besteffort.received == 0


def test_premium_reserve_dip_counted():
    topo = two_node_topology()
    cfg = RunConfig(seed=1, duration_s=10.0)
    cfg.init_key_bytes = (1_000_000.0, 1_000_000.0)
    cfg.rate_bps = 0.0
    cfg.traffic_class = "premium"
    stats = run_simulation(cfg, topo)
    assert stats.reserve_dips > 0


# --- key accounting ----------------------------------------------------------------

def test_key_split_data_vs_routing():
    topo = generate_topology(TopologySpec(node_count=8), 2)
    stats = run_simulation(ample_cfg(seed=2, duration_s=15.0), topo)
    assert stats.key_data_bits > 0
    assert stats.key_routing_bits > 0
    # Every data consumption is a whole number of packet costs.
    assert stats.key_data_bits % 4352.0 == pytest.approx(0.0, abs=1e-6)


def test_admitted_costs_equal_consumed_key(two_hop=None):
    topo = two_node_topology()
    sim = Simulation(ample_cfg(seed=3, duration_s=10.0), topo)
    stats = sim.run()
    lk = sim.links[(0, 1)]
    assert lk.consumed_data + lk.consumed_routing == pytest.approx(
        lk.storage.consumed_total, abs=1e-6
    )
    assert stats.key_data_bits == pytest.approx(lk.consumed_data, abs=1e-6)


# --- the recovery narrative -------------------------------------------------------

def max_forwards(trace: list[tuple]) -> int:
    """The largest hop count of any data packet: its forwarded arrivals, per uid."""
    hops = Counter(e[3] for e in trace if e[1] == "arrive" and e[2] == "data" and e[5] is not None)
    return max(hops.values(), default=0)


def test_recovery_narrative_step_by_step():
    sim = narrative_sim(trace=True)
    stats = sim.run()

    a, k, j, l, i, g = 0, 1, 2, 3, 4, 5
    hops = [(e[3], e[4]) for e in sim.trace if e[1] == "tx" and e[2] == "data"]
    assert hops == [
        (a, k),  # greedy
        (k, j),  # greedy
        (j, l),  # recovery entry, first edge counterclockwise from line to g
        (l, k),  # right-hand rule continues
        (k, j),  # perimeter returns to the recovery origin
        (j, k),  # loop declared, packet returned
        (k, l),  # retry with j excluded
        (l, j),  # greedy again
        (j, l),  # second dead end, returned
        (l, k),  # unwinds
        (k, a),  # unwinds to the source
    ]

    entries = [e for e in sim.trace if e[1] == "recovery_enter"]
    assert len(entries) == 1
    assert entries[0][2] == j and entries[0][4] == l

    g_pos = sim.position(g)
    d = euclidean_distance
    pos = sim.position
    expected_caches = [
        (j, l, d(pos(l), g_pos) / 2.0),
        (k, j, d(pos(j), g_pos) / 2.0),
        (l, j, d(pos(j), g_pos) / 2.0),
        (k, l, d(pos(l), g_pos) / 2.0),
        (a, k, d(pos(k), g_pos) / 2.0),
    ]
    cache_adds = [(e[2], e[3], e[6]) for e in sim.trace if e[1] == "cache_add"]
    for node, via, radius in expected_caches:
        assert any(
            c[0] == node and c[1] == via and c[2] == pytest.approx(radius, rel=1e-9)
            for c in cache_adds
        ), f"missing cache record at {node} via {via}"

    assert stats.drop_source == 1
    assert stats.received == 0
    assert stats.loop2_count >= 2
    # All circle centers sit on the destination.
    centers = [(e[4], e[5]) for e in sim.trace if e[1] == "cache_add"]
    assert centers and all(c == (g_pos.x, g_pos.y) for c in centers)
    assert max_forwards(sim.trace) <= 4 * len(sim.topo.edges)


def test_narrative_cache_dump_format():
    sim = narrative_sim()
    sim.run()
    lines = sim.dump_caches()
    assert lines, "expected cache records"
    for line in lines:
        parts = line.split()
        assert parts[0] == "CACHE"
        assert len(parts) == 7
        int(parts[1]); int(parts[2])
        float(parts[3]); float(parts[4]); float(parts[5]); float(parts[6])


def test_cache_soundness_every_record_follows_a_return():
    """No speculative records: each one traces back to a return or a
    perimeter walk arriving back at its origin."""
    sim = narrative_sim(trace=True)
    sim.run()
    returns_seen = set()
    recoveries = set()
    cache_adds = 0
    for e in sim.trace:
        tag = e[1]
        if tag in ("loop_return", "delay_return"):
            returns_seen.add((e[4], e[2]))  # (receiver, via)
        elif tag == "recovery_enter":
            recoveries.add((e[2], e[4]))  # (origin, first interface)
        elif tag == "cache_add":
            node, via = e[2], e[3]
            assert (node, via) in returns_seen or (node, via) in recoveries
            cache_adds += 1
    assert cache_adds > 0


# --- recovery completeness against a reachability oracle ---------------------------

@pytest.mark.parametrize("seed", [2, 5, 9])
def test_all_pairs_delivery_on_planar_graphs(seed):
    base = generate_topology(TopologySpec(node_count=10), seed)
    nodes = dict(base.nodes)
    failures = []
    for src in base.node_ids():
        for dst in base.node_ids():
            if src == dst:
                continue
            ordered = [(src, nodes[src])] + [
                (n, p) for n, p in base.nodes if n not in (src, dst)
            ] + [(dst, nodes[dst])]
            topo = Topology(nodes=ordered, edges=set(base.edges), grid_size=base.grid_size)
            cfg = ample_cfg(seed=seed, duration_s=3.0)
            cfg.rate_bps = 0.0
            cfg.traffic_rate_bps = 1000.0  # a single probe packet
            sim = Simulation(cfg, topo, trace=True)
            stats = sim.run()
            assert bfs_reachable(topo, src, dst)
            if stats.received != 1:
                failures.append((src, dst))
            assert max_forwards(sim.trace) <= 4 * len(topo.edges)
    assert failures == [], f"undelivered pairs: {failures}"


# --- the decision path against the reference ----------------------------------------

@st.composite
def _decision_runs(draw):
    """A 2-12-node Gabriel topology and a gpsrq run of at most 20 s. Initial key
    near the reserve starves links, so some runs enter perimeter recovery; the
    sampled lists start at the values that do so most often. A small key store
    spreads the link metrics, so the distance term decides between candidates."""
    topo = generate_topology(TopologySpec(node_count=draw(st.sampled_from(range(12, 1, -1)))),
                             draw(st.integers(1, 10_000)))
    cfg = RunConfig(seed=draw(st.integers(1, 10_000)), duration_s=draw(st.floats(1.0, 20.0)),
                    beta=draw(st.floats(0.0, 1.0)), cache_enabled=draw(st.booleans()))
    cfg.max_key_bytes = draw(st.sampled_from([2_000_000.0, 4_000_000.0, 100_000_000.0]))
    cfg.rate_bps = draw(st.sampled_from([0.0, 10_000.0, 100_000.0]))
    lo = draw(st.floats(1_000_000.0, 1_500_000.0))
    cfg.init_key_bytes = (lo, lo + draw(st.floats(0.0, 3_000_000.0)))
    cfg.traffic_rate_bps = draw(st.sampled_from([3_000_000.0, 1_000_000.0, 300_000.0]))
    return cfg, topo


def test_an_equally_far_neighbour_is_not_a_greedy_candidate():
    # Destination 3 at the origin; nodes 0 and 1 both lie 5 from it, so
    # neither is a greedy candidate of the other, and 2 is closer than both.
    topo = Topology(
        nodes=[(0, Position(3, 4)), (1, Position(4, 3)), (2, Position(0, 2)), (3, Position(0, 0))],
        edges={(0, 1), (0, 2), (1, 2), (2, 3)},
        grid_size=10.0,
    )
    sim = Simulation(RunConfig(seed=1, duration_s=1.0), topo)
    assert sim._to_dst[0] == sim._to_dst[1] == 5.0
    closer = {u: [(v, d) for v, d, _ in sim._closer[u]] for u in sim._closer}
    assert closer[0] == closer[1] == [(2, 2.0)]
    assert closer[2] == [(3, 0.0)]
    assert all(lk is sim.link(u, v) for u in sim._closer for v, _, lk in sim._closer[u])


def test_recovery_computes_each_bearing_order_once(monkeypatch):
    bearings = []
    angle_of = engine.angle_of
    monkeypatch.setattr(engine, "angle_of", lambda *a: bearings.append(a) or angle_of(*a))
    sim = narrative_sim(trace=True)
    sim.run()
    assert sum(e[1] == "recovery_enter" for e in sim.trace) == 1
    assert len(bearings) == len(sim._ccw_orders) > 0


# The seed of the reference test's draw. Under derandomize alone, hypothesis
# seeds it from a hash of the test's source, so any edit of the test drew other
# runs. This is the seed that hash gave before the test was last edited, so the
# draw holds the same 40 runs, and the kill list's mutants still fail on them.
DECISION_RUNS_SEED = int("f2aaebe2077eff4921a2424fe233edb026c289c7d478ad57"
                         "1beee4c4674369f90d36b31bbf56624d35da3dec3e486a8c", 16)


def test_decision_path_matches_reference(monkeypatch):
    """Reading the per-run distance tables, asking each admission once,
    reading one block time per neighbour and deciding a packet on arrival at
    an idle node give the outputs of the decision path that recomputes all
    three, with the circle test of every region, and decides every packet
    from the head of its class queue."""
    recovered, blocked = [], Counter()
    circle_test = NaiveExclusionCache.cache_blocked

    def counted_circle_test(*args):
        hit = circle_test(*args)
        blocked[hit] += 1
        return hit

    monkeypatch.setattr(NaiveExclusionCache, "cache_blocked", counted_circle_test)

    # No shrink phase, as under the ``mutants`` profile: a broken decision path
    # fails on its first failing run in seconds instead of being minimised for
    # minutes. The fixed seed draws the same runs every time.
    @seed(DECISION_RUNS_SEED)
    @settings(max_examples=40, deadline=None, derandomize=True,
              phases=[Phase.explicit, Phase.reuse, Phase.generate])
    @given(_decision_runs())
    def check(run):
        cfg, topo = run
        sim = Simulation(cfg, topo, trace=True)
        ref = ReferenceGpsrqSimulation(cfg, topo)
        a, b = sim.run(), ref.run()
        assert (a.csv_row(), a.trace_hash) == (b.csv_row(), b.trace_hash)
        assert sim.dump_caches() == ref.dump_caches()
        recovered.append(any(e[1] == "recovery_enter" for e in sim.trace))

    check()
    assert sum(recovered) >= 5, recovered
    assert blocked[True] > 0, blocked  # the circle test met a live region


# --- one decision per hop ------------------------------------------------------------

def _fork_sim() -> Simulation:
    """Source 0 between neighbour 1, closer to destination 3, and neighbour 2,
    farther from it; ample key and no charging, so nothing changes by itself."""
    topo = Topology(
        nodes=[(0, Position(10, 5)), (1, Position(20, 5)), (2, Position(0, 5)),
               (3, Position(30, 5))],
        edges={(0, 1), (0, 2), (1, 3)},
        grid_size=40.0,
    )
    cfg = ample_cfg(seed=1, duration_s=1.0)
    cfg.rate_bps = 0.0
    return Simulation(cfg, topo)


def test_an_idle_node_routes_an_arrival_without_queueing_it(monkeypatch):
    kinds = []
    enqueue = PriorityQueueSet.enqueue
    monkeypatch.setattr(PriorityQueueSet, "enqueue",
                        lambda qs, pkt: kinds.append(pkt.kind) or enqueue(qs, pkt))
    sim = Simulation(ample_cfg(duration_s=2.0), two_node_topology())
    stats = sim.run()
    assert stats.received > 0
    assert kinds == []
    assert stats.served_by_class == {"PREMIUM": 0, "REAL_TIME": 0, "BEST_EFFORT": stats.sent}


def test_an_arrival_waits_behind_a_queued_packet_of_another_class():
    # The premium signal toward 2 waits for key; a data packet that finds its
    # own class queue empty must still wait behind it, not overtake it.
    sim = _fork_sim()
    sim.links[(0, 2)].storage.m_cur = 0.0
    sim._on_signaling_timer(0)
    qs = sim.queues[0]
    assert [p.dst for p in qs.queues[TrafficClass.PREMIUM]] == [2]
    pkt = sim._make_data_packet()
    sim._route_data(0, None, pkt)
    assert list(qs.queues[pkt.traffic_class]) == [pkt]
    assert qs.size == 2
    assert pkt not in sim.l2[(0, 1)]


def test_a_replaced_signal_leaves_the_queue_size_exact(monkeypatch):
    # Premium data on links that gain 1 kbit/s of key keeps signals queued
    # until the next epoch replaces them (the golden ``signal`` run), so every
    # replacement finds the signal it looks for.
    found = []
    remove = PriorityQueueSet.remove
    monkeypatch.setattr(PriorityQueueSet, "remove",
                        lambda qs, pkt: found.append(remove(qs, pkt)) or found[-1])
    cfg = RunConfig(protocol="gpsrq", seed=1, duration_s=30.0, queue_capacity=5,
                    init_key_bytes=(200, 1000), rate_bps=1000.0)
    cfg.traffic_class = "premium"
    sim = Simulation(cfg, generate_topology(TopologySpec(node_count=10), 1))
    sim.run()
    assert found and False not in found
    for qs in sim.queues.values():
        assert qs.size == sum(len(q) for q in qs.queues.values())


# expected: (packets on the wire from 0 to 2, packets dropped at the source)
@pytest.mark.parametrize("unasked, refused, expected", [
    ("farther", (0, 1), (1, 0)),
    ("excluded", (0, 2), (0, 1)),
    ("cache-blocked", (0, 2), (0, 1)),
])
def test_a_link_the_greedy_pick_did_not_ask_is_serviceable(unasked, refused, expected):
    # Only the link to the neighbour that the greedy pick skips admits the
    # packet, so the node has a serviceable link and must not wait: it sends
    # the packet over that link, or, a dead end at the source, drops it.
    sim = _fork_sim()
    sim.links[refused].storage.m_cur = 0.0
    pkt = sim._make_data_packet()
    if unasked == "excluded":
        pkt.loop, pkt.retry_exclude = 2, {1}
    elif unasked == "cache-blocked":
        sim.gpsrq_nodes[0].add_cache(1, 5.0, sim.now, 1.0)
    assert sim._decide(0, pkt) is True
    assert (len(sim.l2[(0, 2)]), sim.stats.drop_source) == expected


def test_a_lone_admissible_closer_neighbour_is_chosen_unscored(monkeypatch):
    sim = two_closer_sim()
    sim.links[(0, 2)].storage.m_cur = 0.0  # refuses the packet

    def unexpected(*args):
        raise AssertionError("a lone candidate was scored")

    monkeypatch.setattr(sim, "_link_metrics", unexpected)
    monkeypatch.setattr(engine, "greedy_choice", unexpected)
    assert sim._greedy_pick(0, sim._make_data_packet(), sim.gpsrq_nodes[0]) == (1, [])


def test_two_admissible_closer_neighbours_are_scored():
    sim = two_closer_sim()
    pkt, node = sim._make_data_packet(), sim.gpsrq_nodes[0]
    scored = [(v, sim._link_metrics(0, v, sim.link(0, v))[3], sim._to_dst[v]) for v in (1, 2)]
    assert greedy_choice(scored, node.beta) == 2  # not the first candidate
    assert sim._greedy_pick(0, pkt, node) == (2, [])


def test_a_greedy_pick_reads_each_asked_public_metric_once(monkeypatch):
    # Both bindings are counted: the pick's own read and any read inside admission.
    reads = []
    public_metric = engine.public_metric

    def counted(*args):
        reads.append(args)
        return public_metric(*args)

    monkeypatch.setattr(engine, "public_metric", counted)
    monkeypatch.setattr(qos, "public_metric", counted)
    sim = two_closer_sim()
    pkt, node = sim._make_data_packet(), sim.gpsrq_nodes[0]
    assert sim._greedy_pick(0, pkt, node) == (2, [])
    assert len(reads) == 2  # two asked candidates, both admitted and scored


def test_a_recovery_pick_at_a_node_without_exclusions_never_asks_its_cache(monkeypatch):
    def unexpected(*args):
        raise AssertionError("asked the cache of a node that holds no exclusion")

    monkeypatch.setattr(GpsrqNode, "cache_blocked", unexpected)
    sim = two_closer_sim()
    pkt, node = sim._make_data_packet(), sim.gpsrq_nodes[0]
    assert sim._ccw_pick(0, pkt, node, NO_NODES, 3) == 1


def test_a_recovery_pick_after_every_exclusion_expired_never_asks_its_cache(monkeypatch):
    sim = two_closer_sim()
    pkt, node = sim._make_data_packet(), sim.gpsrq_nodes[0]
    sim._add_exclusion(node, 1, 1)
    assert sim._ccw_pick(0, pkt, node, NO_NODES, 3) == 2
    sim.now = node.blocked_until[1]
    sim._on_cache_expiry(0)  # the exclusion's expiry event
    assert node.blocked_until == {} and node.cache == {}

    def unexpected(*args):
        raise AssertionError("asked the cache of a node whose every exclusion expired")

    monkeypatch.setattr(GpsrqNode, "cache_blocked", unexpected)
    assert sim._ccw_pick(0, pkt, node, NO_NODES, 3) == 1


def test_a_live_exclusion_skips_its_neighbour():
    sim = two_closer_sim()
    pkt, node = sim._make_data_packet(), sim.gpsrq_nodes[0]
    node.add_cache(1, 5.0, sim.now, 1.0)
    assert sim._greedy_pick(0, pkt, node) == (2, [1])
    assert sim._ccw_pick(0, pkt, node, NO_NODES, 3) == 2
    node.add_cache(2, 5.0, sim.now, 1.0)
    assert sim._greedy_pick(0, pkt, node) == (None, [1, 2])
    assert sim._ccw_pick(0, pkt, node, NO_NODES, 3) is None


# --- threshold convergence ----------------------------------------------------------

def test_threshold_views_converge_after_quiet_period():
    topo = generate_topology(TopologySpec(node_count=10), 11)
    cfg = ample_cfg(seed=11, duration_s=17.0)  # charges at 7 and 14, then quiet
    sim = Simulation(cfg, topo)
    sim.run()
    for (u, v), lk in sim.links.items():
        m_max = lk.storage.m_max
        assert sim.gpsrq_nodes[u].m_thr(v, m_max) == pytest.approx(
            sim.gpsrq_nodes[v].m_thr(u, m_max), rel=1e-12
        )


def test_threshold_is_min_of_local_means():
    topo = two_node_topology()
    cfg = ample_cfg(seed=4, duration_s=8.0)  # one charge epoch at 7
    sim = Simulation(cfg, topo)
    sim.run()
    lk = sim.links[(0, 1)]
    n0, n1 = sim.gpsrq_nodes[0], sim.gpsrq_nodes[1]
    thr0 = n0.m_thr(1, lk.storage.m_max)
    assert thr0 == min(n0.l_sent, n1.l_sent)
    assert n0.recv_l[1] == n1.l_sent

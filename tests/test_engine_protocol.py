"""Protocol-behavior scenarios that need a running engine: delay budgets,
baseline convergence and liveness variants, and crypto configuration."""

import ast
import math
from pathlib import Path

import pytest

from helpers import ample_cfg, max_deliverable, two_node_topology
from qkdsim.config import DATA_KEY_BITS, PROTOCOLS, ConfigError, RunConfig
from qkdsim.dv import INFINITE_METRIC
from qkdsim import engine
from qkdsim.engine import PROTOCOL_SIMULATIONS, Simulation, run_simulation
from qkdsim.geometry import Position
from qkdsim.links import MIN_KEY_BITS
from qkdsim.qos import PriorityQueueSet
from qkdsim.topology import Topology, TopologySpec, generate_topology


def chain_topology():
    return Topology(
        nodes=[(0, Position(0, 10)), (1, Position(10, 10)), (2, Position(20, 10))],
        edges={(0, 1), (1, 2)},
        grid_size=30.0,
    )


# --- delay budget ----------------------------------------------------------------

def test_expired_packet_returns_and_source_drops():
    cfg = ample_cfg(seed=2, duration_s=2.0)
    cfg.rate_bps = 0.0
    cfg.traffic_rate_bps = 1000.0  # single packet
    sim = Simulation(cfg, chain_topology(), trace=True)
    sim.data_max_delay = 0.001  # expires during the first hop
    stats = sim.run()
    assert stats.drop_delay == 1
    assert stats.received == 0
    # The interior node declared the timeout and the source learned a record.
    assert any(e[1] == "delay_return" and e[2] == 1 for e in sim.trace)
    assert any(e[1] == "cache_add" and e[2] == 0 and e[3] == 1 for e in sim.trace)


def test_generous_budget_delivers():
    cfg = ample_cfg(seed=2, duration_s=2.0)
    cfg.rate_bps = 0.0
    cfg.traffic_rate_bps = 1000.0  # one packet, well inside the 5 s best-effort budget
    stats = run_simulation(cfg, chain_topology())
    assert stats.received == 1
    assert stats.drop_delay == 0


def test_real_time_class_default_budget():
    cfg = RunConfig(seed=1)
    cfg.traffic_class = "real_time"
    assert Simulation(cfg, two_node_topology()).data_max_delay == 0.5
    cfg.traffic_class = "best_effort"
    assert Simulation(cfg, two_node_topology()).data_max_delay == 5.0


# --- crypto configuration ----------------------------------------------------------

def test_aes_mode_consumes_far_less_key():
    base = ample_cfg(seed=3, duration_s=10.0)
    otp = run_simulation(base, two_node_topology())

    aes_cfg = ample_cfg(seed=3, duration_s=10.0)
    aes_cfg.crypto_mode = "aes"
    aes = run_simulation(aes_cfg, two_node_topology())

    assert aes.received == otp.received
    assert aes.key_data_bits < 0.1 * otp.key_data_bits


def test_every_protocol_builds_and_runs_its_own_simulation_class():
    classes = set()
    for protocol in PROTOCOLS:
        sim = Simulation(ample_cfg(protocol=protocol, duration_s=2.0), two_node_topology())
        assert type(sim) is not Simulation and isinstance(sim, Simulation)
        assert sim.run().received > 0
        classes.add(type(sim))
    assert len(classes) == len(PROTOCOLS)
    # DV's class lives in its own module, which registers it; the core
    # engine imports nothing from it.
    assert PROTOCOL_SIMULATIONS["dv"].__module__ == "qkdsim.dv"
    imported = set()
    for node in ast.walk(ast.parse(Path(engine.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["qkdsim" if node.level else "", node.module]))
            imported |= {module} | {f"{module}.{alias.name}" for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
    assert "qkdsim.dv" not in imported


def test_dv_never_touches_a_class_queue(monkeypatch):
    # DV forwards or drops on arrival, so it keeps no class queues and never
    # calls a queue operation.
    calls = []
    for name in ("enqueue", "head", "pop", "remove"):
        op = getattr(PriorityQueueSet, name)
        monkeypatch.setattr(PriorityQueueSet, name,
                            lambda *a, _op=op, _name=name: calls.append(_name) or _op(*a))
    sim = Simulation(ample_cfg(protocol="dv", duration_s=2.0), two_node_topology())
    assert sim.run().received > 0
    assert not hasattr(sim, "queues")
    assert calls == []


def test_unknown_protocol_is_a_config_error():
    with pytest.raises(ConfigError, match="unknown protocol"):
        Simulation(RunConfig(protocol="nope"), two_node_topology())


def test_unknown_crypto_mode_rejected_by_validate():
    cfg = RunConfig()
    cfg.crypto_mode = "bogus"
    with pytest.raises(ConfigError, match="crypto mode"):
        cfg.validate()


# A case keeps the id it had when the link and traffic fields were nested.
@pytest.mark.parametrize("name, value", [
    *[pytest.param(name, math.nan, id=f"{old}-nan") for name, old in (
        ("traffic_rate_bps", "traffic.rate_bps"), ("rate_bps", "link.rate_bps"),
        ("bandwidth_bps", "link.bandwidth_bps"))],
    # An infinite traffic rate schedules packets 0 s apart, so such a run
    # would never end.
    pytest.param("traffic_rate_bps", math.inf, id="traffic.rate_bps-inf"),
])
def test_non_finite_values_rejected_by_validate(name, value):
    # Checked through validate only: a run with an infinite traffic rate never ends.
    cfg = RunConfig()
    setattr(cfg, name, value)
    with pytest.raises(ConfigError):
        cfg.validate()


# --- distance-vector specifics --------------------------------------------------------

def test_dv_tables_loop_free_after_convergence():
    topo = generate_topology(TopologySpec(node_count=12), 9)
    cfg = ample_cfg(protocol="dv", seed=9, duration_s=35.0)
    sim = Simulation(cfg, topo)
    sim.run()
    ids = topo.node_ids()
    for src in ids:
        for dst in ids:
            if src == dst:
                continue
            seen = set()
            cur = src
            while cur != dst:
                assert cur not in seen, f"routing loop between {src} and {dst}"
                seen.add(cur)
                route = sim.dv_nodes[cur].table.get(dst)
                if route is None or route.metric >= INFINITE_METRIC:
                    break
                cur = route.next_hop


def test_dv_periodic_update_count():
    # One node's table broadcast goes to each neighbor once per period.
    topo = two_node_topology()
    cfg = ample_cfg(protocol="dv", seed=1, duration_s=31.0)
    sim = Simulation(cfg, topo, trace=True)
    sim.run()
    dv_tx = [e for e in sim.trace if e[1] == "tx" and e[2] == "dv"]
    # Periodic timers start at a jittered offset below ~1 s, so each node
    # fires 3 times in 31 s (t0, t0+15, t0+30); plus possible triggered ones.
    periodic_floor = 2 * 3
    assert len(dv_tx) >= periodic_floor


def test_dv_hello_variant_counts_hellos_and_delivers():
    topo = two_node_topology()
    cfg = ample_cfg(protocol="dv", seed=1, duration_s=25.0)
    cfg.dv_liveness = "hello"
    sim = Simulation(cfg, topo, trace=True)
    stats = sim.run()
    hello_tx = [e for e in sim.trace if e[1] == "tx" and e[2] == "hello"]
    assert hello_tx, "expected hello beacons"
    assert stats.received > 0.9 * stats.sent
    # Hellos ride the plain QKD header over UDP/IP with an 8-byte payload.
    assert all(e[5] == 64 for e in hello_tx)


def test_dv_poisons_dead_link_and_recovers():
    # Chain whose middle link starts just under the reserve: unusable for
    # data until the first charge lifts it over the threshold.
    topo = chain_topology()
    cfg = RunConfig(protocol="dv", seed=4, duration_s=40.0)
    cfg.init_key_bytes = (25_000_000.0, 25_000_000.0)
    sim = Simulation(cfg, topo, trace=True)
    weak = sim.links[(1, 2)]
    weak.storage.m_cur = 7.9e6
    weak.initial_key = 7.9e6
    stats = sim.run()
    # Early packets die at the weak link and poison the route; once charging
    # lifts it, probe recovery re-advertises and traffic flows again.
    assert stats.drop_link > 0
    assert stats.received > 0
    poisons = [e for e in sim.trace if e[1] == "tx" and e[2] == "dv"]
    assert poisons


# --- reserve protection along full traces -------------------------------------------

def test_data_never_leaves_storage_below_reserve_in_trace():
    """Trace-level check of the reserve rule: after any best-effort data
    transmission the sending link still holds at least the pre-shared
    reserve, while premium signaling may dip below it."""
    topo = two_node_topology()
    cfg = RunConfig(seed=5, duration_s=30.0)
    cfg.init_key_bytes = (1_100_000.0, 1_100_000.0)  # thin surplus
    sim = Simulation(cfg, topo, trace=True)
    sim.run()
    data_tx = [e for e in sim.trace if e[1] == "tx" and e[2] == "data"]
    signaling_tx = [e for e in sim.trace if e[1] == "tx" and e[2] == "signaling"]
    assert data_tx, "expected data transmissions"
    assert all(e[6] >= MIN_KEY_BITS for e in data_tx)
    assert any(e[6] < MIN_KEY_BITS for e in signaling_tx)


# --- queued reprocessing on key charges --------------------------------------------

def test_blocked_packets_wait_and_flow_after_charges():
    """A link under the reserve serves nothing; queued packets go out once
    charging lifts the store past the reserve."""
    topo = two_node_topology()
    cfg = RunConfig(seed=8, duration_s=40.0)
    cfg.init_key_bytes = (990_000.0, 990_000.0)  # just under reserve
    cfg.traffic_rate_bps = 50_000.0  # ~12 packets/s, queue holds them all
    sim = Simulation(cfg, topo, trace=True)
    stats = sim.run()
    # Reserve is 8 Mbit, fill starts at 7.92 Mbit and charges 0.7 Mbit per
    # 7 s: the first deliveries need a couple of epochs.
    first_delivery = min(e[0] for e in sim.trace if e[1] == "deliver")
    assert first_delivery > engine.CHARGE_PERIOD_S
    assert stats.received > 0
    assert stats.drop_queue == 0  # everything waited, nothing overflowed


# --- threshold exchange on the worked neighborhood --------------------------------

def test_threshold_exchange_worked_neighborhood():
    """Center node with link fills 60/20/30 Mbit (local mean 110/3) facing a
    neighbor whose links hold 30/20 Mbit (local mean 25): both ends settle
    the shared threshold on the smaller mean."""
    topo = Topology(
        nodes=[
            (0, Position(10, 10)),   # b: three links
            (1, Position(10, 20)),
            (2, Position(10, 0)),
            (3, Position(20, 10)),   # c: two links
            (4, Position(30, 10)),
        ],
        edges={(0, 1), (0, 2), (0, 3), (3, 4)},
        grid_size=40.0,
    )
    cfg = RunConfig(seed=1, duration_s=8.0)  # one charging epoch at t=7
    cfg.rate_bps = 1e-9  # epoch fires, fill change negligible
    cfg.traffic_rate_bps = 1.0  # a single packet of background traffic
    sim = Simulation(cfg, topo)
    fills = {(0, 1): 60e6, (0, 2): 20e6, (0, 3): 30e6, (3, 4): 20e6}
    for key, bits in fills.items():
        sim.links[key].storage.m_cur = bits
        sim.links[key].initial_key = bits
    sim.run()
    b, c = sim.gpsrq_nodes[0], sim.gpsrq_nodes[3]
    # One 512-byte probe packet crosses before the exchange, so the means sit
    # a packet cost under the nominal 110/3 and 25 Mbit values.
    assert b.l_sent == pytest.approx(110e6 / 3.0, rel=1e-3)
    assert c.l_sent == pytest.approx(25e6, rel=1e-3)
    m_max = sim.links[(0, 3)].storage.m_max
    thr_b = b.m_thr(3, m_max)
    thr_c = c.m_thr(0, m_max)
    assert thr_b == min(b.l_sent, b.recv_l[3])
    assert thr_c == min(c.recv_l[0], c.l_sent)
    assert thr_b == pytest.approx(25e6, rel=1e-3)
    assert thr_b == thr_c


def test_deliverable_payload_division():
    # 8000 surplus key bits over the reserve secure 8000/ratio payload bits.
    from qkdsim.links import KeyStorage

    storage = KeyStorage(m_max=8e8, m_cur=8e6 + 8000.0, rate=1e5)
    key_bits = max_deliverable(storage, 0.0)
    assert key_bits == 8000.0
    payload = key_bits / (DATA_KEY_BITS["otp"] / (512 * 8))
    assert payload == pytest.approx(8000.0 / 1.0625)


def test_dv_overhead_grows_superlinearly():
    # Table broadcasts grow with table size and sequence waves visit every
    # node, so bytes scale roughly quadratically in node count.
    sizes = {}
    for n in (10, 30):
        topo = generate_topology(TopologySpec(node_count=n), 6)
        cfg = ample_cfg(protocol="dv", seed=6, duration_s=30.0)
        sizes[n] = run_simulation(cfg, topo).ovh_bytes
    # Linear growth would give a factor of 3; require clearly more.
    assert sizes[30] > 5 * sizes[10]

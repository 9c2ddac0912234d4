import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import crossing_pairs, gabriel_violations, waxman_accepts
from qkdsim.geometry import Position
from qkdsim.topology import (
    Topology,
    TopologyError,
    WaxmanConfig,
    gabrielize,
    generate_topology,
    is_connected,
    load_topology,
    save_topology,
    waxman_edge_probability,
)

GRID = 100.0 / math.sqrt(2.0)


def _cfg(**kw):
    base = dict(node_count=10, seed=1, grid_size=GRID)
    base.update(kw)
    return WaxmanConfig(**base)


# --- edge probability -------------------------------------------------------

def test_probability_at_zero_distance_is_theta():
    assert waxman_edge_probability(0.0, _cfg(lambda_max=100.0)) == pytest.approx(0.4)


def test_probability_at_omega_lambda():
    # d = omega * lambda: theta / e
    cfg = _cfg(lambda_max=100.0)
    assert waxman_edge_probability(40.0, cfg) == pytest.approx(0.4 / math.e, rel=1e-12)


def test_probability_monotone_decreasing():
    cfg = _cfg(lambda_max=100.0)
    probs = [waxman_edge_probability(d, cfg) for d in range(0, 200, 10)]
    assert all(a > b for a, b in zip(probs, probs[1:]))
    assert waxman_edge_probability(1e9, cfg) < 1e-6


def test_probability_scales_linearly_with_theta():
    lo = waxman_edge_probability(25.0, _cfg(theta=0.2, lambda_max=100.0))
    hi = waxman_edge_probability(25.0, _cfg(theta=0.4, lambda_max=100.0))
    assert hi == pytest.approx(2.0 * lo, rel=1e-12)


def test_lambda_defaults_to_grid_diagonal():
    cfg = _cfg(grid_size=10.0)
    assert cfg.resolved_lambda() == pytest.approx(10.0 * math.sqrt(2.0))


def test_bernoulli_acceptance_matches_probability():
    cfg = _cfg(lambda_max=100.0)
    rng = random.Random(7)
    for d in (0.0, 40.0):
        hits = sum(waxman_accepts(d, cfg, rng) for _ in range(10_000))
        assert hits / 10_000 == pytest.approx(waxman_edge_probability(d, cfg), abs=0.02)


# --- generation -------------------------------------------------------------

def test_two_nodes_yield_single_edge():
    topo = generate_topology(_cfg(node_count=2, links_per_node=1))
    assert len(topo.nodes) == 2
    assert len(topo.edges) == 1


def test_same_seed_same_topology():
    a = generate_topology(_cfg(node_count=10, seed=42))
    b = generate_topology(_cfg(node_count=10, seed=42))
    assert a.nodes == b.nodes
    assert a.edges == b.edges


def test_different_seed_different_topology():
    a = generate_topology(_cfg(node_count=12, seed=1))
    b = generate_topology(_cfg(node_count=12, seed=2))
    assert a.nodes != b.nodes


def test_generated_graphs_are_connected():
    for seed in range(1, 6):
        assert is_connected(generate_topology(_cfg(node_count=20, seed=seed)))
        assert is_connected(generate_topology(_cfg(node_count=20, seed=seed), planarize=True))


def test_positions_inside_grid():
    topo = generate_topology(_cfg(node_count=25, seed=3))
    for _, pos in topo.nodes:
        assert 0.0 <= pos.x <= GRID
        assert 0.0 <= pos.y <= GRID


def test_invalid_configs_rejected():
    with pytest.raises(TopologyError):
        WaxmanConfig(node_count=1, seed=1, grid_size=GRID)
    with pytest.raises(TopologyError):
        WaxmanConfig(node_count=5, seed=1, grid_size=GRID, theta=0.0)
    with pytest.raises(TopologyError):
        WaxmanConfig(node_count=5, seed=1, grid_size=GRID, omega=1.5)
    with pytest.raises(TopologyError):
        WaxmanConfig(node_count=5, seed=1, grid_size=-1.0)


# --- gabriel filter ---------------------------------------------------------

def test_gabriel_removes_edge_with_witness_in_circle():
    topo = Topology(
        nodes=[(0, Position(0, 0)), (1, Position(4, 0)), (2, Position(2, 0.1))],
        edges={(0, 1), (0, 2), (1, 2)},
        grid_size=10.0,
    )
    out = gabrielize(topo)
    assert (0, 1) not in out.edges
    assert (0, 2) in out.edges and (1, 2) in out.edges


def test_gabriel_two_nodes_unchanged():
    topo = Topology(
        nodes=[(0, Position(0, 0)), (1, Position(4, 0))],
        edges={(0, 1)},
        grid_size=10.0,
    )
    assert gabrielize(topo).edges == {(0, 1)}


def test_gabriel_brute_force_clean_on_random_graphs():
    for seed in range(1, 6):
        out = gabrielize(generate_topology(_cfg(node_count=20, seed=seed)))
        assert gabriel_violations(out) == []


def test_gabriel_output_planar():
    for seed in range(1, 6):
        out = generate_topology(_cfg(node_count=20, seed=seed), planarize=True)
        assert crossing_pairs(out) == []


def test_gabriel_idempotent():
    for seed in range(1, 6):
        first = gabrielize(generate_topology(_cfg(node_count=15, seed=seed)))
        assert gabrielize(first).edges == first.edges


@settings(max_examples=25, deadline=None)
@given(st.lists(
    st.tuples(st.floats(0, 50), st.floats(0, 50)),
    min_size=3, max_size=12, unique=True,
))
def test_gabriel_idempotent_on_complete_graphs(points):
    nodes = [(i, Position(x, y)) for i, (x, y) in enumerate(points)]
    edges = {(i, j) for i in range(len(nodes)) for j in range(i + 1, len(nodes))}
    topo = Topology(nodes=nodes, edges=edges, grid_size=50.0)
    once = gabrielize(topo)
    assert gabrielize(once).edges == once.edges
    assert gabriel_violations(once) == []


# --- topology container and file format -------------------------------------

def test_rejects_self_loop():
    with pytest.raises(TopologyError):
        Topology(nodes=[(0, Position(0, 0))], edges={(0, 0)}, grid_size=1.0)


def test_rejects_undeclared_endpoint():
    with pytest.raises(TopologyError):
        Topology(nodes=[(0, Position(0, 0))], edges={(0, 7)}, grid_size=1.0)


def test_file_round_trip(tmp_path):
    topo = generate_topology(_cfg(node_count=15, seed=9), planarize=True)
    path = tmp_path / "topo.txt"
    save_topology(topo, str(path))
    loaded = load_topology(str(path))
    assert [nid for nid, _ in loaded.nodes] == [nid for nid, _ in topo.nodes]
    assert loaded.edges == topo.edges
    for (nid, a), (_, b) in zip(topo.nodes, loaded.nodes):
        assert a.x == pytest.approx(b.x, abs=1e-6)
        assert a.y == pytest.approx(b.y, abs=1e-6)


def test_file_format_layout(tmp_path):
    topo = Topology(
        nodes=[(0, Position(1.5, 2.25)), (1, Position(3, 4))],
        edges={(0, 1)},
        grid_size=10.0,
    )
    path = tmp_path / "t.txt"
    save_topology(topo, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "topology v1 2 1 10.000000"
    assert lines[1] == "N 0 1.500000 2.250000"
    assert lines[2] == "N 1 3.000000 4.000000"
    assert lines[3] == "E 0 1"


def test_load_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("nonsense here\n")
    with pytest.raises(TopologyError):
        load_topology(str(path))

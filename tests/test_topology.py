import hashlib
import math
import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from helpers import crossing_pairs, gabriel_violations, naive_gabriel_edges, waxman_accepts
from qkdsim.geometry import Position
from qkdsim.topology import (
    DEFAULT_GRID_SIZE,
    Topology,
    TopologyError,
    TopologySpec,
    gabrielize,
    generate_topology,
    is_connected,
    load_topology,
    save_topology,
    waxman_edge_probability,
)

# --- edge probability -------------------------------------------------------

# The default grid's diagonal, lambda, is 100 length units.

def test_probability_at_zero_distance_is_theta():
    assert waxman_edge_probability(0.0, TopologySpec()) == pytest.approx(0.4)


def test_probability_at_omega_lambda():
    # d = omega * lambda: theta / e
    cfg = TopologySpec()
    assert waxman_edge_probability(40.0, cfg) == pytest.approx(0.4 / math.e, rel=1e-12)


def test_probability_monotone_decreasing():
    cfg = TopologySpec()
    probs = [waxman_edge_probability(d, cfg) for d in range(0, 200, 10)]
    assert all(a > b for a, b in zip(probs, probs[1:]))
    assert waxman_edge_probability(1e9, cfg) < 1e-6


def test_lambda_defaults_to_grid_diagonal():
    # d = omega * lambda on a 10-unit grid: theta / e
    d = 0.4 * 10.0 * math.sqrt(2.0)
    assert waxman_edge_probability(d, TopologySpec(grid_size=10.0)) == pytest.approx(
        0.4 / math.e, rel=1e-12)


def test_bernoulli_acceptance_matches_probability():
    cfg = TopologySpec()
    rng = random.Random(7)
    for d in (0.0, 40.0):
        hits = sum(waxman_accepts(d, cfg, rng) for _ in range(10_000))
        assert hits / 10_000 == pytest.approx(waxman_edge_probability(d, cfg), abs=0.02)


# --- generation -------------------------------------------------------------

def test_two_nodes_yield_single_edge():
    topo = generate_topology(TopologySpec(node_count=2, gabriel=False), 1)
    assert len(topo.nodes) == 2
    assert len(topo.edges) == 1


def test_same_seed_same_topology():
    a = generate_topology(TopologySpec(node_count=10, gabriel=False), 42)
    b = generate_topology(TopologySpec(node_count=10, gabriel=False), 42)
    assert a.nodes == b.nodes
    assert a.edges == b.edges


def test_different_seed_different_topology():
    a = generate_topology(TopologySpec(node_count=12, gabriel=False), 1)
    b = generate_topology(TopologySpec(node_count=12, gabriel=False), 2)
    assert a.nodes != b.nodes


def test_generated_graphs_are_connected():
    for seed in range(1, 6):
        assert is_connected(generate_topology(TopologySpec(node_count=20, gabriel=False), seed))
        assert is_connected(generate_topology(TopologySpec(node_count=20), seed))


def test_positions_inside_grid():
    topo = generate_topology(TopologySpec(node_count=25, gabriel=False), 3)
    for _, pos in topo.nodes:
        assert 0.0 <= pos.x <= DEFAULT_GRID_SIZE
        assert 0.0 <= pos.y <= DEFAULT_GRID_SIZE


def test_invalid_configs_rejected():
    cases = [
        ({"node_count": 1}, "node_count must be at least 2"),
        ({"grid_size": -1.0}, "grid_size must be positive and finite"),
    ]
    for bad in (math.nan, math.inf):
        cases += [({"grid_size": bad}, "grid_size must be positive and finite")]
    for gabriel in (True, False):
        for kw, message in cases:
            with pytest.raises(TopologyError, match=message):
                generate_topology(TopologySpec(**{"node_count": 5, "gabriel": gabriel, **kw}), 1)


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
        out = gabrielize(generate_topology(TopologySpec(node_count=20, gabriel=False), seed))
        assert gabriel_violations(out) == []


def test_gabriel_output_planar():
    for seed in range(1, 6):
        out = generate_topology(TopologySpec(node_count=20), seed)
        assert crossing_pairs(out) == []


def test_gabriel_idempotent():
    for seed in range(1, 6):
        first = gabrielize(generate_topology(TopologySpec(node_count=15, gabriel=False), seed))
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


@st.composite
def _graphs(draw, coord):
    """A topology on arbitrary distinct node ids with a random subset of all edges."""
    points = draw(st.lists(st.tuples(coord, coord), min_size=2, max_size=14))
    ids = draw(st.lists(st.integers(-10**6, 10**6), min_size=len(points),
                        max_size=len(points), unique=True))
    pairs = list(combinations(ids, 2))
    keep = draw(st.one_of(
        st.just([True] * len(pairs)),
        st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)),
    ))
    return Topology(
        nodes=[(nid, Position(x, y)) for nid, (x, y) in zip(ids, points)],
        edges={pair for pair, k in zip(pairs, keep) if k},
        grid_size=50.0,
    )


# Small integer lattices force duplicate points, ties in the scan order and
# witnesses exactly on the diameter circle.
@settings(max_examples=300, deadline=None)
@given(_graphs(st.integers(0, 6).map(float)))
def test_gabriel_matches_naive_oracle_on_lattices(topo):
    assert gabrielize(topo).edges == naive_gabriel_edges(topo)


@settings(max_examples=150, deadline=None)
@given(_graphs(st.floats(0, 50)))
def test_gabriel_matches_naive_oracle_on_float_points(topo):
    assert gabrielize(topo).edges == naive_gabriel_edges(topo)


@pytest.mark.parametrize("n", [2, 3, 7, 30])
def test_planar_generation_matches_naive_oracle_on_complete_graph(n):
    for seed in range(1, 6):
        topo = generate_topology(TopologySpec(node_count=n), seed)
        complete = Topology(nodes=list(topo.nodes), edges=set(combinations(range(n), 2)),
                            grid_size=topo.grid_size)
        assert topo.edges == naive_gabriel_edges(complete)


# SHA-256 of the sorted edge list, one "u v" line per edge, at the sizes the
# benchmark runs; the naive oracle above stops at 30 nodes.
EDGE_DIGESTS = {
    (60, 1): "4ebc575a0df98dc59ce3c187f8c743e522b783595af6c2599cde7c37e68e363d",
    (120, 1): "be7cd779fffaf7b87b91b3caf0658da84902556dfb8cb2a3c5d9e05502f5acbf",
    (120, 9): "b1de5f23ac107f746d70f853f5037fb5141e2afd346966db066847986a636683",
    (120, 10): "5cb768dc5e62ecf89d1a38784eb4745146fb37ed52786e84573820305e55d4cf",
    (120, 11): "7fa0a72a8d00d8fe2a496dda391471c6db6aecfbd4ecbd0d51b5edfd213e85b0",
    (120, 12): "a882a6c9d734bb3264b84fe8990c160c141da8beee5ae2e27b0b606b5cb1167a",
    (120, 13): "6493a40497cea023ebcda934905685b291dcfea943d0a16d2836968ddb365ef9",
    (120, 14): "bbadee6e783b1c137f2e884147003dd45b2315eb3378b310d8e7cd43d1a7557d",
    (120, 15): "6298bb033f2c09b0d4ae7ada84ab88acd0bbb1852ca9f6c752d654ff93b3e70c",
    (120, 16): "4ac555a391913a495913596417f0960a8527f9b3323f59086c9ac04dc9ae97f5",
    (200, 9): "1748bcdecdace4b1d2669b2b78cda519b444e371390fce4a9c747e93a320e890",
    (200, 10): "7dde54ae9047330b78633287959451a29a78548fa7b3e4493510cf821447d728",
    (200, 11): "b588a5091a987c53e9d1df90703e387e0f8c006f1c85ba569e15fb0554f35af7",
    (200, 12): "32dfae8711b9a15fc2eef56188a4cfb1af72145108521108262d86eeeeafd5e8",
    (200, 13): "dd7aecb98a3de17df62f089b3982237fb60c3727a32f5f16e735b08edd56b3fb",
    (200, 14): "c91bbecff1b86ac304adb25965c2dacd555ee6aae39c5d4e7c67e0d494c3c027",
    (200, 15): "81a4a4c799607ec4dbd3365e76fdcefbfb81361cc323ff9537db2b7093339b39",
    (200, 16): "337d80789cdb4b2c728e2ff66c21e8ae7af21f21c286fa87f2d65f45b4b24e01",
}


@pytest.mark.parametrize("n, seed", sorted(EDGE_DIGESTS))
def test_generated_edges_pinned_at_benchmark_sizes(n, seed):
    topo = generate_topology(TopologySpec(node_count=n), seed)
    text = "".join(f"{u} {v}\n" for u, v in sorted(topo.edges))
    assert hashlib.sha256(text.encode()).hexdigest() == EDGE_DIGESTS[n, seed]


# --- topology container and file format -------------------------------------

def test_rejects_self_loop():
    with pytest.raises(TopologyError):
        Topology(nodes=[(0, Position(0, 0))], edges={(0, 0)}, grid_size=1.0)


def test_rejects_undeclared_endpoint():
    with pytest.raises(TopologyError):
        Topology(nodes=[(0, Position(0, 0))], edges={(0, 7)}, grid_size=1.0)


def test_file_round_trip(tmp_path):
    topo = generate_topology(TopologySpec(node_count=15), 9)
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


@pytest.mark.parametrize("text", [
    "topology v1 x 1 10\n",
    "topology v1 1 0 inf\nN 0 1 1\n",
    "topology v1 1 0 10\nN 0 a 1\n",
    "topology v1 1 0 10\nN 0 nan 1\n",
    "topology v1 2 1 10\nN 0 1 1\nN 1 2 -inf\nE 0 1\n",
    "topology v1 2 1 10\nN 0 1 1\nN 1 2 2\nE 0 x\n",
])
def test_load_rejects_malformed_numbers(tmp_path, text):
    path = tmp_path / "bad.txt"
    path.write_text(text, encoding="ascii")
    with pytest.raises(TopologyError):
        load_topology(str(path))

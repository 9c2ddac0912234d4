import math

import pytest
from hypothesis import given, strategies as st

from helpers import segments_cross
from qkdsim.geometry import Position, angle_of, ccw_next_neighbor, ccw_order, euclidean_distance


def test_distance_identity():
    assert euclidean_distance(Position(0, 0), Position(0, 0)) == 0.0


def test_distance_3_4_5():
    assert euclidean_distance(Position(0, 0), Position(3, 4)) == 5.0


def test_distance_shifted():
    # sqrt((4-1)^2 + (6-2)^2) = sqrt(9 + 16) = 5
    assert euclidean_distance(Position(1, 2), Position(4, 6)) == pytest.approx(5.0, rel=1e-12)


@given(
    st.floats(-100, 100), st.floats(-100, 100),
    st.floats(-100, 100), st.floats(-100, 100),
)
def test_distance_symmetric(ax, ay, bx, by):
    a, b = Position(ax, ay), Position(bx, by)
    assert euclidean_distance(a, b) == euclidean_distance(b, a)


def _ring(angles_deg):
    return [
        (i, Position(math.cos(math.radians(a)), math.sin(math.radians(a))))
        for i, a in enumerate(angles_deg)
    ]


def test_ccw_skips_reference_neighbor():
    # Reference along the incoming edge at 0 degrees: the neighbor sitting on
    # that ray counts as a full turn, so the 90-degree neighbor wins.
    neighbors = _ring([0, 90, 180])
    assert ccw_next_neighbor(Position(0, 0), 0.0, neighbors) == 1


def test_ccw_single_neighbor_returns_it():
    neighbors = _ring([0])
    assert ccw_next_neighbor(Position(0, 0), 0.0, neighbors) == 0


def test_ccw_reference_between_angles_picks_larger():
    neighbors = _ring([30, 150])
    got = ccw_next_neighbor(Position(0, 0), math.radians(90), neighbors)
    assert got == 1


def test_ccw_enumerates_all_neighbors_once_per_turn():
    angles = [10, 75, 190, 300]
    neighbors = _ring(angles)
    origin = Position(0, 0)
    ref = math.radians(350)
    seen = []
    for _ in range(len(neighbors)):
        nxt = ccw_next_neighbor(origin, ref, neighbors)
        seen.append(nxt)
        ref = angle_of(origin, dict(neighbors)[nxt])
    assert sorted(seen) == [0, 1, 2, 3]


@given(
    st.lists(st.floats(0, 359.99), min_size=1, max_size=8, unique=True),
    st.floats(0, 2 * math.pi),
)
def test_ccw_full_turn_property(angles_deg, start_ref):
    # Degenerate near-coincident directions are excluded: ordering between
    # angles closer than the tie tolerance is id-based by design.
    gaps_ok = all(
        abs(a - b) > 0.01 for i, a in enumerate(angles_deg) for b in angles_deg[i + 1:]
    )
    if not gaps_ok:
        return
    neighbors = _ring(angles_deg)
    origin = Position(0, 0)
    ref = start_ref
    seen = []
    for _ in range(len(neighbors)):
        nxt = ccw_next_neighbor(origin, ref, neighbors)
        seen.append(nxt)
        ref = angle_of(origin, dict(neighbors)[nxt])
    assert sorted(seen) == list(range(len(neighbors)))


def test_ccw_order_ties_go_to_the_smaller_id_and_the_ray_comes_last():
    # 3 and 7 share the 90-degree bearing; 5 lies on the reference ray.
    neighbors = [(7, Position(0, 1)), (3, Position(0, 3)), (5, Position(1, 0)), (4, Position(-1, 0))]
    assert ccw_order(Position(0, 0), 0.0, neighbors) == [3, 7, 4, 5]


@given(
    st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(lambda p: p != (0, 0)),
             min_size=1, max_size=7),
    st.data(),
)
def test_ccw_order_first_member_is_every_sub_pool_pick(points, data):
    # Small integer points repeat bearings (and positions); the reference ray
    # runs through one of the neighbours, so that neighbour lies on it.
    origin = Position(0, 0)
    neighbors = [(i, Position(x, y)) for i, (x, y) in enumerate(points)]
    ref = angle_of(origin, data.draw(st.sampled_from(neighbors))[1])
    order = ccw_order(origin, ref, neighbors)
    assert sorted(order) == list(range(len(neighbors)))
    for mask in range(1, 2 ** len(neighbors)):
        pool = [nb for nb in neighbors if mask >> nb[0] & 1]
        ids = {nid for nid, _ in pool}
        assert next(nid for nid in order if nid in ids) == ccw_next_neighbor(origin, ref, pool)


def test_ccw_no_neighbors_raises():
    with pytest.raises(ValueError):
        ccw_next_neighbor(Position(0, 0), 0.0, [])


def test_segments_cross_plain():
    assert segments_cross(Position(0, 0), Position(2, 2), Position(0, 2), Position(2, 0))


def test_segments_shared_endpoint_not_a_crossing():
    assert not segments_cross(Position(0, 0), Position(1, 1), Position(1, 1), Position(2, 0))


def test_segments_parallel_disjoint():
    assert not segments_cross(Position(0, 0), Position(1, 0), Position(0, 1), Position(1, 1))

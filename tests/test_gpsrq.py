import pytest
from hypothesis import given, settings, strategies as st

from helpers import NaiveExclusionCache
from qkdsim.geometry import Position
from qkdsim.gpsrq import GpsrqNode, cache_ttl, greedy_choice
from qkdsim.links import PublicChannelStats


def _node(**kw):
    base = dict(node_id=0, beta=0.6, cache_enabled=True)
    base.update(kw)
    return GpsrqNode(**base)


# --- cache records -----------------------------------------------------------

def test_destination_at_center_is_blocked():
    node = _node()
    node.add_cache(via=1, radius=2.5, now=0.0, ttl=5.0)
    assert node.cache_blocked(1, now=1.0)


def test_other_neighbor_not_blocked():
    node = _node()
    node.add_cache(via=1, radius=2.5, now=0.0, ttl=5.0)
    assert not node.cache_blocked(2, now=1.0)


def test_expired_record_ignored_and_pruned():
    node = _node()
    node.add_cache(via=1, radius=2.5, now=0.0, ttl=5.0)
    assert not node.cache_blocked(1, now=5.0)
    node.prune_cache(now=5.0)
    assert node.cache == {} and node.blocked_until == {}


def test_disabled_cache_stores_nothing():
    node = _node(cache_enabled=False)
    assert node.add_cache(via=1, radius=2.5, now=0.0, ttl=5.0) is False
    assert not node.cache_blocked(1, now=1.0)
    assert node.cache == {}


def test_re_adding_a_region_never_shortens_it():
    node = _node()
    assert node.add_cache(via=1, radius=2.5, now=0.0, ttl=5.0)
    assert node.add_cache(via=1, radius=2.5, now=1.0, ttl=1.0)
    assert node.cache == {(1, 2.5): 5.0}
    assert node.cache_blocked(1, now=4.0)
    node.add_cache(via=1, radius=2.5, now=4.0, ttl=3.0)
    assert node.cache == {(1, 2.5): 7.0}


def test_second_region_expiring_earlier_never_shortens_the_block():
    node = _node()
    node.add_cache(via=1, radius=2.5, now=0.0, ttl=5.0)
    node.add_cache(via=1, radius=1.0, now=1.0, ttl=1.0)
    assert node.cache == {(1, 2.5): 5.0, (1, 1.0): 2.0}
    assert node.cache_blocked(1, now=3.0)
    assert not node.cache_blocked(1, now=5.0)


# Every region of a run is centred on its one destination, so the oracle gets
# that centre and is asked about that destination. Radii and times come from
# coarse grids, so that a neighbour holds several regions, regions share expiry
# times and some expire at the moment they are added.
_DST = Position(3, 4)


def _cache_ops(n_neighbors):
    via = st.integers(1, n_neighbors)
    op = st.one_of(
        st.tuples(st.just("add"), via, st.sampled_from([0.0, 1.0, 2.5, 5.0]),
                  st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0])),
        st.tuples(st.just("blocked"), via),
        st.tuples(st.just("prune")),
    )
    return st.lists(st.tuples(st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.5]), op), max_size=80)


def _live_regions(records, now):
    """The oracle's records merged by region with the latest expiry, live ones only."""
    merged = {}
    for via, _, radius, expires_at in records:
        region = (via, radius)
        merged[region] = max(merged.get(region, expires_at), expires_at)
    return {region: t for region, t in merged.items() if t > now}


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(_cache_ops), st.booleans())
def test_cache_matches_naive_oracle(steps, cache_enabled):
    node = _node(cache_enabled=cache_enabled)
    oracle = NaiveExclusionCache(cache_enabled)
    now = 0.0
    for dt, (name, *args) in steps:
        now += dt
        if name == "add":
            via, radius, ttl = args
            got = node.add_cache(via, radius, now, ttl)
            want = oracle.add_cache(via, _DST, radius, now, ttl)
            assert got == (want is not None)
        elif name == "blocked":
            (via,) = args
            assert node.cache_blocked(via, now) == oracle.cache_blocked(via, _DST, now)
        else:
            node.prune_cache(now)
            oracle.prune_cache(now)
        live = {region: t for region, t in node.cache.items() if t > now}
        assert live == _live_regions(oracle.records, now)


def test_pruned_cache_retains_no_records():
    node = _node()
    for i in range(40):
        node.add_cache(via=1 + i % 4, radius=float(i), now=i * 0.25, ttl=1.0 + i % 3)
    node.prune_cache(now=3.0)
    assert 0 < len(node.cache) < 40
    assert node.blocked_until == {via: t for via, t in node.blocked_until.items() if t > 3.0}
    node.prune_cache(now=100.0)
    assert node.cache == {} and node.blocked_until == {}


# --- cache validity interval ---------------------------------------------------

def test_cache_ttl_equals_rolling_average():
    ps = PublicChannelStats(window_len=3)
    ps.record_key_round(5.0, now=0.0)
    assert cache_ttl(ps) == 5.0


def test_cache_ttl_tracks_average():
    ps = PublicChannelStats(window_len=2)
    ps.record_key_round(6.0, now=0.0)
    ps.record_key_round(8.0, now=1.0)
    assert cache_ttl(ps) == pytest.approx(7.0)


def test_cache_ttl_monotone_in_average():
    slow = PublicChannelStats(window_len=1)
    fast = PublicChannelStats(window_len=1)
    slow.record_key_round(9.0, now=0.0)
    fast.record_key_round(3.0, now=0.0)
    assert cache_ttl(slow) > cache_ttl(fast)


# --- greedy scoring -------------------------------------------------------------

def test_beta_one_picks_geographically_closest():
    cands = [(1, 0.1, 30.0), (2, 0.9, 10.0)]
    assert greedy_choice(cands, beta=1.0) == 2


def test_beta_zero_picks_best_link_state():
    cands = [(1, 0.1, 30.0), (2, 0.9, 10.0)]
    assert greedy_choice(cands, beta=0.0) == 1


def test_tie_breaks_to_smaller_id():
    cands = [(5, 0.5, 10.0), (3, 0.5, 10.0)]
    assert greedy_choice(cands, beta=0.6) == 3
    # 0.5 * 0.5 + 0.5 * 1.0 == 0.5 * 0.75 + 0.5 * 0.75 == 0.75
    assert greedy_choice([(4, 0.5, 10.0), (1, 0.75, 7.5)], beta=0.5) == 1


def test_empty_candidates_is_none():
    assert greedy_choice([], beta=0.5) is None


def test_scores_blend_convexly():
    # Normalized distances 0.8 and 1.0: at beta 0.5, 1 scores 0.6 against
    # 2's 0.55 (link metric 0.1) or 0.65 (0.3), so the blend decides.
    assert greedy_choice([(1, 0.4, 8.0), (2, 0.1, 10.0)], beta=0.5) == 2
    assert greedy_choice([(1, 0.4, 8.0), (2, 0.3, 10.0)], beta=0.5) == 1
    assert greedy_choice([(1, 0.4, 8.0), (2, 0.3, 10.0)], beta=0.0) == 2
    assert greedy_choice([(1, 0.4, 8.0), (2, 0.1, 10.0)], beta=1.0) == 1


def test_candidates_all_at_the_destination_are_scored_by_link_alone():
    assert greedy_choice([(1, 0.5, 0.0), (2, 0.4, 0.0)], beta=0.6) == 2


# --- threshold views -------------------------------------------------------------

def test_threshold_optimistic_before_exchange():
    node = _node()
    assert node.m_thr(1, m_max=100.0) == 100.0


def test_threshold_min_of_sent_and_received():
    node = _node()
    node.l_sent = 36.66
    node.recv_l[1] = 25.0
    assert node.m_thr(1, m_max=100.0) == 25.0
    assert node.m_thr(2, m_max=100.0) == 36.66

import math

import pytest
from hypothesis import given, strategies as st

from qkdsim.links import PublicChannelStats
from qkdsim.metrics import (
    link_metric,
    local_mean,
    public_metric,
    quantum_metric,
    threshold,
)

REL = 1e-9


# --- local mean and threshold -------------------------------------------------

def test_local_mean_three_links():
    # 60, 30, 20 units -> 110/3 = 36.66...
    assert local_mean([60.0, 30.0, 20.0]) == pytest.approx(110.0 / 3.0, rel=REL)


def test_local_mean_single_link():
    assert local_mean([42.0]) == 42.0


def test_local_mean_equal_links():
    assert local_mean([25.0, 25.0]) == 25.0


def test_threshold_worked_example():
    assert threshold(110.0 / 3.0, 25.0) == 25.0


def test_threshold_symmetric_and_idempotent():
    assert threshold(7.0, 7.0) == 7.0
    assert threshold(0.0, 9.0) == 0.0
    assert threshold(3.0, 5.0) == threshold(5.0, 3.0)


@given(st.floats(0, 1e9), st.floats(0, 1e9))
def test_threshold_commutative(a, b):
    assert threshold(a, b) == threshold(b, a)


# --- quantum metric -----------------------------------------------------------

def test_quantum_metric_empty_storage_is_worst():
    q_frac, q_m = quantum_metric(0.0, 50.0, 100.0)
    assert q_frac == 0.0
    assert q_m == 1.0


def test_quantum_metric_full_storage_is_best():
    q_frac, q_m = quantum_metric(100.0, 100.0, 100.0)
    assert q_frac == 1.0
    assert q_m == pytest.approx(0.0, abs=1e-12)


def test_quantum_metric_midpoint():
    q_frac, q_m = quantum_metric(50.0, 50.0, 100.0)
    assert q_frac == pytest.approx(0.125, rel=REL)
    assert q_m == pytest.approx(1.0 - 0.125 / math.exp(0.875), rel=REL)
    assert q_m == pytest.approx(0.9479, abs=1e-4)


def test_quantum_metric_strictly_decreasing_in_fill():
    values = [quantum_metric(m, 50.0, 100.0)[1] for m in range(0, 101, 1)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_quantum_metric_decreasing_in_threshold():
    values = [quantum_metric(60.0, thr, 100.0)[1] for thr in range(0, 101, 5)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert values[0] > values[-1]


@given(st.floats(0, 100), st.floats(0, 100))
def test_quantum_metric_bounded(m_cur, m_thr):
    q_frac, q_m = quantum_metric(m_cur, m_thr, 100.0)
    assert 0.0 <= q_frac <= 1.0
    assert 0.0 <= q_m <= 1.0


def test_quantum_metric_validates_inputs():
    with pytest.raises(ValueError):
        quantum_metric(101.0, 50.0, 100.0)


def test_fill_outweighs_threshold_in_worked_neighborhood():
    # Link with fill 60 and threshold 25 versus link with fill 30 and
    # threshold 27.5 on capacity-100 storages: the squared-fill weighting
    # rates the fuller link better (lower metric) despite its lower
    # threshold.
    _, q_bc = quantum_metric(60.0, 25.0, 100.0)
    _, q_bd = quantum_metric(30.0, 27.5, 100.0)
    assert q_bc < q_bd


# --- public metric --------------------------------------------------------------

def _stats(t_last, t_average_samples, recorded_at=0.0):
    ps = PublicChannelStats(window_len=len(t_average_samples))
    for i, v in enumerate(t_average_samples):
        ps.record_key_round(v, now=recorded_at)
    ps.t_last = t_last
    return ps


def test_public_metric_at_maximum_tolerated():
    ps = _stats(t_last=10.0, t_average_samples=[5.0])
    assert public_metric(ps, now=0.0) == pytest.approx(1.0, rel=REL)


def test_public_metric_at_average():
    ps = _stats(t_last=5.0, t_average_samples=[5.0])
    assert public_metric(ps, now=0.0) == pytest.approx(0.5, rel=REL)


def test_public_metric_with_staleness():
    ps = _stats(t_last=5.0, t_average_samples=[5.0])
    assert public_metric(ps, now=5.0) == pytest.approx(1.0, rel=REL)


def test_public_metric_unclamped_above_one():
    ps = _stats(t_last=5.0, t_average_samples=[5.0])
    assert public_metric(ps, now=20.0) == pytest.approx(2.5, rel=REL)


# --- combined metric ------------------------------------------------------------

def test_link_metric_blend():
    assert link_metric(0.4, 0.2, 0.5) == pytest.approx(0.3, rel=REL)


def test_link_metric_extremes():
    assert link_metric(0.7, 0.1, 1.0) == 0.7
    assert link_metric(0.7, 0.1, 0.0) == 0.1


@given(
    st.floats(0, 100), st.floats(0, 100), st.floats(0, 5),
    st.floats(0.01, 1.0),
)
def test_ranking_invariance_in_fill(m_a, m_b, p_m, alpha):
    # With equal public state and equal thresholds, the fuller storage never
    # scores worse.
    thr, cap = 50.0, 100.0
    hi, lo = max(m_a, m_b), min(m_a, m_b)
    r_hi = link_metric(quantum_metric(hi, thr, cap)[1], p_m, alpha)
    r_lo = link_metric(quantum_metric(lo, thr, cap)[1], p_m, alpha)
    assert r_hi <= r_lo + 1e-12

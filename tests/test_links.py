from collections import deque

import pytest
from hypothesis import given, strategies as st

from helpers import max_deliverable
from qkdsim.links import MIN_KEY_BITS, KeyStorage, PublicChannelStats, QkdLink


def fresh_storage(m_cur=0.0, m_max=8e8, rate=100_000.0):
    return KeyStorage(m_max=m_max, m_cur=m_cur, rate=rate)


# --- charging ---------------------------------------------------------------

def test_charge_adds_rate_times_period():
    s = fresh_storage(m_cur=0.0)
    s.charge()
    assert s.m_cur == pytest.approx(700_000.0)


def test_charge_saturates_at_capacity():
    s = fresh_storage(m_cur=8e8)
    s.charge()
    assert s.m_cur == 8e8


def test_two_charges_additive_below_capacity():
    s = fresh_storage(m_cur=1e6)
    s.charge()
    s.charge()
    assert s.m_cur == pytest.approx(1e6 + 2 * 700_000.0)


# --- consumption rules ------------------------------------------------------

def test_non_premium_refused_at_reserve():
    s = fresh_storage(m_cur=8e6)  # exactly the reserve
    assert not s.consume(1.0, premium=False)
    assert s.m_cur == 8e6


def test_non_premium_cannot_dip_below_reserve():
    s = fresh_storage(m_cur=8e6 + 100.0)
    assert not s.consume(200.0, premium=False)
    assert s.consume(100.0, premium=False)
    assert s.m_cur == pytest.approx(8e6)


def test_premium_may_drain_reserve_to_zero():
    s = fresh_storage(m_cur=8e6 + 100.0)
    assert s.consume(8e6 + 100.0, premium=True)
    assert s.m_cur == 0.0


def test_consume_exact_deduction():
    s = fresh_storage(m_cur=9e6)
    assert s.consume(123_456.0, premium=False)
    assert s.m_cur == pytest.approx(9e6 - 123_456.0)


# --- deliverable bound ------------------------------------------------------

def test_max_deliverable_zero_horizon_at_reserve():
    s = fresh_storage(m_cur=8e6)
    assert max_deliverable(s, 0.0) == 0.0


def test_max_deliverable_zero_horizon_surplus():
    s = fresh_storage(m_cur=8e6 + 8000.0)
    assert max_deliverable(s, 0.0) == pytest.approx(8000.0)


def test_max_deliverable_premium_includes_reserve():
    s = fresh_storage(m_cur=8e6)
    assert max_deliverable(s, 0.0, premium=True) == pytest.approx(8e6)


def test_max_deliverable_rate_term():
    s = fresh_storage(m_cur=8e6)
    assert max_deliverable(s, 10.0) == pytest.approx(1_000_000.0)


def test_deliverable_rate_approaches_charging_rate():
    s = fresh_storage(m_cur=8e6 + 1e6)
    rates = [max_deliverable(s, t) / t for t in (10.0, 100.0, 1000.0)]
    errors = [abs(r - s.rate) / s.rate for r in rates]
    assert errors == sorted(errors, reverse=True)
    assert errors[-1] < 0.05


@given(
    st.lists(
        st.tuples(st.sampled_from(["charge", "consume", "premium"]),
                  st.floats(1.0, 5e6)),
        max_size=60,
    )
)
def test_storage_bounds_hold_under_any_interleaving(ops):
    s = fresh_storage(m_cur=5e7)
    for op, amount in ops:
        if op == "charge":
            s.charge()
        elif op == "consume":
            before = s.m_cur
            if not s.consume(amount, premium=False):
                assert s.m_cur == before
            else:
                assert s.m_cur >= MIN_KEY_BITS
        else:
            s.consume(amount, premium=True)
        assert 0.0 <= s.m_cur <= s.m_max
    # Accounting identity: consumed + current - initial == charged.
    assert s.consumed_total + s.m_cur - 5e7 == pytest.approx(s.charged_total, abs=1e-3)


# --- public channel stats ---------------------------------------------------

def test_first_round_sets_both_values():
    ps = PublicChannelStats(window_len=5)
    ps.record_key_round(5.0, now=10.0)
    assert ps.t_last == 5.0
    assert ps.t_average == 5.0
    assert ps.t_last_recorded_at == 10.0


def test_window_mean():
    ps = PublicChannelStats(window_len=5)
    ps.record_key_round(4.0, now=1.0)
    ps.record_key_round(6.0, now=2.0)
    assert ps.t_average == pytest.approx(5.0)
    ps.record_key_round(5.0, now=3.0)
    assert ps.t_average == pytest.approx(5.0)


def test_window_evicts_oldest():
    ps = PublicChannelStats(window_len=5)
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    for i, v in enumerate(values):
        ps.record_key_round(v, now=float(i))
    assert len(ps.samples) == 5
    assert ps.t_average == pytest.approx(sum(values[1:]) / 5.0)
    assert ps.t_last == 6.0


@given(st.integers(1, 8), st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=40))
def test_window_mean_matches_a_bounded_deque_bit_for_bit(window, durations):
    ps = PublicChannelStats(window_len=window)
    reference = deque(maxlen=window)
    for i, d in enumerate(durations):
        ps.record_key_round(d, now=float(i))
        reference.append(d)
        assert ps.t_average == sum(reference) / len(reference)


def test_average_seeded_before_first_sample():
    ps = PublicChannelStats(window_len=5)
    assert ps.t_average == 7.0
    assert ps.t_last == 7.0


# --- link container ---------------------------------------------------------

def _link():
    return QkdLink(
        node_a=0,
        node_b=1,
        storage=fresh_storage(m_cur=1e7),
        pub_stats=PublicChannelStats(window_len=5),
        bandwidth=1e7,
    )


def test_link_conservation_identity():
    lk = _link()
    lk.storage.charge()
    lk.storage.consume(123.0, premium=False)
    lk.storage.consume(77.0, premium=True)
    assert lk.conservation_error() == pytest.approx(0.0, abs=1e-6)

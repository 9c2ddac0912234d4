"""Channel-state metrics of a QKD link.

Lower is better for every metric here. The quantum-channel metric rates the
key fill level against the neighborhood threshold; the public-channel metric
rates the freshness and duration of key-establishment rounds. Public values
above 1.0 flag a link that is struggling to establish new key material and
are propagated unclamped so the routing layer can filter such links.
"""

from __future__ import annotations

import math
from typing import Iterable

from .links import PublicChannelStats


def local_mean(m_cur_values: Iterable[float]) -> float:
    """Mean current key level over the links adjacent to one node."""
    values = list(m_cur_values)
    return sum(values) / len(values)


def threshold(li: float, lj: float) -> float:
    """Reference threshold agreed by two endpoints: the smaller local mean."""
    if li < 0.0 or lj < 0.0:
        raise ValueError("local means must be non-negative")
    return min(li, lj)


def quantum_metric(m_cur: float, m_thr: float, m_max: float) -> tuple[float, float]:
    """Return (fill fraction, quantum-channel metric), both in [0, 1]."""
    if not (0.0 <= m_cur <= m_max) or not (0.0 <= m_thr <= m_max):
        raise ValueError("m_cur and m_thr must lie in [0, m_max]")
    q_frac = (m_cur * m_cur * m_thr) / (m_max ** 3)
    q_m = 1.0 - q_frac / math.exp(1.0 - q_frac)
    return q_frac, q_m


def public_metric(stats: PublicChannelStats, now: float) -> float:
    """Freshness-weighted round duration against twice the rolling average."""
    t_average = stats.t_average
    if t_average <= 0.0:
        raise ValueError("t_average must be positive")
    delta_t = now - stats.t_last_recorded_at
    t_maximal = 2.0 * t_average
    return (stats.t_last + delta_t) / t_maximal


def link_metric(q_m: float, p_m: float, alpha: float) -> float:
    """Blend of quantum and public channel state; alpha=1 is quantum-only."""
    return alpha * q_m + (1.0 - alpha) * p_m

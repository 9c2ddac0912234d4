"""Key-material token bucket and public-channel timing history of a QKD link.

All key quantities are kept in bits internally. The storage charges in
discrete bursts of rate * charge_period bits; consumption is gated by the
pre-shared reserve except for premium traffic, which may drain the bucket
completely.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field


@dataclass
class KeyStorage:
    m_min: float
    m_max: float
    m_cur: float
    rate: float
    charge_period: float
    charged_total: float = 0.0
    consumed_total: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 < self.m_min < self.m_max):
            raise ValueError("require 0 < m_min < m_max")
        if not (0.0 <= self.m_cur <= self.m_max):
            raise ValueError("require 0 <= m_cur <= m_max")
        if self.rate < 0.0:
            raise ValueError("charging rate must be non-negative")
        if self.charge_period <= 0.0:
            raise ValueError("charge_period must be positive")

    def charge(self) -> float:
        """Add one charging burst, discarding overflow; returns bits added."""
        added = min(self.m_max, self.m_cur + self.rate * self.charge_period) - self.m_cur
        self.m_cur += added
        self.charged_total += added
        return added

    def can_consume(self, key_bits: float, premium: bool) -> bool:
        if key_bits <= 0.0:
            raise ValueError("key_bits must be positive")
        if premium:
            return self.m_cur >= key_bits
        return self.m_cur > self.m_min and self.m_cur - key_bits >= self.m_min

    def consume(self, key_bits: float, premium: bool) -> bool:
        """Deduct key material; False signals refusal (the packet must wait)."""
        if not self.can_consume(key_bits, premium):
            return False
        self.m_cur -= key_bits
        self.consumed_total += key_bits
        return True


@dataclass
class PublicChannelStats:
    """Sliding window over recent key-establishment round durations.

    Before the first recorded round the average (and the last duration) fall
    back to ``initial_average`` so freshness ratios are defined from t=0.
    """

    window_len: int
    initial_average: float
    t_last: float | None = None
    t_last_recorded_at: float = 0.0
    samples: deque = field(default_factory=deque)
    _avg: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.window_len < 1:
            raise ValueError("window_len must be at least 1")
        if self.initial_average <= 0.0:
            raise ValueError("initial_average must be positive")
        if self.t_last is None:
            self.t_last = self.initial_average
        self.samples = deque(self.samples, maxlen=self.window_len)
        self._avg = (
            sum(self.samples) / len(self.samples) if self.samples else self.initial_average
        )

    @property
    def t_average(self) -> float:
        return self._avg

    def record_key_round(self, duration: float, now: float) -> None:
        if duration <= 0.0:
            raise ValueError("round duration must be positive")
        self.samples.append(duration)
        self.t_last = duration
        self.t_last_recorded_at = now
        self._avg = sum(self.samples) / len(self.samples)


@dataclass
class QkdLink:
    """A point-to-point QKD logical link between two trusted nodes."""

    node_a: int
    node_b: int
    storage: KeyStorage
    pub_stats: PublicChannelStats
    bandwidth: float
    initial_key: float = field(init=False)
    consumed_data: float = 0.0
    consumed_routing: float = 0.0
    busy_accum: float = 0.0

    def __post_init__(self) -> None:
        if self.node_a == self.node_b:
            raise ValueError("link endpoints must differ")
        if self.bandwidth <= 0.0:
            raise ValueError("bandwidth must be positive")
        self.initial_key = self.storage.m_cur

    def key(self) -> tuple[int, int]:
        return (min(self.node_a, self.node_b), max(self.node_a, self.node_b))

    def conservation_error(self) -> float:
        """initial + charged - consumed - current; zero when accounting balances."""
        return (
            self.initial_key
            + self.storage.charged_total
            - self.storage.consumed_total
            - self.storage.m_cur
        )

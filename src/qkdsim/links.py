"""Key-material token bucket and public-channel timing history of a QKD link.

All key quantities are kept in bits internally. The storage charges in
discrete bursts of rate * CHARGE_PERIOD_S bits; consumption is gated by the
pre-shared reserve except for premium traffic, which may drain the bucket
completely.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# The key reserve of every link, in bytes and in bits.
MIN_KEY_BYTES = 1_000_000.0
MIN_KEY_BITS = MIN_KEY_BYTES * 8.0
# Key establishment: every link charges once per period, and before its first
# round a link's public channel takes the period as its round average.
CHARGE_PERIOD_S = 7.0


@dataclass
class KeyStorage:
    m_max: float
    m_cur: float
    rate: float
    charged_total: float = 0.0
    consumed_total: float = 0.0

    def charge(self) -> None:
        """Add one charging burst, discarding overflow."""
        added = min(self.m_max, self.m_cur + self.rate * CHARGE_PERIOD_S) - self.m_cur
        self.m_cur += added
        self.charged_total += added

    def can_consume(self, key_bits: float, premium: bool) -> bool:
        if premium:
            return self.m_cur >= key_bits
        return self.m_cur > MIN_KEY_BITS and self.m_cur - key_bits >= MIN_KEY_BITS

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
    back to ``CHARGE_PERIOD_S`` so freshness ratios are defined from t=0.
    """

    window_len: int
    t_last: float = field(init=False)
    t_last_recorded_at: float = field(init=False, default=0.0)
    samples: list[float] = field(init=False)
    t_average: float = field(init=False)

    def __post_init__(self) -> None:
        self.t_last = self.t_average = CHARGE_PERIOD_S
        self.samples = []

    def record_key_round(self, duration: float, now: float) -> None:
        self.samples.append(duration)
        if len(self.samples) > self.window_len:
            del self.samples[0]
        self.t_last = duration
        self.t_last_recorded_at = now
        self.t_average = sum(self.samples) / len(self.samples)


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

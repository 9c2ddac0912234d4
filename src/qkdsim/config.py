"""Dataclass configuration for links, traffic and runs (topologies: ``TopologySpec``)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .qos import TrafficClass
# Not used here: perfbench/workloads.py imports a run's two configs, RunConfig and
# TopologySpec, from this module.
from .topology import TopologySpec  # noqa: F401


class ConfigError(ValueError):
    """Invalid experiment configuration."""


PROTOCOLS = ("gpsrq", "dv")
CRYPTO_MODES = ("otp", "aes")
# In "aes" mode one session key of this many bits serves this many data packets.
AES_SESSION_KEY_BITS = 256
AES_REFRESH_PACKETS = 100

_BOOL_WORDS = {"on": True, "true": True, "1": True, "yes": True,
               "off": False, "false": False, "0": False, "no": False}


def parse_value(default, raw: str):
    """Parse ``raw`` as a value of the same type as a config field's ``default``.

    Bools take on/off words, tuples a ``lo:hi`` pair of floats, and a ``None``
    default marks an optional float. Range checks are left to ``validate``.
    """
    raw = raw.strip()
    try:
        if isinstance(default, bool):
            return _BOOL_WORDS[raw.lower()]
        if isinstance(default, tuple):
            lo, hi = raw.split(":")
            return float(lo), float(hi)
        if default is None:
            return float(raw)
        return type(default)(raw)
    except (KeyError, ValueError):
        raise ConfigError(f"cannot parse {raw!r}") from None


CLASS_NAMES = {
    "best_effort": TrafficClass.BEST_EFFORT,
    "real_time": TrafficClass.REAL_TIME,
    "premium": TrafficClass.PREMIUM,
}

DEFAULT_MAX_DELAY_S = {
    TrafficClass.BEST_EFFORT: 5.0,
    TrafficClass.REAL_TIME: 0.5,
    TrafficClass.PREMIUM: 5.0,
}


@dataclass(slots=True)
class LinkConfig:
    min_key_bytes: float = 1_000_000.0
    max_key_bytes: float = 100_000_000.0
    init_key_bytes_range: tuple[float, float] = (500_000.0, 25_000_000.0)
    rate_bps: float = 100_000.0
    charge_period_s: float = 7.0
    bandwidth_bps: float = 10_000_000.0
    auth_key_bits: int = 256
    # Key-establishment round durations: truncated normal around the charge
    # period, stretched by recent public-channel utilization.
    round_stddev_frac: float = 0.1
    round_floor_s: float = 0.1
    round_load_gain: float = 2.0

    def validate(self) -> None:
        # Written so that NaN fails each check.
        if not (0.0 < self.min_key_bytes < self.max_key_bytes < math.inf):
            raise ConfigError("require 0 < min_key_bytes < max_key_bytes, both finite")
        lo, hi = self.init_key_bytes_range
        if not (0.0 <= lo <= hi < math.inf):
            raise ConfigError("init_key_bytes_range must be a finite non-decreasing pair")
        if not (0.0 <= self.rate_bps < math.inf):
            raise ConfigError("rate_bps must be non-negative and finite")
        if not (0.0 < self.charge_period_s < math.inf and 0.0 < self.bandwidth_bps < math.inf):
            raise ConfigError("charge_period_s and bandwidth_bps must be positive and finite")
        if self.auth_key_bits <= 0:
            raise ConfigError("auth_key_bits must be positive")
        if not (0.0 <= self.round_stddev_frac < math.inf and 0.0 < self.round_floor_s < math.inf
                and 0.0 <= self.round_load_gain < math.inf):
            raise ConfigError("round duration parameters out of range")


@dataclass(slots=True)
class TrafficConfig:
    rate_bps: float = 1_000_000.0
    packet_bytes: int = 512
    traffic_class: str = "best_effort"
    max_delay_s: float | None = None
    crypto_mode: str = "otp"

    def validate(self) -> None:
        # An infinite rate would send packets 0 s apart, so the run would never end.
        if not (0.0 < self.rate_bps < math.inf) or self.packet_bytes <= 0:
            raise ConfigError("traffic rate must be positive and finite, packet size positive")
        if self.traffic_class not in CLASS_NAMES:
            raise ConfigError(f"unknown traffic class {self.traffic_class!r}")
        if self.max_delay_s is not None and not self.max_delay_s > 0.0:
            raise ConfigError("max_delay_s must be positive")
        if self.crypto_mode not in CRYPTO_MODES:
            raise ConfigError(f"unknown crypto mode {self.crypto_mode!r}")

    def resolved_class(self) -> TrafficClass:
        return CLASS_NAMES[self.traffic_class]

    def resolved_max_delay(self) -> float:
        if self.max_delay_s is not None:
            return self.max_delay_s
        return DEFAULT_MAX_DELAY_S[self.resolved_class()]

    def key_cost(self, auth_key_bits: int) -> float:
        """Key bits one data packet consumes. In "otp" mode every payload bit
        consumes one key bit; in "aes" mode a session key is amortized over a
        refresh window of packets. Either way an authentication key of
        ``auth_key_bits`` is drawn per packet to produce the tag."""
        if self.crypto_mode == "otp":
            return self.packet_bytes * 8.0 + auth_key_bits
        return AES_SESSION_KEY_BITS / AES_REFRESH_PACKETS + auth_key_bits


@dataclass(slots=True)
class RunConfig:
    protocol: str = "gpsrq"
    seed: int = 1
    duration_s: float = 150.0
    beta: float = 0.6
    alpha: float = 0.5
    t_avg_window: int = 5
    cache_enabled: bool = True
    queue_capacity: int = 1000
    dv_period_s: float = 15.0
    dv_merge_window_s: float = 0.005
    dv_liveness: str = "probe"  # "probe" or "hello" (dead-interval variant)
    link: LinkConfig = field(default_factory=LinkConfig)
    traffic: TrafficConfig = field(default_factory=TrafficConfig)

    def validate(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise ConfigError(f"unknown protocol {self.protocol!r}")
        if not (0.0 < self.duration_s < math.inf):
            raise ConfigError("duration_s must be positive and finite")
        if not (0.0 <= self.beta <= 1.0) or not (0.0 <= self.alpha <= 1.0):
            raise ConfigError("beta and alpha must lie in [0, 1]")
        if self.t_avg_window < 1:
            raise ConfigError("t_avg_window must be at least 1")
        if self.queue_capacity < 1:
            raise ConfigError("queue_capacity must be at least 1")
        if not (0.0 < self.dv_period_s < math.inf and 0.0 <= self.dv_merge_window_s < math.inf):
            raise ConfigError("distance-vector timing out of range")
        if self.dv_liveness not in ("probe", "hello"):
            raise ConfigError(f"unknown dv_liveness mode {self.dv_liveness!r}")
        self.link.validate()
        self.traffic.validate()

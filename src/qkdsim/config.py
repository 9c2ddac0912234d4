"""Dataclass configuration of a run (its topology: ``TopologySpec``)."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .links import MIN_KEY_BYTES
from .qos import TrafficClass
# Not used here: perfbench/workloads.py imports a run's two configs, RunConfig and
# TopologySpec, from this module.
from .topology import TopologySpec  # noqa: F401


class ConfigError(ValueError):
    """Invalid experiment configuration."""


PROTOCOLS = ("gpsrq", "dv")
# A data packet's payload and the authentication key drawn per packet and per
# handshake message.
PACKET_BYTES = 512
AUTH_KEY_BITS = 256
# In "aes" mode one session key of this many bits serves this many data packets.
AES_SESSION_KEY_BITS = 256
AES_REFRESH_PACKETS = 100
# Key bits one data packet consumes, by crypto mode. In "otp" mode every
# payload bit consumes one key bit; in "aes" mode a session key is amortized
# over a refresh window of packets. Either way an authentication key is drawn
# per packet to produce the tag.
DATA_KEY_BITS = {
    "otp": PACKET_BYTES * 8.0 + AUTH_KEY_BITS,
    "aes": AES_SESSION_KEY_BITS / AES_REFRESH_PACKETS + AUTH_KEY_BITS,
}

_BOOL_WORDS = {"on": True, "true": True, "1": True, "yes": True,
               "off": False, "false": False, "0": False, "no": False}


def parse_value(default, raw: str):
    """Parse ``raw`` as a value of the same type as a config field's ``default``.

    Bools take on/off words and tuples a ``lo:hi`` pair of floats. Range
    checks are left to ``validate``.
    """
    raw = raw.strip()
    try:
        if isinstance(default, bool):
            return _BOOL_WORDS[raw.lower()]
        if isinstance(default, tuple):
            lo, hi = raw.split(":")
            return float(lo), float(hi)
        return type(default)(raw)
    except (KeyError, ValueError):
        raise ConfigError(f"cannot parse {raw!r}") from None


CLASS_NAMES = {
    "best_effort": TrafficClass.BEST_EFFORT,
    "real_time": TrafficClass.REAL_TIME,
    "premium": TrafficClass.PREMIUM,
}

# Each class's delay budget: a data packet older than its class's budget
# returns toward the source.
MAX_DELAY_S = {
    TrafficClass.BEST_EFFORT: 5.0,
    TrafficClass.REAL_TIME: 0.5,
    TrafficClass.PREMIUM: 5.0,
}


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
    dv_liveness: str = "probe"  # "probe" or "hello" (dead-interval variant)
    # Every link: key store capacity, initial fill drawn from this range, key
    # rate and public-channel bandwidth.
    max_key_bytes: float = 100_000_000.0
    init_key_bytes: tuple[float, float] = (500_000.0, 25_000_000.0)
    rate_bps: float = 100_000.0
    bandwidth_bps: float = 10_000_000.0
    # The source's data traffic.
    traffic_rate_bps: float = 1_000_000.0
    traffic_class: str = "best_effort"
    crypto_mode: str = "otp"

    def validate(self) -> None:
        # Written so that NaN fails each check.
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
        if self.dv_liveness not in ("probe", "hello"):
            raise ConfigError(f"unknown dv_liveness mode {self.dv_liveness!r}")
        if not (MIN_KEY_BYTES < self.max_key_bytes < math.inf):
            raise ConfigError(f"max_key_bytes must be finite and exceed the "
                              f"{MIN_KEY_BYTES:.0f}-byte reserve")
        lo, hi = self.init_key_bytes
        if not (0.0 <= lo <= hi < math.inf):
            raise ConfigError("init_key_bytes must be a finite non-decreasing pair")
        if not (0.0 <= self.rate_bps < math.inf):
            raise ConfigError("rate_bps must be non-negative and finite")
        if not (0.0 < self.bandwidth_bps < math.inf):
            raise ConfigError("bandwidth_bps must be positive and finite")
        # An infinite rate would send packets 0 s apart, so the run would never end.
        if not (0.0 < self.traffic_rate_bps < math.inf):
            raise ConfigError("traffic_rate_bps must be positive and finite")
        if self.traffic_class not in CLASS_NAMES:
            raise ConfigError(f"unknown traffic class {self.traffic_class!r}")
        if self.crypto_mode not in DATA_KEY_BITS:
            raise ConfigError(f"unknown crypto mode {self.crypto_mode!r}")

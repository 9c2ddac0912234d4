"""Dataclass configuration for links, traffic, topologies, runs and sweeps."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields, replace

from .qos import CRYPTO_MODES, CryptoPolicy, TrafficClass
from .topology import WaxmanConfig


class ConfigError(ValueError):
    """Invalid experiment configuration."""


PROTOCOLS = ("gpsrq", "dv")

_BOOL_WORDS = {"on": True, "true": True, "1": True, "yes": True,
               "off": False, "false": False, "0": False, "no": False}


def parse_value(default, raw: str):
    """Parse ``raw`` as a value of the same type as a config field's ``default``.

    Bools take on/off words, tuples a ``lo:hi`` pair of floats, lists a
    comma-separated list of their element type, and a ``None`` default marks
    an optional float. Range checks are left to ``validate``.
    """
    raw = raw.strip()
    try:
        if isinstance(default, bool):
            return _BOOL_WORDS[raw.lower()]
        if isinstance(default, tuple):
            lo, hi = raw.split(":")
            return float(lo), float(hi)
        if isinstance(default, list):
            return [parse_value(default[0], item) for item in raw.split(",")]
        if default is None:
            return float(raw)
        return type(default)(raw)
    except (KeyError, ValueError):
        raise ConfigError(f"cannot parse {raw!r}") from None


def _waxman_default(name: str):
    return next(f.default for f in fields(WaxmanConfig) if f.name == name)


# Grid whose diagonal is 100 length units, the default maximum node distance.
DEFAULT_GRID_SIZE = 100.0 / math.sqrt(2.0)

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
        if not (0.0 < self.min_key_bytes < self.max_key_bytes):
            raise ConfigError("require 0 < min_key_bytes < max_key_bytes")
        lo, hi = self.init_key_bytes_range
        if not (0.0 <= lo <= hi):
            raise ConfigError("init_key_bytes_range must be a non-decreasing pair")
        if self.rate_bps < 0.0:
            raise ConfigError("rate_bps must be non-negative")
        if self.charge_period_s <= 0.0 or self.bandwidth_bps <= 0.0:
            raise ConfigError("charge_period_s and bandwidth_bps must be positive")
        if self.auth_key_bits <= 0:
            raise ConfigError("auth_key_bits must be positive")
        if self.round_stddev_frac < 0.0 or self.round_floor_s <= 0.0 or self.round_load_gain < 0.0:
            raise ConfigError("round duration parameters out of range")


@dataclass(slots=True)
class TrafficConfig:
    rate_bps: float = 1_000_000.0
    packet_bytes: int = 512
    traffic_class: str = "best_effort"
    max_delay_s: float | None = None
    crypto_mode: str = "otp"
    aes_session_key_bits: int = 256
    aes_refresh_packets: int = 100

    def validate(self) -> None:
        if self.rate_bps <= 0.0 or self.packet_bytes <= 0:
            raise ConfigError("traffic rate and packet size must be positive")
        if self.traffic_class not in CLASS_NAMES:
            raise ConfigError(f"unknown traffic class {self.traffic_class!r}")
        if self.max_delay_s is not None and self.max_delay_s <= 0.0:
            raise ConfigError("max_delay_s must be positive")
        if self.crypto_mode not in CRYPTO_MODES:
            raise ConfigError(f"unknown crypto mode {self.crypto_mode!r}")

    def resolved_class(self) -> TrafficClass:
        return CLASS_NAMES[self.traffic_class]

    def resolved_max_delay(self) -> float:
        if self.max_delay_s is not None:
            return self.max_delay_s
        return DEFAULT_MAX_DELAY_S[self.resolved_class()]

    def crypto(self, auth_key_bits: int) -> CryptoPolicy:
        return CryptoPolicy(
            mode=self.crypto_mode,
            auth_key_bits=auth_key_bits,
            aes_session_key_bits=self.aes_session_key_bits,
            aes_refresh_packets=self.aes_refresh_packets,
        )


@dataclass(slots=True)
class TopologySpec:
    node_count: int = 30
    grid_size: float = DEFAULT_GRID_SIZE
    theta: float = _waxman_default("theta")
    omega: float = _waxman_default("omega")
    lambda_max: float | None = _waxman_default("lambda_max")
    links_per_node: int = _waxman_default("links_per_node")
    gabriel: bool = True


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
    propagation_delay_s: float = 0.001
    retry_fallback_s: float = 0.1
    dv_period_s: float = 15.0
    dv_merge_window_s: float = 0.005
    dv_liveness: str = "probe"  # "probe" or "hello" (dead-interval variant)
    dv_hello_interval_s: float = 10.0
    dv_dead_interval_s: float = 40.0
    link: LinkConfig = field(default_factory=LinkConfig)
    traffic: TrafficConfig = field(default_factory=TrafficConfig)

    def validate(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise ConfigError(f"unknown protocol {self.protocol!r}")
        if self.duration_s <= 0.0:
            raise ConfigError("duration_s must be positive")
        if not (0.0 <= self.beta <= 1.0) or not (0.0 <= self.alpha <= 1.0):
            raise ConfigError("beta and alpha must lie in [0, 1]")
        if self.t_avg_window < 1:
            raise ConfigError("t_avg_window must be at least 1")
        if self.queue_capacity < 1:
            raise ConfigError("queue_capacity must be at least 1")
        if self.propagation_delay_s < 0.0 or self.retry_fallback_s <= 0.0:
            raise ConfigError("delay parameters out of range")
        if self.dv_period_s <= 0.0 or self.dv_merge_window_s < 0.0:
            raise ConfigError("distance-vector timing out of range")
        if self.dv_liveness not in ("probe", "hello"):
            raise ConfigError(f"unknown dv_liveness mode {self.dv_liveness!r}")
        self.link.validate()
        self.traffic.validate()


@dataclass(slots=True)
class ExperimentConfig:
    """A set of runs: the base run config swept over node counts and seeds."""

    node_counts: list[int] = field(default_factory=lambda: [30])
    seeds: list[int] = field(default_factory=lambda: [1, 2, 3, 4])
    base: RunConfig = field(default_factory=RunConfig)
    topology: TopologySpec = field(default_factory=TopologySpec)

    def expand(self) -> list[tuple[RunConfig, TopologySpec]]:
        if not self.node_counts or not self.seeds:
            raise ConfigError("node_counts and seeds must be non-empty")
        out = []
        for n in self.node_counts:
            for seed in self.seeds:
                out.append(
                    (replace(self.base, seed=seed), replace(self.topology, node_count=n))
                )
        return out

    def metadata(self) -> dict:
        return asdict(self)

"""Experiment harness: topology provisioning, run expansion, sweep specs.

A sweep specification is a plain-text file of ``key=value`` lines where any
value may be a comma-separated list; runs are the cartesian product of all
list-valued keys. Each key names one field of the dataclasses in config.py
(``SWEEP_FIELDS``), which also give its type and default; see README for the
full table.
"""

from __future__ import annotations

import logging
from collections import Counter
from collections.abc import Iterable
from copy import copy
from dataclasses import astuple
from operator import attrgetter

from .config import ConfigError, ExperimentConfig, RunConfig, parse_value
from .engine import run_simulation
from .stats import RunStats
from .topology import Topology, TopologySpec, generate_topology

logger = logging.getLogger(__name__)


# A run's topology step, kept as its own name so a caller can swap it to time sweep set-up.
def topology_for(spec: TopologySpec, seed: int) -> Topology:
    return generate_topology(spec, seed)


class SweepTopologies:
    """The topologies of a known list of runs: each ``(spec, seed)`` is
    generated once and kept only while a later run still needs it. A failed
    generation is not kept, so every run of it fails on its own."""

    def __init__(self, runs: Iterable[tuple[RunConfig, TopologySpec]]):
        self._left = Counter((astuple(spec), cfg.seed) for cfg, spec in runs)
        self._kept: dict[tuple, Topology] = {}

    def take(self, spec: TopologySpec, seed: int) -> Topology:
        key = (astuple(spec), seed)
        self._left[key] -= 1
        topology = self._kept.pop(key, None) or topology_for(spec, seed)
        if self._left[key] > 0:
            self._kept[key] = topology
        return topology


def run_experiment(exp: ExperimentConfig, topologies: SweepTopologies) -> list[RunStats]:
    """Execute every (node count, seed) run; failures become error rows."""
    results: list[RunStats] = []
    for run_cfg, topo_spec in exp.expand():
        try:
            results.append(run_simulation(run_cfg, topologies.take(topo_spec, run_cfg.seed)))
        except Exception as exc:  # noqa: BLE001 - sweep must continue
            failed = RunStats.for_run(run_cfg, topo_spec.node_count, error=str(exc))
            logger.error("run failed (%s): %s", failed.config_cells(), exc)
            results.append(failed)
    return results


# Sweep key -> (path of the owning config inside ExperimentConfig, field name).
# A key left out of a spec keeps the dataclass default.
SWEEP_FIELDS = {
    "nodes": ("", "node_counts"),
    "seeds": ("", "seeds"),
    "protocol": ("base", "protocol"),
    "beta": ("base", "beta"),
    "alpha": ("base", "alpha"),
    "t_avg_window": ("base", "t_avg_window"),
    "cache": ("base", "cache_enabled"),
    "duration": ("base", "duration_s"),
    "queue_capacity": ("base", "queue_capacity"),
    "dv_period_s": ("base", "dv_period_s"),
    "dv_merge_window_s": ("base", "dv_merge_window_s"),
    "dv_liveness": ("base", "dv_liveness"),
    "traffic_rate_bps": ("base.traffic", "rate_bps"),
    "packet_bytes": ("base.traffic", "packet_bytes"),
    "traffic_class": ("base.traffic", "traffic_class"),
    "max_delay_s": ("base.traffic", "max_delay_s"),
    "crypto_mode": ("base.traffic", "crypto_mode"),
    "min_key_bytes": ("base.link", "min_key_bytes"),
    "max_key_bytes": ("base.link", "max_key_bytes"),
    "init_key_bytes": ("base.link", "init_key_bytes_range"),
    "rate_bps": ("base.link", "rate_bps"),
    "charge_period_s": ("base.link", "charge_period_s"),
    "bandwidth_bps": ("base.link", "bandwidth_bps"),
    "auth_key_bits": ("base.link", "auth_key_bits"),
    "round_load_gain": ("base.link", "round_load_gain"),
    "round_stddev_frac": ("base.link", "round_stddev_frac"),
    "round_floor_s": ("base.link", "round_floor_s"),
    "gabriel": ("topology", "gabriel"),
    "grid_size": ("topology", "grid_size"),
    "theta": ("topology", "theta"),
    "omega": ("topology", "omega"),
    "lambda": ("topology", "lambda_max"),
    "links_per_node": ("topology", "links_per_node"),
}


def _owner(exp: ExperimentConfig, path: str):
    return attrgetter(path)(exp) if path else exp


def parse_sweep_spec(text: str, line_name: str = "sweep spec line") -> list[ExperimentConfig]:
    """Parse key=value lines into experiment configs (cartesian product).

    ``nodes`` and ``seeds`` take a whole list per experiment; a list given
    for any other key is a sweep axis. An error names its line by
    ``line_name`` and the line's number.
    """
    defaults = ExperimentConfig()
    values: dict[str, list] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{line_name} {lineno}: expected key=value, got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in SWEEP_FIELDS:
            raise ConfigError(f"{line_name} {lineno}: unknown key {key!r}")
        path, name = SWEEP_FIELDS[key]
        default = getattr(_owner(defaults, path), name)
        try:
            if isinstance(default, list):
                values[key] = [parse_value(default, raw)]
            else:
                values[key] = [parse_value(default, item) for item in raw.split(",")]
        except ConfigError as exc:
            raise ConfigError(f"{line_name} {lineno}: {key}: {exc}") from None

    combos: list[dict] = [{}]
    for key, vals in values.items():
        combos = [dict(combo, **{key: v}) for combo in combos for v in vals]

    experiments = []
    for combo in combos:
        exp = ExperimentConfig()
        for key, value in combo.items():
            path, name = SWEEP_FIELDS[key]
            # Copied so experiments never share one nodes/seeds list.
            setattr(_owner(exp, path), name, copy(value))
        experiments.append(exp)
    return experiments


def run_sweep(text: str) -> tuple[list[RunStats], dict]:
    """Run every experiment in a sweep spec; returns (rows, metadata).

    A topology that several experiments use is generated once. The metadata
    echoes every experiment's full parameter set so result files are
    self-describing.
    """
    experiments = parse_sweep_spec(text)
    topologies = SweepTopologies(run for exp in experiments for run in exp.expand())
    rows: list[RunStats] = []
    meta: dict = {"experiments": len(experiments)}
    for i, exp in enumerate(experiments):
        meta[f"experiment_{i:03d}"] = exp.metadata()
        rows.extend(run_experiment(exp, topologies))
    meta["runs"] = len(rows)
    return rows, meta

"""Experiment harness: topology provisioning, run expansion, sweep specs.

A sweep specification is a plain-text file of ``key=value`` lines where any
value may be a comma-separated list; runs are the cartesian product of all
list-valued keys. Each key is one field of a run's ``RunConfig`` or
``TopologySpec`` (``SWEEP_FIELDS``), mostly by the field's own name, and the
field gives its type and default; see README for the full table.
"""

from __future__ import annotations

import logging
from collections import Counter
from collections.abc import Iterable
from dataclasses import astuple, fields

from .config import ConfigError, RunConfig, parse_value
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


# The sweep keys spelled otherwise than their fields, as sweep specs use them.
_RENAMED = {"node_count": "nodes", "seed": "seeds", "duration_s": "duration",
            "cache_enabled": "cache"}

# Sweep key -> (its owner, a run's RunConfig "base" or its TopologySpec
# "topology"; field name). Every field is a key; one left out of a spec keeps
# its dataclass default.
SWEEP_FIELDS = {_RENAMED.get(f.name, f.name): (owner, f.name)
                for owner, cls in (("base", RunConfig), ("topology", TopologySpec))
                for f in fields(cls)}


def _owner(cfg: RunConfig, spec: TopologySpec, path: str):
    return spec if path == "topology" else cfg


# How fast an axis varies: every other axis in the order of its first line, then nodes, then seeds.
_AXIS_RANK = {"nodes": 1, "seeds": 2}


def parse_sweep_spec(text: str,
                     line_name: str = "sweep spec line") -> list[tuple[RunConfig, TopologySpec]]:
    """Parse key=value lines into runs: the cartesian product of the keys' values.

    Axes vary in the order of their keys' first lines, except that ``nodes``
    and then ``seeds`` vary fastest. An error names its line by ``line_name``
    and the line's number.
    """
    default_cfg, default_spec = RunConfig(), TopologySpec()
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
        default = getattr(_owner(default_cfg, default_spec, path), name)
        try:
            values[key] = [parse_value(default, item) for item in raw.split(",")]
        except ConfigError as exc:
            raise ConfigError(f"{line_name} {lineno}: {key}: {exc}") from None

    combos: list[dict] = [{}]
    for key in sorted(values, key=lambda key: _AXIS_RANK.get(key, 0)):
        combos = [dict(combo, **{key: v}) for combo in combos for v in values[key]]

    runs = []
    for combo in combos:
        cfg, spec = RunConfig(), TopologySpec()
        for key, value in combo.items():
            path, name = SWEEP_FIELDS[key]
            setattr(_owner(cfg, spec, path), name, value)
        runs.append((cfg, spec))
    return runs


def run_sweep(text: str) -> tuple[list[RunStats], dict]:
    """Execute every run of a sweep spec; returns (rows, metadata).

    A failed run becomes an error row, and a topology that several runs use
    is generated once. The metadata lists every key's value in each run, so
    result files are self-describing.
    """
    runs = parse_sweep_spec(text)
    settings = {key: [getattr(_owner(cfg, spec, path), name) for cfg, spec in runs]
                for key, (path, name) in SWEEP_FIELDS.items()}
    topologies = SweepTopologies(runs)
    rows: list[RunStats] = []
    for run_cfg, topo_spec in runs:
        try:
            rows.append(run_simulation(run_cfg, topologies.take(topo_spec, run_cfg.seed)))
        except Exception as exc:  # noqa: BLE001 - sweep must continue
            failed = RunStats.for_run(run_cfg, topo_spec.node_count, error=str(exc))
            logger.error("run failed (%s): %s", failed.config_cells(), exc)
            rows.append(failed)
    return rows, {"settings": settings, "runs": len(rows)}

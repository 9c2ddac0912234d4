"""The benchmark's workloads, and the child process that runs one repetition.

Each repetition runs in a fresh interpreter started by ``run.py``:

    PYTHONPATH=src python3 perfbench/workloads.py WORKLOAD SIM_SEED TRACE

It prints one JSON object: host times, the event count, peak RSS, the
regime counters, and the fixed CSV columns plus ``trace_hash`` of every
simulation run, which ``run.py`` checks against ``reference.json``. With
TRACE=1 the run is made under ``tracing.Tracer`` and the object also holds
the per-layer metrics.

This module imports qkdsim only inside functions, so ``run.py`` can read
the workload table without the package on its path.
"""

from __future__ import annotations

import io
import json
import resource
import statistics
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from time import perf_counter, process_time


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    protocol: str = "gpsrq"
    nodes: int = 0
    duration_s: float = 0.0
    sweep_spec: str = ""  # a sweep's spec; ``{seeds}`` is filled from the sim seed
    seed: int = 1  # the canonical simulation seed, whose outputs reference.json holds

    def sweep_text(self, sim_seed: int) -> str:
        return self.sweep_spec.format(seeds=",".join(str(sim_seed + i) for i in range(8)))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "gpsrq-recovery",
            "gpsrq at 60 nodes: after ~60 s the source's links fall to their reserve and "
            "packets enter perimeter recovery, so the exclusion cache and routing decision dominate",
            protocol="gpsrq", nodes=60, duration_s=100.0,
        ),
        Workload(
            "dv-n120",
            "dv at 120 nodes: the most events of the three and no gpsrq code, so event loop "
            "and hashing dominate and a cache change must show no change",
            protocol="dv", nodes=120, duration_s=150.0,
        ),
        Workload(
            "sweep-greedy",
            "16 short gpsrq runs through run_sweep and write_csv: nearly half the time is "
            "topology generation, and every run stays on the greedy path",
            # Seeds 9-16: at seeds 1-8 the 120-node seed-4 run enters recovery.
            sweep_spec="protocol=gpsrq\nnodes=120,200\nseeds={seeds}\nduration=2\ngabriel=on\n",
            seed=9,
        ),
    )
}

# Simulation set-ups per single-run repetition; the repetition reports their
# median, because one set-up takes only 10-60 ms.
SETUP_REPEATS = 11


def _event_count(sim) -> int:
    """Events popped so far: events pushed minus events still queued."""
    return next(sim.events._seq) - len(sim.events)


def _cache_adds(sim) -> int:
    return sum(1 for entry in sim.trace if entry[1] == "cache_add")


def _run_record(stats) -> str:
    return ",".join(stats.csv_row()) + " " + stats.trace_hash


class _Totals:
    """Sums over the simulation runs of one repetition."""

    def __init__(self) -> None:
        self.setup_s = 0.0
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.run_outer_s = 0.0
        self.events = 0
        self.trace_len = 0
        self.cache_adds = 0
        self.write_csv_s = 0.0

    def timed_run(self, sim, tracer) -> object:
        outer0 = tracer.outer_s if tracer else 0.0
        c0, t0 = process_time(), perf_counter()
        stats = sim.run()
        self.wall_s += perf_counter() - t0
        self.cpu_s += process_time() - c0
        if tracer:
            self.run_outer_s += tracer.outer_s - outer0
        self.events += _event_count(sim)
        self.trace_len += len(sim.trace)
        self.cache_adds += _cache_adds(sim)
        return stats


def _run_single(w: Workload, sim_seed: int, tracer, totals: _Totals) -> list:
    from qkdsim.config import RunConfig, TopologySpec
    from qkdsim.engine import Simulation
    from qkdsim.experiment import topology_for

    spec = TopologySpec(node_count=w.nodes, gabriel=True)
    cfg = RunConfig(protocol=w.protocol, seed=sim_seed, duration_s=w.duration_s,
                    beta=0.6, alpha=0.5, t_avg_window=5, cache_enabled=True)
    # Untraced, set up several times and keep the median; traced, once.
    setups = []
    for _ in range(1 if tracer else SETUP_REPEATS):
        t0 = perf_counter()
        sim = Simulation(cfg, topology_for(spec, sim_seed))
        setups.append(perf_counter() - t0)
    totals.setup_s = statistics.median(setups)
    return [totals.timed_run(sim, tracer)]


def _run_sweep(w: Workload, sim_seed: int, tracer, totals: _Totals) -> list:
    from qkdsim import experiment, stats
    from qkdsim.engine import Simulation

    parse, topology_for = experiment.parse_sweep_spec, experiment.topology_for

    def timed_parse(text):
        t0 = perf_counter()
        try:
            return parse(text)
        finally:
            totals.setup_s += perf_counter() - t0

    def timed_topology(spec, seed):
        t0 = perf_counter()
        try:
            return topology_for(spec, seed)
        finally:
            totals.setup_s += perf_counter() - t0

    def timed_run_simulation(cfg, topology, metrics_log=False):
        t0 = perf_counter()
        sim = Simulation(cfg, topology, metrics_log=metrics_log)
        totals.setup_s += perf_counter() - t0
        return totals.timed_run(sim, tracer)

    saved = (experiment.parse_sweep_spec, experiment.topology_for, experiment.run_simulation)
    experiment.parse_sweep_spec = timed_parse
    experiment.topology_for = timed_topology
    experiment.run_simulation = timed_run_simulation
    try:
        with tracer or nullcontext():
            rows, meta = experiment.run_sweep(w.sweep_text(sim_seed))
            t0 = perf_counter()
            stats.write_csv(io.StringIO(), rows, metadata=meta)
            totals.write_csv_s = perf_counter() - t0
    finally:
        experiment.parse_sweep_spec, experiment.topology_for, experiment.run_simulation = saved
    totals.wall_s += totals.write_csv_s
    return rows


def run_repetition(name: str, sim_seed: int, trace: bool) -> dict:
    """Run one repetition of a workload in this process and describe it."""
    w = WORKLOADS[name]
    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
    totals = _Totals()
    if w.sweep_spec:
        rows = _run_sweep(w, sim_seed, tracer, totals)
    else:
        with tracer or nullcontext():
            rows = _run_single(w, sim_seed, tracer, totals)
    sent = sum(r.sent for r in rows)
    out = {
        "workload": name,
        "sim_seed": sim_seed,
        "setup_s": totals.setup_s,
        "wall_s": totals.wall_s,
        "cpu_s": totals.cpu_s,
        "events": totals.events,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "runs": len(rows),
        "errors": [r.error for r in rows if r.error],
        "records": [_run_record(r) for r in rows if not r.error],
        "regime": {
            "sent": sent,
            "received": sum(r.received for r in rows),
            "drop_source": sum(r.drop_source for r in rows),
            "loop2_count": sum(r.loop2_count for r in rows),
            "gpsrq.cache_adds": totals.cache_adds,
            "engine.events_per_data_packet": totals.events / sent if sent else 0.0,
        },
    }
    if tracer:
        from tracing import layer_metrics
        out["layers"] = layer_metrics(tracer, totals.wall_s - totals.write_csv_s,
                                      totals.run_outer_s, totals.write_csv_s,
                                      sent, totals.trace_len)
    return out


def main(argv: list[str]) -> int:
    name, sim_seed, trace = argv[0], int(argv[1]), argv[2] == "1"
    result = run_repetition(name, sim_seed, trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Per-layer counters and timers wrapped around qkdsim's entry points.

The engine binds its imports by name (``from .qos import admission_cost``),
so free functions are patched in the namespace of the module that calls
them (``qkdsim.engine``, ``qkdsim.experiment``), and methods are patched on
their class. ``Tracer`` is a context manager: leaving it puts every
original attribute back, so a traced and an untraced run can share one
process in the self-test.

Times are inclusive. ``outer_s`` sums the time of the outermost wrapped
calls only, so ``engine.self_s`` (run time minus time in wrapped callees)
does not count a nested callee twice.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter

from qkdsim import engine, experiment, topology
from qkdsim.dv import DvNode
from qkdsim.engine import EventKind, EventQueue, Simulation
from qkdsim.gpsrq import GpsrqNode
from qkdsim.links import KeyStorage
from qkdsim.qos import PriorityQueueSet

# (owner, attribute, counter key, timed): every wrapped entry point.
WRAPPED = [
    (Simulation, "_hash_event", "engine.hash", True),
    (Simulation, "position", "engine.position", False),
    (EventQueue, "push", "engine.queue", True),
    (GpsrqNode, "add_cache", "gpsrq.add_cache", False),
    (engine, "greedy_choice", "gpsrq.greedy_choice", True),
    (PriorityQueueSet, "enqueue", "qos.queue", True),
    (PriorityQueueSet, "head", "qos.queue", True),
    (PriorityQueueSet, "pop", "qos.queue", True),
    (PriorityQueueSet, "remove", "qos.queue", True),
    (KeyStorage, "consume", "links.consume", True),
    (KeyStorage, "charge", "links.charge", True),
    (engine, "link_metric", "metrics", True),
    (engine, "local_mean", "metrics", True),
    (engine, "public_metric", "metrics", True),
    (engine, "quantum_metric", "metrics", True),
    (engine, "angle_of", "geometry", True),
    (engine, "ccw_next_neighbor", "geometry", True),
    (engine, "euclidean_distance", "geometry", True),
    (DvNode, "bump_own_sequence", "dv", True),
    (DvNode, "full_dump", "dv", True),
    (DvNode, "pending_dump", "dv", True),
    (DvNode, "process_update", "dv", True),
    (DvNode, "mark_link_dead", "dv", True),
    (DvNode, "next_hop", "dv", True),
    (experiment, "generate_topology", "topology.generate", True),
    (topology, "gabrielize", "topology.gabriel", True),
    (experiment, "parse_sweep_spec", "experiment.parse", True),
]

# Wrapped with a hook that also inspects the call's result.
HOOKED = [
    (EventQueue, "pop", "engine.queue"),
    (GpsrqNode, "cache_blocked", "gpsrq.cache_blocked"),
    (engine, "admission_cost", "qos.admission"),
]


class Tracer:
    """Counts calls and accumulates time per layer while installed."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.time: Counter = Counter()
        self.outcomes: Counter = Counter()
        self.cache_live_max = 0
        self.outer_s = 0.0
        self._depth = 0
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for owner, name, key, timed in WRAPPED:
            self._patch(owner, name, self._timed(key) if timed else self._counted(key))
        for owner, name, key in HOOKED:
            self._patch(owner, name, self._timed(key, getattr(self, "_after_" + name)))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name: str, make) -> None:
        original = owner.__dict__[name]
        self._saved.append((owner, name, original))
        setattr(owner, name, make(original))

    def _counted(self, key: str):
        calls = self.calls

        def make(fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    def _timed(self, key: str, after=None):
        tracer = self
        calls, spent = self.calls, self.time

        def make(fn):
            def wrapper(*args, **kwargs):
                tracer._depth += 1
                t0 = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = perf_counter() - t0
                    tracer._depth -= 1
                    if tracer._depth == 0:
                        tracer.outer_s += dt
                    calls[key] += 1
                    spent[key] += dt
                if after is not None:
                    after(args, result)
                return result
            return wrapper
        return make

    def _after_pop(self, args, ev) -> None:
        if ev is not None:
            self.outcomes["event." + ev.kind.name] += 1

    def _after_cache_blocked(self, args, blocked: bool) -> None:
        node = args[0]
        self.outcomes["cache_blocked"] += blocked
        self.cache_live_max = max(self.cache_live_max, len(node.cache))

    def _after_admission_cost(self, args, cost) -> None:
        self.outcomes["admission_refused"] += cost is None


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, run_s: float, run_outer_s: float, write_csv_s: float,
                  sent: int, trace_len: int) -> dict[str, float]:
    """Per-layer metric values of one traced workload repetition.

    ``run_s`` is the host time inside ``Simulation.run`` and ``run_outer_s``
    the part of it spent in outermost wrapped callees.
    """
    c, t, o = tr.calls, tr.time, tr.outcomes
    events = sum(o["event." + k.name] for k in EventKind)
    out = {
        "engine.events": events,
        "engine.events_per_data_packet": _ratio(events, sent),
        "engine.hash_s": t["engine.hash"],
        "engine.queue_s": t["engine.queue"],
        "engine.queue_ops": c["engine.queue"],
        "engine.self_s": run_s - run_outer_s,
        "engine.trace_len": trace_len,
        "engine.position_calls": c["engine.position"],
        "gpsrq.cache_blocked_calls": c["gpsrq.cache_blocked"],
        "gpsrq.cache_blocked_s": t["gpsrq.cache_blocked"],
        "gpsrq.cache_block_ratio": _ratio(o["cache_blocked"], c["gpsrq.cache_blocked"]),
        "gpsrq.cache_adds": c["gpsrq.add_cache"],
        "gpsrq.cache_live_max": tr.cache_live_max,
        "gpsrq.greedy_choice_calls": c["gpsrq.greedy_choice"],
        "gpsrq.greedy_choice_s": t["gpsrq.greedy_choice"],
        "qos.admission_calls": c["qos.admission"],
        "qos.admission_s": t["qos.admission"],
        "qos.admission_refused_ratio": _ratio(o["admission_refused"], c["qos.admission"]),
        "qos.queue_ops": c["qos.queue"],
        "qos.queue_s": t["qos.queue"],
        "links.consume_calls": c["links.consume"],
        "links.consume_s": t["links.consume"],
        "links.charge_calls": c["links.charge"],
        "metrics.calls": c["metrics"],
        "metrics.s": t["metrics"],
        "geometry.calls": c["geometry"],
        "geometry.s": t["geometry"],
        "dv.calls": c["dv"],
        "dv.s": t["dv"],
        "topology.calls": c["topology.generate"],
        "topology.generate_s": t["topology.generate"],
        "topology.gabriel_s": t["topology.gabriel"],
        "experiment.parse_s": t["experiment.parse"],
        "stats.write_csv_s": write_csv_s,
    }
    for kind in EventKind:
        out["engine.events." + kind.name] = o["event." + kind.name]
    return out

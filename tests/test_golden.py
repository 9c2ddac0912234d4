"""Pinned outputs: fixed CSV columns, trace_hash and side outputs of chosen runs.

A change that alters any of these values changes simulated behaviour and
must say so. Together the runs reach every GPSRQ decision branch that
leaves a trace record (recovery entry and exit, loop2, loop returns, delay
returns, cache insertions) and both DV liveness variants.
"""

import hashlib
from functools import lru_cache

import pytest

from helpers import narrative_sim
from qkdsim.config import RunConfig, TopologySpec
from qkdsim.engine import Simulation
from qkdsim.experiment import topology_for


def _sim(protocol, nodes, seed, duration, metrics=False, **kw) -> Simulation:
    cfg = RunConfig(protocol=protocol, seed=seed, duration_s=duration, **kw)
    return Simulation(cfg, topology_for(TopologySpec(node_count=nodes), seed),
                      metrics_log=metrics)


RUNS = {
    "narrative": narrative_sim,
    "gpsrq-40-s2-cache": lambda: _sim("gpsrq", 40, 2, 90.0, metrics=True),
    "gpsrq-40-s2-nocache": lambda: _sim("gpsrq", 40, 2, 90.0, cache_enabled=False),
    "gpsrq-30-s1": lambda: _sim("gpsrq", 30, 1, 90.0),
    "dv-probe": lambda: _sim("dv", 30, 1, 60.0, metrics=True),
    "dv-hello": lambda: _sim("dv", 30, 1, 60.0, dv_liveness="hello"),
}

# name -> (CSV row, trace_hash)
GOLDEN = {
    "narrative": (
        "gpsrq,6,1,0.6,0.5,5,on,1,0,0.0,0.0,0.0,0,0,47872.0,0.0,0,0,1,0",
        "84a2b396b928e0885f91a78f1b8af50db58a19da6811fef87e2127538eb74836",
    ),
    "gpsrq-40-s2-cache": (
        "gpsrq,40,2,0.6,0.5,5,on,21973,21953,0.999135263062079,0.0030588376987203685,"
        "2.0939279369562245,6624,337824,200805632.0,1801728.0,0,0,19,0",
        "798bf5eaac20eddff9c53538f6d5caa751d5afd1f90ec3913b69c4de11c1d03e",
    ),
    "gpsrq-40-s2-nocache": (
        "gpsrq,40,2,0.6,0.5,5,off,21973,21971,0.9999544875295832,0.003001112011287772,"
        "2.0513859178007374,6624,337824,211067648.0,1801728.0,0,1,0,0",
        "dd34c6f759f229e3b11ff421018006e732ff6c6ac4d4f57e54f79c661932de27",
    ),
    "gpsrq-30-s1": (
        "gpsrq,30,1,0.6,0.5,5,on,21973,19048,0.8670004551661357,0.01014723544739569,"
        "2.2021209575808482,3936,200736,300505600.0,1070592.0,0,5,2917,0",
        "c44775c4851c70f56fee449441090e372274716ad2c607372d574278a334eb80",
    ),
    "dv-probe": (
        "dv,30,1,0.6,0.5,5,on,14649,14555,0.9935831797392314,0.0014607999999985686,"
        "1.0,8056,699528,63343360.0,4049472.0,0,0,94,0",
        "537c42faf7e05693b218641653dfc24ccf088ecd7615c51d138da683d5f21549",
    ),
    "dv-hello": (
        "dv,30,1,0.6,0.5,5,on,14649,14562,0.9940610280565226,0.0014607999999985692,"
        "1.0,9449,786372,63373824.0,4476768.0,0,0,87,0",
        "0116ddfef282b6c69a1f261cbac5c8474eb89553f2b7dbc9fc7a99409137c829",
    ),
}

# name -> (metrics_log digest, or None when not logged; dump_caches digest)
SIDE_OUTPUTS = {
    "narrative": (None, "5a30dc9db2194fc1"),
    "gpsrq-40-s2-cache": ("8bead1f696b01ddb", "c110e5fa2b0f6cbc"),
    "dv-probe": ("449f6c09bbb40579", "e3b0c44298fc1c14"),
}

DECISION_RECORDS = ("recovery_enter", "recovery_exit", "loop2", "loop_return",
                    "delay_return", "cache_add")


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


@lru_cache(maxsize=None)
def _outputs(name: str):
    sim = RUNS[name]()
    stats = sim.run()
    metrics = None
    if sim.metrics_log is not None:
        metrics = _digest(repr(row) for row in sim.metrics_log)
    return (",".join(stats.csv_row()), stats.trace_hash,
            frozenset(entry[1] for entry in sim.trace), metrics, _digest(sim.dump_caches()))


@pytest.mark.parametrize("name", sorted(RUNS))
def test_row_and_trace_hash_pinned(name):
    row, trace_hash, *_ = _outputs(name)
    assert (row, trace_hash) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(SIDE_OUTPUTS))
def test_metrics_log_and_caches_pinned(name):
    *_, metrics, caches = _outputs(name)
    assert (metrics, caches) == SIDE_OUTPUTS[name]


def test_pinned_runs_reach_every_decision_record():
    seen = frozenset().union(*(_outputs(name)[2] for name in RUNS))
    assert set(DECISION_RECORDS) <= seen

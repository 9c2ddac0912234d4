"""Pinned outputs: fixed CSV columns, trace_hash and side outputs of chosen runs,
the files of generated topologies, and the whole CSV output of one sweep.

A change that alters any of these values changes simulated behaviour and
must say so. Together the runs reach every GPSRQ decision branch that
leaves a trace record (recovery entry and exit, loop2, loop returns, delay
returns, cache insertions) and both DV liveness variants, each of which
marks a link dead in one run. Every run keeps its event trace
(``trace=True``), and the records of three runs are pinned too, as are the
dead marks of three DV runs.

Further runs pin branches whose effect no record names. The key-starved
10-node run without the exclusion cache (seed 2) enters perimeter recovery
606 times, so which edges a walk that is back at its entry node excludes
decides its path. The two ``l2full`` runs (queue capacity 1, 200 kbit/s
links) fill the L2 queue behind the packet on the wire: GPSRQ's decision
then waits, and DV's sends are lost at transmission. ``signal`` sends
premium data over links that gain 1 kbit/s of key: a signal queued behind
data that waits for key is still queued at the next signaling epoch, which
replaces it. ``hello-dead`` (150 kbit/s links) delays hellos long enough
that their silence marks a link dead, and a later hello revives it: the
revival sends a full routing update once, and later hellos on the link
send none. The seed-3 starved run without the cache keeps its trace
records: there a greedy forward from a walk's entry node reaches a node
other than the destination, so clearing the recovery state on that
forward decides whether that node records a ``recovery_exit``. The 7 s
run ends exactly at the first key charge, which must still fire.

With the default 100 MB key stores the quantum metric is about 1 on every
link, so the link metric hardly varies between neighbours. The two
key-starved runs (4 MB stores, 1-4 MB initial key) make it vary, so the
shape of GPSRQ's distance term and the beta weighting decide their choices.
The two aes runs send real-time data, so they cover the aes key cost and a
data class other than the default.
"""

import hashlib
import io
import logging
from functools import lru_cache

import pytest

from helpers import narrative_sim
from qkdsim.config import LinkConfig, RunConfig, TrafficConfig
from qkdsim.engine import Simulation
from qkdsim.experiment import run_sweep
from qkdsim.stats import write_csv
from qkdsim.topology import TopologySpec, generate_topology, save_topology


def _sim(protocol, nodes, seed, duration, metrics=False, **kw) -> Simulation:
    cfg = RunConfig(protocol=protocol, seed=seed, duration_s=duration, **kw)
    return Simulation(cfg, generate_topology(TopologySpec(node_count=nodes), seed),
                      metrics_log=metrics, trace=True)


def _starved_link() -> LinkConfig:
    return LinkConfig(max_key_bytes=4_000_000, init_key_bytes_range=(1_000_000, 4_000_000))


def _slow_link() -> LinkConfig:
    return LinkConfig(bandwidth_bps=200_000)


def _thin_link() -> LinkConfig:
    return LinkConfig(init_key_bytes_range=(200, 1000), rate_bps=1000.0)


def _aes_real_time() -> TrafficConfig:
    return TrafficConfig(crypto_mode="aes", traffic_class="real_time")


RUNS = {
    "narrative": lambda: narrative_sim(trace=True),
    "gpsrq-40-s2-cache": lambda: _sim("gpsrq", 40, 2, 90.0, metrics=True),
    "gpsrq-40-s2-nocache": lambda: _sim("gpsrq", 40, 2, 90.0, cache_enabled=False),
    "gpsrq-30-s1": lambda: _sim("gpsrq", 30, 1, 90.0),
    "dv-probe": lambda: _sim("dv", 30, 1, 60.0, metrics=True),
    "dv-hello": lambda: _sim("dv", 30, 1, 60.0, dv_liveness="hello"),
    "gpsrq-40-s1-starved": lambda: _sim("gpsrq", 40, 1, 20.0, link=_starved_link()),
    "dv-40-s1-starved": lambda: _sim("dv", 40, 1, 20.0, link=_starved_link()),
    "gpsrq-60-s2-aes-rt": lambda: _sim("gpsrq", 60, 2, 30.0, traffic=_aes_real_time()),
    "dv-40-s2-aes-rt": lambda: _sim("dv", 40, 2, 30.0, traffic=_aes_real_time()),
    "gpsrq-10-s2-starved-nocache": lambda: _sim("gpsrq", 10, 2, 20.0, cache_enabled=False,
                                                link=_starved_link()),
    "gpsrq-10-s1-l2full": lambda: _sim("gpsrq", 10, 1, 5.0, queue_capacity=1, link=_slow_link()),
    "dv-10-s1-l2full": lambda: _sim("dv", 10, 1, 5.0, queue_capacity=1, link=_slow_link()),
    "gpsrq-10-s1-signal": lambda: _sim("gpsrq", 10, 1, 30.0, queue_capacity=5, link=_thin_link(),
                                       traffic=TrafficConfig(traffic_class="premium")),
    "dv-10-s2-hello-dead": lambda: _sim("dv", 10, 2, 150.0, dv_liveness="hello", queue_capacity=1,
                                        link=LinkConfig(bandwidth_bps=150_000)),
    "gpsrq-10-s3-starved-nocache": lambda: _sim("gpsrq", 10, 3, 30.0, cache_enabled=False,
                                                link=_starved_link()),
    "gpsrq-10-s1-7s": lambda: _sim("gpsrq", 10, 1, 7.0),
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
    "gpsrq-40-s1-starved": (
        "gpsrq,40,1,0.6,0.5,5,on,4883,1536,0.31456072086831866,0.2387608166666815,"
        "24.541666666666668,1072,54672,225490176.0,291584.0,0,11,3336,0",
        "41ee88103923e8ae897c42c00aa5d4f0c63b6993c91b2a70003b0735bee976e8",
    ),
    "dv-40-s1-starved": (
        "dv,40,1,0.6,0.5,5,on,4883,1190,0.24370264181855417,0.004382432968068314,"
        "3.0,9239,810384,15554048.0,4709184.0,0,0,3689,4",
        "341e07db5e6fda4fdacb5cf5828c829607418f8b5b030e25570d6233eab9666b",
    ),
    "gpsrq-60-s2-aes-rt": (
        "gpsrq,60,2,0.6,0.5,5,on,7325,7323,1.0,0.007304000436981905,"
        "5.0,3232,164832,9468467.199996319,879104.0,0,0,0,0",
        "a306e691bef0e9dc1654ac414273ea4ec6fc652d611b2dd890f5e25d18197db0",
    ),
    "dv-40-s2-aes-rt": (
        "dv,40,2,0.6,0.5,5,on,7325,2992,0.4084641638225256,0.0029216000000005238,"
        "2.0,9595,813948,1547740.160000217,4669344.0,0,0,4330,3",
        "b7403ff586b7d3c2c719c1e8051a0563dfbf8ea4d6627e40074b14309c95d04a",
    ),
    "gpsrq-10-s2-starved-nocache": (
        "gpsrq,10,2,0.6,0.5,5,off,4883,2295,0.5917998968540484,0.5724119229629732,"
        "1.8880174291938998,176,8976,35595008.0,47872.0,1287,0,296,0",
        "00d3a8e252282f43cff260b9f7c08653d8a6e96c302fb60ce881fc7c44a44a02",
    ),
    "gpsrq-10-s1-l2full": (
        "gpsrq,10,1,0.6,0.5,5,on,1221,215,0.17666392769104355,0.09191910697671363,"
        "2.0,0,0,1893120.0,0.0,1002,0,0,0",
        "9ef27b7d463ed41a73762183edae998d212e9109a5ea1285b122ea150c680a97",
    ),
    "dv-10-s1-l2full": (
        "dv,10,1,0.6,0.5,5,on,1221,200,0.16420361247947454,0.06912191999996672,"
        "2.0,229,17904,1766912.0,99264.0,942,0,76,0",
        "9326606844f5b2a44b39d8cc778ff93ea245ab2ec4163dfe3724f77cd2b773b5",
    ),
    "gpsrq-10-s1-signal": (
        "gpsrq,10,1,0.6,0.5,5,on,7325,0,0.0,0.0,0.0,304,15504,52224.0,82688.0,7317,1,0,0",
        "44bbca8ceb595251dcc46c2c81b7b35fb2ac4563ccf33308c0fc939ed41b23ff",
    ),
    "dv-10-s2-hello-dead": (
        "dv,10,2,0.6,0.5,5,on,36622,2426,0.06624795193883123,0.06078190931432996,"
        "1.0,2281,184052,10566656.0,1034464.0,15571,0,96,18527",
        "19951728c219a92586003c99bdd3f7f52e5e7f380e0dcf568fc0bdb1452ceb91",
    ),
    "gpsrq-10-s3-starved-nocache": (
        "gpsrq,10,3,0.6,0.5,5,off,7325,2570,0.48989706443004194,1.0720157005444644,"
        "5.4607003891050585,480,24480,130137856.0,130560.0,965,161,1550,0",
        "b30b20815da1bb3e52e718c3df8d27e9b497185bb914818666ae1d3123c02977",
    ),
    "gpsrq-10-s1-7s": (
        "gpsrq,10,1,0.6,0.5,5,on,1709,1709,1.0,0.002921600000000073,"
        "2.0,0,0,14875136.0,0.0,0,0,0,0",
        "4a92baacfce5250eb84a76b2e907a298b07557161e8d9409ceb5a4d2c5952f2d",
    ),
}

# name -> (metrics_log digest, or None when not logged; dump_caches digest)
SIDE_OUTPUTS = {
    "narrative": (None, "5a30dc9db2194fc1"),
    "gpsrq-40-s2-cache": ("8bead1f696b01ddb", "1938780db9711a8b"),
    "dv-probe": ("449f6c09bbb40579", "e3b0c44298fc1c14"),
    "gpsrq-40-s1-starved": (None, "c46b6825139968f1"),
}

# name -> digest of the trace records, one repr() per line
TRACE_RECORDS = {
    "narrative": "fbfd31d6b6a9148f",
    "dv-probe": "2527679c32c1571d",
    "gpsrq-10-s3-starved-nocache": "d2a1b106fff82a75",
}

DECISION_RECORDS = ("recovery_enter", "recovery_exit", "loop2", "loop_return",
                    "delay_return", "cache_add", "dead_mark")

# name -> every dead_mark record, its time rounded to 10 ms
DEAD_MARKS = {
    # A data packet refused on 29->24, near its reserve, marks it dead twice.
    "dv-40-s1-starved": ((4.25, "dead_mark", 29, 24, "probe", 11),
                         (16.93, "dead_mark", 29, 24, "probe", 11)),
    # Delayed hellos leave 9->0 silent for 40 s.
    "dv-10-s2-hello-dead": ((90.43, "dead_mark", 9, 0, "hello", 1),),
    "dv-probe": (),
}


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


@lru_cache(maxsize=None)
def _outputs(name: str):
    sim = RUNS[name]()
    stats = sim.run()
    metrics = None
    if sim.metrics_log is not None:
        metrics = _digest(repr(row) for row in sim.metrics_log)
    records = _digest(repr(entry) for entry in sim.trace) if name in TRACE_RECORDS else None
    dead_marks = tuple((round(t, 2), *rest) for t, *rest in sim.trace if rest[0] == "dead_mark")
    return (",".join(stats.csv_row()), stats.trace_hash,
            frozenset(entry[1] for entry in sim.trace), records, dead_marks, metrics,
            tuple(sim.dump_caches()))


@pytest.mark.parametrize("name", sorted(RUNS))
def test_row_and_trace_hash_pinned(name):
    row, trace_hash, *_ = _outputs(name)
    assert (row, trace_hash) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(SIDE_OUTPUTS))
def test_metrics_log_and_caches_pinned(name):
    *_, metrics, caches = _outputs(name)
    assert (metrics, _digest(caches)) == SIDE_OUTPUTS[name]


def test_cache_dump_has_one_line_per_region():
    """Re-adding an excluded region extends its one record, so no two lines
    share node, neighbour, centre and radius."""
    regions = [line.rsplit(" ", 1)[0] for line in _outputs("gpsrq-40-s1-starved")[-1]]
    assert regions and len(set(regions)) == len(regions)


@pytest.mark.parametrize("name", sorted(TRACE_RECORDS))
def test_trace_records_pinned(name):
    assert _outputs(name)[3] == TRACE_RECORDS[name]


@pytest.mark.parametrize("name", sorted(DEAD_MARKS))
def test_dead_marks_pinned(name):
    assert _outputs(name)[4] == DEAD_MARKS[name]


def test_pinned_runs_reach_every_decision_record():
    seen = frozenset().union(*(_outputs(name)[2] for name in RUNS))
    assert set(DECISION_RECORDS) <= seen


# Generated topologies: (gabriel, nodes, seed) -> (digest of the
# ``save_topology`` file, ``retries``). Positions are pinned to the file's six
# decimals, edges exactly.
TOPOLOGIES = {
    (True, 30, 1): ("dacf1940eb88651c", 0),
    (True, 30, 9): ("3a3a907d6de55373", 0),
    (True, 60, 1): ("2dfd6919c7a7853d", 0),
    (True, 60, 9): ("8f3a5c1b00fc0c1c", 0),
    (True, 120, 1): ("38ebc74cfd57719f", 0),
    (True, 120, 9): ("54a5b9c914d8045a", 0),
    (True, 200, 1): ("c29c231f66a53f1d", 0),
    (True, 200, 9): ("b9975dbb0be4e4b3", 0),
    (False, 30, 1): ("3a980664efe09dc1", 0),
    (False, 30, 9): ("4883fb0db70763c2", 0),
    (False, 60, 1): ("c73196c06d5ecb78", 0),
    (False, 60, 9): ("7f956e3c5ba122a4", 0),
    (False, 120, 1): ("feeb0edec150ab26", 0),
    (False, 120, 9): ("dab5cd1ce2a3c80c", 0),
    (False, 200, 1): ("900d49841834581e", 0),
    (False, 200, 9): ("4767b8b1132fe315", 0),
}


@pytest.mark.parametrize("gabriel, nodes, seed", sorted(TOPOLOGIES))
def test_topology_file_pinned(tmp_path, gabriel, nodes, seed):
    topo = generate_topology(TopologySpec(node_count=nodes, gabriel=gabriel), seed)
    path = tmp_path / "topo.txt"
    save_topology(topo, str(path))
    assert (_digest([path.read_text(encoding="ascii")]), topo.retries) == TOPOLOGIES[gabriel, nodes, seed]


# Both protocols, two seeds, mean rows, "# run"/"# classes" lines and, from the
# negative grid size, 16 error rows, each "# error" line naming its seven
# configuration cells.
SWEEP_SPEC = ("protocol=gpsrq,dv\nnodes=10,12\nseeds=1,2\nduration=3\nbeta=0.6,1\n"
              "grid_size=-1,70.710678\n")


def test_full_sweep_csv_pinned():
    rows, meta = run_sweep(SWEEP_SPEC)
    out = io.StringIO()
    write_csv(out, rows, meta)
    text = out.getvalue()
    assert (len(rows), sum(1 for r in rows if r.error), text.count(",mean,")) == (32, 16, 8)
    assert _digest([text]) == "ee4a3c83a5d53121"


def test_failed_runs_are_logged_with_their_configuration(caplog):
    with caplog.at_level(logging.ERROR, logger="qkdsim.experiment"):
        run_sweep(SWEEP_SPEC)
    failed = [r.getMessage() for r in caplog.records if r.getMessage().startswith("run failed")]
    assert len(failed) == len(set(failed)) == 16
    assert failed[0] == ("run failed (protocol=gpsrq nodes=10 seed=1 beta=0.6 alpha=0.5 "
                         "t_avg_window=5 cache=on): grid_size must be positive and finite")

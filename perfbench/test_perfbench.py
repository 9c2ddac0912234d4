"""Self-test of the benchmark on tiny configs (10 nodes, 2 s, both protocols).

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from qkdsim import experiment  # noqa: E402

TINY = {
    "tiny-gpsrq": workloads.Workload("tiny-gpsrq", "", protocol="gpsrq", nodes=10, duration_s=2.0),
    "tiny-dv": workloads.Workload("tiny-dv", "", protocol="dv", nodes=10, duration_s=2.0),
    "tiny-sweep": workloads.Workload(
        "tiny-sweep", "",
        sweep_spec="protocol=gpsrq,dv\nnodes=10\nseeds={seeds}\nduration=2\ngabriel=on\n"),
}


def _spec() -> dict:
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _patched_attributes() -> dict:
    owners = [(o, n) for o, n, *_ in tracing.WRAPPED + tracing.HOOKED]
    owners += [(experiment, n) for n in ("parse_sweep_spec", "topology_for", "run_simulation")]
    return {(o, n): o.__dict__[n] for o, n in owners}


@pytest.fixture
def tiny(monkeypatch):
    for name, w in TINY.items():
        monkeypatch.setitem(workloads.WORKLOADS, name, w)


@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_emitted_and_trace_is_transparent(tiny, name):
    before = _patched_attributes()
    plain = workloads.run_repetition(name, 1, trace=False)
    traced = workloads.run_repetition(name, 1, trace=True)
    assert _patched_attributes() == before

    assert plain["errors"] == [] and plain["records"]
    assert traced["records"] == plain["records"]  # identical rows and trace_hash
    assert traced["events"] == plain["events"] == traced["layers"]["engine.events"]

    spec = _spec()
    assert set(run.end_to_end_values(plain)) == {m["name"] for m in spec["end_to_end"]}
    assert set(run.layer_values(plain, traced)) == {m["name"] for m in spec["per_layer"]}
    assert all(v > 0 for v in run.end_to_end_values(plain).values())


def test_layers_separate_protocols(tiny):
    gpsrq = workloads.run_repetition("tiny-gpsrq", 1, trace=True)["layers"]
    dv = workloads.run_repetition("tiny-dv", 1, trace=True)["layers"]
    assert gpsrq["dv.calls"] == 0 and gpsrq["gpsrq.cache_blocked_calls"] > 0
    assert dv["gpsrq.cache_blocked_calls"] == 0 and dv["dv.calls"] > 0


def test_check_records_rejects_a_changed_row():
    assert run.check_records({"records": ["a h1"]}, ["a h1"]) == ""
    assert run.check_records({"records": ["a h1"]}, None) == ""
    assert run.check_records({"records": ["a h2"]}, ["a h1"]).startswith("output mismatch")
    assert run.check_records({"records": []}, ["a h1"]).startswith("output mismatch")


def test_reference_covers_every_workload_at_the_canonical_seed():
    refs = run._references()
    assert [w["name"] for w in _spec()["workloads"]] == list(workloads.WORKLOADS)
    for w in _spec()["workloads"]:
        assert refs[w["name"]][str(workloads.WORKLOADS[w["name"]].seed)]


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dv-n120", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_a_changed_output_counts_as_failed(monkeypatch, capsys):
    result = {"runs": 2, "records": ["a h2", "b h1"], "setup_s": 0.1, "wall_s": 1.0,
              "cpu_s": 1.0, "events": 10, "peak_rss_mb": 20.0, "regime": {}}
    monkeypatch.setattr(run, "run_child", lambda *args: (dict(result), ""))
    monkeypatch.setattr(run, "_references", lambda: {"w": {"1": ["a h1", "b h1"]}})
    reps = run.Repetitions("w", 1)
    assert reps.run(trace=False) is None
    assert (reps.attempted, reps.failed) == (2, 2)
    assert "output mismatch" in capsys.readouterr().out

"""The experiment specs in ``experiments/`` write self-describing CSVs
through ``qkdsim sweep``, and the kill-list runner in ``scripts/`` fails on
every mutant it cannot show killed."""

import ast
import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

from qkdsim.cli import main as qkdsim

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _read(path: Path) -> tuple[dict, list[list[str]]]:
    meta, rows = {}, []
    for line in path.read_text(encoding="ascii").splitlines():
        if line.startswith("# ") and "=" in line and not line.startswith(("# run ", "# classes ")):
            key, value = line[2:].split("=", 1)
            meta[key] = ast.literal_eval(value)
        elif not line.startswith(("#", "protocol,")):
            rows.append(line.split(","))
    return meta, rows


def test_cache_and_window_writes_one_csv_per_sweep(tmp_path):
    # The two halves of the cache study differ in their link configuration, so
    # each is a spec of its own, whose CSV covers only its own runs.
    key_ranges = {"cache_ablation": (500_000.0, 5_000_000.0),
                  "window_sweep": (500_000.0, 25_000_000.0)}
    # (t_avg_window, cache) of each mean row: one per setting of the sweep's other axes.
    groups = {"cache_ablation": {("5", "on"), ("5", "off")},
              "window_sweep": {("2", "on"), ("5", "on"), ("7", "on"), ("10", "on")}}
    for name, key_range in key_ranges.items():
        spec, out = tmp_path / f"{name}.txt", tmp_path / f"{name}.csv"
        # A later line for a key replaces an earlier one: this shortens the run.
        spec.write_text((ROOT / "experiments" / f"{name}.txt").read_text() + "duration=0.5\n")
        assert qkdsim(["sweep", "--spec", str(spec), "--out", str(out)]) == 0
        meta, rows = _read(out)
        runs = [r for r in rows if r[2] != "mean"]
        means = [r for r in rows if r[2] == "mean"]
        assert meta["spec"] == str(spec)
        assert meta["runs"] == len(runs) == 4 * len(groups[name])
        settings = meta["settings"]
        assert all(len(values) == len(runs) for values in settings.values())
        combos = set(zip(settings["t_avg_window"], settings["cache"]))
        assert len(combos) == len(means) == len(groups[name])
        assert {(r[5], r[6]) for r in means} == groups[name]
        # Every run, and so every mean row, has its own sweep's key stores.
        assert set(settings["init_key_bytes"]) == {key_range}


def test_every_kill_list_mutant_changes_text_that_occurs_once():
    # The runner checks this too; here a refactor that moves the text fails tier-1 at once.
    mutants = json.loads((SCRIPTS / "mutants.json").read_text())
    assert len({m["name"] for m in mutants}) == len(mutants)
    for m in mutants:
        assert (ROOT / m["file"]).read_text().count(m["find"]) == 1, m["name"]
        assert m["replace"] != m["find"] and m["kills"], m["name"]


def test_kill_mutants_fails_on_a_survivor_and_on_stale_text(tmp_path, capsys):
    script = _load("kill_mutants")
    survivor = {"name": "survivor", "file": "src/qkdsim/rng.py", "find": "Named pseudo-random",
                "replace": "Named pseudo random",
                "kills": ["tests/test_links.py::test_charge_adds_rate_times_period"]}
    listing = tmp_path / "mutants.json"
    listing.write_text(json.dumps([survivor, dict(survivor, name="stale", find="no such text")]))
    assert script.main(["--list", str(listing)]) == 1
    out = capsys.readouterr().out
    assert "survivor: FAIL: survived: tests/test_links.py::test_charge_adds_rate_times_period" in out
    assert "stale: FAIL: source text occurs 0 times in src/qkdsim/rng.py" in out


def test_kill_mutants_stops_when_a_listed_test_fails_without_a_mutant(tmp_path, capsys,
                                                                      monkeypatch):
    # A test that already fails would otherwise count as killing every mutant that lists it.
    script = _load("kill_mutants")
    monkeypatch.setattr(script, "failing_tests", lambda tree, ids: set(ids))
    monkeypatch.setattr(script, "check", lambda mutant: pytest.fail("a mutant was checked"))
    listing = tmp_path / "mutants.json"
    listing.write_text(json.dumps([{"name": "m", "file": "src/qkdsim/rng.py", "find": "x",
                                    "replace": "y", "kills": ["tests/a.py::b"]}]))
    assert script.main(["--list", str(listing)]) == 1
    assert "unmutated: FAIL: fails without a mutant: tests/a.py::b" in capsys.readouterr().out


def test_kill_mutants_reads_a_failed_id_that_holds_a_space(tmp_path, monkeypatch):
    script = _load("kill_mutants")
    spaced = "tests/test_cli.py::test_bad[simulate-nodes=6 seeds=1,2]"
    summary = (f"FAILED {spaced} - assert 0 == 2\n"
               "ERROR tests/a.py::b\n"
               "FAILED tests/a.py::c[x y]-other - AssertionError\n"
               "1 failed, 1 error in 0.12s\n")
    monkeypatch.setattr(script.subprocess, "run",
                        lambda cmd, **kw: subprocess.CompletedProcess(cmd, 1, summary, ""))
    ids = [spaced, "tests/a.py::b", "tests/a.py::c[x y]",
           "tests/test_cli.py::test_bad[simulate-nodes=6"]
    assert script.failing_tests(tmp_path, ids) == {spaced, "tests/a.py::b"}

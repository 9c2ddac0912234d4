"""Sweep specs take every default and type from the config dataclasses, so a
sweep run, a direct run and the README key table cannot drift apart."""

import importlib.util
import re
import string
import weakref
from dataclasses import asdict
from operator import attrgetter
from pathlib import Path

import pytest

from qkdsim import experiment
from qkdsim.config import PROTOCOLS, ExperimentConfig, RunConfig, parse_value
from qkdsim.engine import run_simulation
from qkdsim.experiment import SWEEP_FIELDS, parse_sweep_spec, run_sweep
from qkdsim.topology import TopologySpec, generate_topology

ROOT = Path(__file__).resolve().parent.parent


def test_empty_spec_is_the_dataclass_default():
    (exp,) = parse_sweep_spec("")
    assert asdict(exp) == asdict(ExperimentConfig())


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_sweep_row_matches_direct_run(protocol):
    # 20 s of dv on 10 nodes sends triggered updates, so the merge window
    # shows in the overhead columns and the trace hash.
    (row,), _ = run_sweep(f"protocol={protocol}\nnodes=10\nseeds=1\nduration=20\n")
    direct = run_simulation(RunConfig(protocol=protocol, seed=1, duration_s=20.0),
                            generate_topology(TopologySpec(node_count=10), 1))
    assert row.csv_row() == direct.csv_row()
    assert row.trace_hash == direct.trace_hash


@pytest.fixture
def generated(monkeypatch):
    """The seed of every topology the sweep harness generates."""
    seeds = []
    topology_for = experiment.topology_for
    monkeypatch.setattr(experiment, "topology_for",
                        lambda spec, seed: seeds.append(seed) or topology_for(spec, seed))
    return seeds


def test_a_sweep_generates_each_topology_once(generated):
    rows, meta = run_sweep("nodes=10\nseeds=1,2\nduration=3\nbeta=0.2,0.6,1.0\n")
    assert sorted(generated) == [1, 2]
    assert meta["runs"] == len(rows) == 6
    for row in rows:
        cfg = RunConfig(seed=row.seed, duration_s=3.0, beta=row.beta)
        direct = run_simulation(cfg, generate_topology(TopologySpec(node_count=10), row.seed))
        assert row.csv_row() == direct.csv_row()
        assert row.trace_hash == direct.trace_hash


def test_a_topology_is_released_after_its_last_run(generated):
    runs = [run for exp in parse_sweep_spec("nodes=10\nseeds=1,2\nbeta=0.2,0.6\n")
            for run in exp.expand()]
    topologies = experiment.SweepTopologies(runs)
    taken = [topologies.take(spec, cfg.seed) for cfg, spec in runs]
    assert generated == [1, 2]
    assert taken[0] is taken[2] and taken[1] is taken[3]
    kept = [weakref.ref(topology) for topology in taken]
    del taken
    assert [ref() for ref in kept] == [None] * 4


def test_a_failed_topology_fails_every_run_that_needs_it(generated):
    rows, _ = run_sweep("nodes=10\nseeds=1\nduration=3\nbeta=0.6,1\ngrid_size=-1\n")
    assert generated == [1, 1]
    assert [row.error for row in rows] == ["grid_size must be positive and finite"] * 2


def _script_specs():
    for path in sorted((ROOT / "scripts").glob("*.py")):
        spec = importlib.util.spec_from_file_location(path.stem, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        for name, text in vars(module).items():
            if name.endswith("SPEC"):
                yield pytest.param(text, id=f"{path.stem}.{name}")


@pytest.mark.parametrize("text", list(_script_specs()))
def test_script_specs_parse(text):
    fields = {f for _, f, _, _ in string.Formatter().parse(text) if f}
    assert parse_sweep_spec(text.format(**dict.fromkeys(fields, "1")))


def _readme_keys() -> dict[str, str]:
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Sweep specification format", 1)[1]
    block = section.split("```", 2)[1]
    return dict(re.findall(r"(\w+) \(([^)]*)\)", block))


def test_readme_key_table_matches_parser():
    keys = _readme_keys()
    assert set(keys) == set(SWEEP_FIELDS)
    exp = ExperimentConfig()
    for key, shown in keys.items():
        path, name = SWEEP_FIELDS[key]
        default = getattr(attrgetter(path)(exp) if path else exp, name)
        if default is None:  # optional field, described in words
            continue
        expected = pytest.approx(default, rel=1e-6) if isinstance(default, float) else default
        assert parse_value(default, shown) == expected, key

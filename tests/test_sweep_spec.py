"""Sweep specs take every default and type from the config dataclasses, so a
sweep run, a direct run, ``qkdsim simulate`` and the README key table cannot
drift apart."""

import io
import re
from dataclasses import fields
from operator import attrgetter
from pathlib import Path

import pytest

from qkdsim import cli, experiment
from qkdsim.config import PROTOCOLS, RunConfig, parse_value
from qkdsim.engine import run_simulation
from qkdsim.experiment import SWEEP_FIELDS, parse_sweep_spec, run_sweep
from qkdsim.stats import write_csv
from qkdsim.topology import TopologySpec, generate_topology

ROOT = Path(__file__).resolve().parent.parent


def test_every_setting_has_exactly_one_key():
    # So simulate, gen-topology and sweep reach every config field, each by one name:
    # RunConfig's 16 and TopologySpec's 3.
    settable = [(path, f.name) for path, owner in (("base", RunConfig), ("topology", TopologySpec))
                for f in fields(owner)]
    assert sorted(SWEEP_FIELDS.values()) == sorted(settable)
    # No two fields share a key, and each renamed field exists.
    assert len(SWEEP_FIELDS) == len(settable) == 19
    assert set(experiment._RENAMED) <= {name for _, name in settable}


def test_empty_spec_is_the_dataclass_default():
    assert parse_sweep_spec("") == [(RunConfig(), TopologySpec())]


def test_axes_vary_in_line_order_with_nodes_then_seeds_fastest():
    runs = parse_sweep_spec("seeds=3,1\nbeta=0.2,0.6\nnodes=12,10\nprotocol=dv,gpsrq\n")
    assert [(cfg.beta, cfg.protocol, spec.node_count, cfg.seed) for cfg, spec in runs] == [
        (beta, protocol, nodes, seed) for beta in (0.2, 0.6) for protocol in ("dv", "gpsrq")
        for nodes in (12, 10) for seed in (3, 1)]


def _run_lines(csv_text: str) -> list[str]:
    """A CSV's ``# settings=`` line, its first ``# run`` line, its header and its first data row."""
    return [line for line in csv_text.splitlines()
            if line.startswith(("# settings=", "# run ")) or not line.startswith("#")][:4]


@pytest.mark.parametrize("protocol,seeds", [*((p, ["seeds=1"]) for p in PROTOCOLS),
                                            ("gpsrq", [])],
                         ids=[*PROTOCOLS, "gpsrq-no-seeds-line"])
def test_sweep_row_matches_direct_run(protocol, seeds, capsys):
    # 20 s of dv on 10 nodes sends triggered updates, so the merge window
    # shows in the overhead columns and the trace hash. Without a seeds line
    # a sweep runs the one seed 1, as simulate does.
    settings = [f"protocol={protocol}", "nodes=10", *seeds, "duration=20"]
    rows, meta = run_sweep("\n".join(settings))
    (row,) = rows
    direct = run_simulation(RunConfig(protocol=protocol, seed=1, duration_s=20.0),
                            generate_topology(TopologySpec(node_count=10), 1))
    assert row.csv_row() == direct.csv_row()
    assert row.trace_hash == direct.trace_hash
    # simulate takes the same settings and prints the same settings line, run line and data row.
    swept = io.StringIO()
    write_csv(swept, rows, meta)
    assert cli.main(["simulate", *settings]) == 0
    assert _run_lines(capsys.readouterr().out) == _run_lines(swept.getvalue())


@pytest.fixture
def generated(monkeypatch):
    """The seed of every topology the sweep harness generates."""
    seeds = []
    topology_for = experiment.topology_for
    monkeypatch.setattr(experiment, "topology_for",
                        lambda spec, seed: seeds.append(seed) or topology_for(spec, seed))
    return seeds


def test_a_sweep_generates_each_runs_topology(generated):
    rows, meta = run_sweep("nodes=10\nseeds=1,2\nduration=3\nbeta=0.2,0.6,1.0\n")
    assert generated == [1, 2, 1, 2, 1, 2]
    assert meta["runs"] == len(rows) == 6
    for row in rows:
        cfg = RunConfig(seed=row.seed, duration_s=3.0, beta=row.beta)
        direct = run_simulation(cfg, generate_topology(TopologySpec(node_count=10), row.seed))
        assert row.csv_row() == direct.csv_row()
        assert row.trace_hash == direct.trace_hash


def test_a_failed_topology_fails_every_run_that_needs_it(generated):
    rows, _ = run_sweep("nodes=10\nseeds=1\nduration=3\nbeta=0.6,1\ngrid_size=-1\n")
    assert generated == [1, 1]
    assert [row.error for row in rows] == ["grid_size must be positive and finite"] * 2


@pytest.mark.parametrize("path", sorted((ROOT / "experiments").glob("*.txt")),
                         ids=attrgetter("stem"))
def test_experiment_specs_parse(path):
    assert parse_sweep_spec(path.read_text(encoding="ascii"))


def test_a_later_line_for_a_key_replaces_the_earlier_one():
    # So an experiment spec is shortened by appending lines, and its axes keep their order.
    base = "nodes=30,40\nbeta=0.2,0.6\nseeds=1,2\ncache=on,off\nduration=60\n"
    shortened = parse_sweep_spec(base + "nodes=10,12\nduration=0.5\nbeta=1.0,0.0\n")
    assert [(cfg.beta, cfg.cache_enabled, spec.node_count, cfg.seed, cfg.duration_s)
            for cfg, spec in shortened] == [(b, c, n, s, 0.5)
                                            for b in (1.0, 0.0) for c in (True, False)
                                            for n in (10, 12) for s in (1, 2)]


def _readme_keys() -> dict[str, str]:
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Sweep specification format", 1)[1]
    block = section.split("```", 2)[1]
    return dict(re.findall(r"(\w+) \(([^)]*)\)", block))


def test_readme_key_table_matches_parser():
    keys = _readme_keys()
    assert set(keys) == set(SWEEP_FIELDS)
    defaults = {"base": RunConfig(), "topology": TopologySpec()}
    for key, shown in keys.items():
        path, name = SWEEP_FIELDS[key]
        default = getattr(defaults[path], name)
        expected = pytest.approx(default, rel=1e-6) if isinstance(default, float) else default
        assert parse_value(default, shown) == expected, key

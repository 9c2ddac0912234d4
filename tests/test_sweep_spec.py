"""Sweep specs take every default and type from the config dataclasses, so a
sweep run, a direct run and the README key table cannot drift apart."""

import importlib.util
import re
import string
from dataclasses import asdict
from operator import attrgetter
from pathlib import Path

import pytest

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

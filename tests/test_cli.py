import subprocess
import sys

import pytest

from qkdsim.cli import main
from qkdsim.config import ConfigError
from qkdsim.experiment import parse_sweep_spec
from qkdsim.topology import load_topology


def run_cli(args):
    return main(args)


def test_gen_topology_and_simulate_round_trip(tmp_path, capsys):
    topo_path = tmp_path / "topo.txt"
    assert run_cli([
        "gen-topology", "--nodes", "8", "--seed", "3", "--gabriel",
        "--out", str(topo_path),
    ]) == 0
    topo = load_topology(str(topo_path))
    assert len(topo.nodes) == 8

    out_path = tmp_path / "run.csv"
    assert run_cli([
        "simulate", "--topology", str(topo_path), "--seed", "3",
        "--protocol", "gpsrq", "--duration", "5", "--out", str(out_path),
    ]) == 0
    body = out_path.read_text()
    assert "protocol,nodes,seed" in body
    assert "gpsrq,8,3" in body


def test_simulate_waxman_flag(tmp_path):
    out_path = tmp_path / "run.csv"
    assert run_cli([
        "simulate", "--waxman", "6", "--seed", "2", "--gabriel",
        "--duration", "5", "--out", str(out_path),
    ]) == 0
    assert "gpsrq,6,2" in out_path.read_text()


def test_simulate_rejects_bad_config(capsys):
    rc = run_cli([
        "simulate", "--waxman", "6", "--seed", "2", "--duration", "-5",
    ])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_simulate_rejects_bad_link_override(capsys):
    rc = run_cli([
        "simulate", "--waxman", "6", "--seed", "2", "--duration", "5",
        "--link-config", "nonsense=1",
    ])
    assert rc == 2


def test_dump_caches_and_metrics_csv(tmp_path, capsys):
    metrics_path = tmp_path / "metrics.csv"
    rc = run_cli([
        "simulate", "--waxman", "8", "--seed", "5", "--gabriel",
        "--duration", "15", "--out", str(tmp_path / "r.csv"),
        "--metrics-csv", str(metrics_path), "--dump-caches",
    ])
    assert rc == 0
    lines = metrics_path.read_text().splitlines()
    assert lines[0] == "time_s,node_u,node_v,q_frac,q_m,p_m,r_m"
    assert len(lines) > 1


def test_sweep_spec_parsing_cartesian():
    spec = """
    # comment line
    protocol=gpsrq,dv
    nodes=6
    seeds=1,2
    beta=0.4,0.6
    duration=5
    """
    experiments = parse_sweep_spec(spec)
    assert len(experiments) == 4  # protocols x betas
    runs = [run for exp in experiments for run in exp.expand()]
    assert len(runs) == 8  # x two seeds


def test_sweep_spec_rejects_unknown_key():
    with pytest.raises(ConfigError):
        parse_sweep_spec("definitely_not_a_key=1\n")


def test_sweep_runs_and_aggregates(tmp_path):
    spec_path = tmp_path / "sweep.txt"
    spec_path.write_text(
        "protocol=gpsrq\nnodes=6\nseeds=1,2\nduration=5\ngabriel=on\n"
    )
    out_path = tmp_path / "sweep.csv"
    assert run_cli(["sweep", "--spec", str(spec_path), "--out", str(out_path)]) == 0
    lines = [l for l in out_path.read_text().splitlines() if not l.startswith("#")]
    # header + 2 runs + 1 aggregate mean row
    assert len(lines) == 4
    assert lines[-1].split(",")[2] == "mean"


def test_sweep_continues_past_failing_run(tmp_path):
    # node_count=2 with gabriel works; adding an impossible init range fails
    # validation inside the run and must not kill the sweep.
    spec_path = tmp_path / "sweep.txt"
    spec_path.write_text("nodes=6\nseeds=1\nduration=5\ninit_key_bytes=9:1\n")
    out_path = tmp_path / "sweep.csv"
    assert run_cli(["sweep", "--spec", str(spec_path), "--out", str(out_path)]) == 0
    text = out_path.read_text()
    assert "# error" in text


def test_process_level_determinism(tmp_path):
    """Two separate interpreter invocations produce byte-identical CSV."""
    args = [
        sys.executable, "-m", "qkdsim.cli", "simulate",
        "--waxman", "8", "--seed", "11", "--gabriel",
        "--protocol", "gpsrq", "--duration", "10",
    ]
    first = subprocess.run(args, capture_output=True, text=True, check=True)
    second = subprocess.run(args, capture_output=True, text=True, check=True)
    assert first.stdout == second.stdout
    assert "trace_hash=" in first.stdout


@pytest.mark.parametrize("where, item", [
    ("sweep", "beta=zz"),
    ("sweep", "nodes=6,x"),
    ("sweep", "seeds="),
    ("link", "rate_bps=abc"),
    ("link", "auth_key_bits=1.5"),
    ("link", "init_key_bytes_range=5"),
    ("simulate", "--waxman 1"),
    ("simulate", "--waxman 6 --grid-size -1"),
])
def test_bad_values_exit_2_with_one_error_line(tmp_path, capsys, where, item):
    if where == "sweep":
        spec_path = tmp_path / "sweep.txt"
        spec_path.write_text(f"duration=5\n{item}\n")
        args = ["sweep", "--spec", str(spec_path), "--out", str(tmp_path / "s.csv")]
    elif where == "link":
        args = ["simulate", "--waxman", "6", "--duration", "5", "--link-config", item]
    else:
        args = ["simulate", "--duration", "5", *item.split()]
    assert run_cli(args) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")

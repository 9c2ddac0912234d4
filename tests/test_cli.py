import io

import pytest

from qkdsim import cli
from qkdsim.cli import main
from qkdsim.config import ConfigError, RunConfig
from qkdsim.engine import run_simulation
from qkdsim.experiment import parse_sweep_spec, run_sweep
from qkdsim.stats import write_csv
from qkdsim.topology import TopologySpec, generate_topology, load_topology, save_topology


def run_cli(args):
    return main(args)


def test_gen_topology_and_simulate_round_trip(tmp_path, capsys):
    topo_path = tmp_path / "topo.txt"
    assert run_cli(["gen-topology", "--out", str(topo_path), "nodes=8", "seeds=3"]) == 0
    topo = load_topology(str(topo_path))
    assert len(topo.nodes) == 8
    assert topo.edges == generate_topology(TopologySpec(node_count=8), 3).edges

    out_path = tmp_path / "run.csv"
    assert run_cli([
        "simulate", "--topology", str(topo_path), "seeds=3",
        "protocol=gpsrq", "duration=5", "--out", str(out_path),
    ]) == 0
    body = out_path.read_text()
    assert "protocol,nodes,seed" in body
    assert "gpsrq,8,3" in body


def test_gen_topology_draws_waxman_edges_with_gabriel_off(tmp_path):
    # Like a sweep, gen-topology builds the Gabriel graph unless given gabriel=off.
    topo_path = tmp_path / "topo.txt"
    assert run_cli(["gen-topology", "--out", str(topo_path), "nodes=12", "seeds=4",
                    "gabriel=off"]) == 0
    waxman = generate_topology(TopologySpec(node_count=12, gabriel=False), 4)
    assert waxman.edges != generate_topology(TopologySpec(node_count=12), 4).edges
    assert load_topology(str(topo_path)).edges == waxman.edges


def test_simulate_waxman_flag(tmp_path):
    # gabriel=off draws Waxman edges, on the same topology as a direct run.
    out_path = tmp_path / "run.csv"
    assert run_cli(["simulate", "nodes=6", "seeds=2", "gabriel=off", "duration=5",
                    "--out", str(out_path)]) == 0
    direct = run_simulation(RunConfig(seed=2, duration_s=5.0),
                            generate_topology(TopologySpec(node_count=6, gabriel=False), 2))
    assert ",".join(direct.csv_row()) in out_path.read_text().splitlines()
    assert f"trace_hash={direct.trace_hash}" in out_path.read_text()


def test_simulate_rejects_bad_config(capsys):
    rc = run_cli(["simulate", "nodes=6", "seeds=2", "duration=-5"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_simulate_rejects_bad_link_override(capsys):
    # The error counts only the given settings, not the default seed added to them.
    rc = run_cli(["simulate", "nodes=6", "duration=5", "rate_bps=abc"])
    assert rc == 2
    assert capsys.readouterr().err == "error: setting 3: rate_bps: cannot parse 'abc'\n"


def test_dump_caches_and_metrics_csv(tmp_path, capsys):
    # Settings may follow the options as well as precede them.
    metrics_path = tmp_path / "metrics.csv"
    rc = run_cli([
        "simulate", "nodes=8", "--out", str(tmp_path / "r.csv"),
        "--metrics-csv", str(metrics_path), "--dump-caches", "seeds=5", "duration=15",
    ])
    assert rc == 0
    lines = metrics_path.read_text().splitlines()
    assert lines[0] == "time_s,node_u,node_v,q_frac,q_m,p_m,r_m"
    assert len(lines) > 1
    assert "gpsrq,8,5," in (tmp_path / "r.csv").read_text()


def test_sweep_spec_parsing_cartesian():
    spec = """
    # comment line
    protocol=gpsrq,dv
    nodes=6
    seeds=1,2
    beta=0.4,0.6
    duration=5
    """
    runs = parse_sweep_spec(spec)
    assert [(cfg.protocol, cfg.beta, topo.node_count, cfg.seed, cfg.duration_s)
            for cfg, topo in runs] == [(p, b, 6, s, 5.0) for p in ("gpsrq", "dv")
                                       for b in (0.4, 0.6) for s in (1, 2)]


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


def test_error_row_carries_its_config_columns():
    (row,), _ = run_sweep("protocol=dv\nnodes=6\nseeds=4\nduration=5\nbeta=0.3\nalpha=0.7\n"
                          "t_avg_window=3\ncache=off\ninit_key_bytes=9:1\n")
    assert "init_key_bytes" in row.error
    assert (row.protocol, row.nodes, row.seed, row.beta, row.alpha, row.t_avg_window,
            row.cache) == ("dv", 6, 4, 0.3, 0.7, 3, False)
    assert (row.sent, row.in_flight, row.trace_hash) == (0, 0, "")


# Settings that are module constants: once sweep keys, now unknown ones.
@pytest.mark.parametrize("item", [
    "min_key_bytes=2000000", "charge_period_s=5", "auth_key_bits=128", "round_stddev_frac=0.2",
    "round_floor_s=0.2", "round_load_gain=1", "packet_bytes=256", "dv_period_s=10",
    "dv_merge_window_s=0.01", "theta=0.5", "omega=0.5", "lambda=50", "links_per_node=3",
])
def test_a_fixed_setting_is_not_a_key(tmp_path, capsys, item):
    spec_path = tmp_path / "sweep.txt"
    spec_path.write_text(f"nodes=6\nduration=2\n{item}\n", encoding="ascii")
    assert run_cli(["simulate", "nodes=6", "duration=2", item]) == 2
    assert run_cli(["sweep", "--spec", str(spec_path)]) == 2
    key = item.split("=", 1)[0]
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("error:") and repr(key) in line for line in err)


def test_error_lines_name_their_configuration():
    rows, _ = run_sweep("protocol=gpsrq,dv\nnodes=10\nseeds=1\nduration=3\nbeta=0.6,1\n"
                        "grid_size=-1\n")
    out = io.StringIO()
    write_csv(out, rows)
    errors = [line for line in out.getvalue().splitlines() if line.startswith("# error")]
    assert len(errors) == len(set(errors)) == 4
    assert errors[0] == ("# error protocol=gpsrq nodes=10 seed=1 beta=0.6 alpha=0.5 "
                         "t_avg_window=5 cache=on: grid_size must be positive and finite")


def test_topology_range_checks_run_when_the_run_starts():
    rows, meta = run_sweep("nodes=1\nseeds=1\nduration=3\n")
    out = io.StringIO()
    write_csv(out, rows, meta)
    errors = [line for line in out.getvalue().splitlines() if line.startswith("# error")]
    assert errors == ["# error protocol=gpsrq nodes=1 seed=1 beta=0.6 alpha=0.5 "
                      "t_avg_window=5 cache=on: node_count must be at least 2"]


def test_simulate_refuses_a_bad_setting_before_it_generates_the_topology(monkeypatch, capsys):
    def no_topology(spec, seed):
        raise AssertionError("topology generated before the run config was checked")

    monkeypatch.setattr(cli, "generate_topology", no_topology)
    assert run_cli(["simulate", "nodes=6", "beta=2"]) == 2
    assert capsys.readouterr().err == "error: beta and alpha must lie in [0, 1]\n"


# A ported case keeps the id it had when simulate and gen-topology took flags.
@pytest.mark.parametrize("where, item", [
    ("sweep", "beta=zz"),
    ("sweep", "nodes=6,x"),
    ("sweep", "seeds="),
    ("link", "rate_bps=abc"),
    pytest.param("link", "init_key_bytes=5", id="link-init_key_bytes_range=5"),
    ("link", "rate_bps=nan"),
    ("link", "bandwidth_bps=nan"),
    ("link", "max_key_bytes=inf"),
    ("link", "max_key_bytes=1000000"),
    ("link", "rate_bps=-1"),
    ("link", "bandwidth_bps=0"),
    pytest.param("link", "init_key_bytes=1:inf", id="link-init_key_bytes_range=1:inf"),
    ("sweep", "# caf\u00e9"),
    pytest.param("simulate", "nodes=1 gabriel=off", id="simulate---waxman 1"),
    pytest.param("simulate", "nodes=6 gabriel=off grid_size=-1",
                 id="simulate---waxman 6 --grid-size -1"),
    pytest.param("simulate", "nodes=6 gabriel=off grid_size=nan",
                 id="simulate---waxman 6 --grid-size nan"),
    pytest.param("simulate", "nodes=6 gabriel=off duration=nan",
                 id="simulate---waxman 6 --duration nan"),
    pytest.param("simulate", "nodes=6 gabriel=off duration=inf",
                 id="simulate---waxman 6 --duration inf"),
    pytest.param("simulate", "nodes=6 gabriel=off traffic_rate_bps=nan",
                 id="simulate---waxman 6 --traffic-rate nan"),
    ("simulate", "beta=0.2,0.6"),
    ("simulate", "seeds=1,2"),
    ("simulate", "nodes=6 seeds=1,2"),
    ("simulate", "nonsense=1"),
    ("simulate", "alpha=1.5"),
    ("simulate", "beta=-0.1"),
    ("simulate", "t_avg_window=0"),
    ("simulate", "queue_capacity=0"),
    ("simulate", "bogus"),
    pytest.param("gen-topology", "nodes=5 grid_size=nan",
                 id="gen-topology---nodes 5 --grid-size nan --gabriel"),
    pytest.param("gen-topology", "nodes=5 gabriel=off grid_size=inf",
                 id="gen-topology---nodes 5 --grid-size inf"),
    pytest.param("gen-topology", "nodes=1 gabriel=off", id="gen-topology---nodes 1"),
    ("gen-topology", "nodes=5 beta=0.5"),
    ("topology", "topology v1 x 1 10"),
    ("topology", "topology v1 1 0 10\nN 0 a 1"),
    ("topology", "topology v1 2 1 10\nN 0 nan 1\nN 1 2 2\nE 0 1"),
    ("topology", "topology v1 1 0 10\nN 0 1 caf\u00e9"),
    ("loaded", "nodes=8"),
    ("loaded", "gabriel=off"),
])
def test_bad_values_exit_2_with_one_error_line(tmp_path, capsys, where, item):
    topo_path = tmp_path / "t.txt"
    if where == "sweep":
        spec_path = tmp_path / "sweep.txt"
        spec_path.write_text(f"duration=5\n{item}\n", encoding="utf-8")
        args = ["sweep", "--spec", str(spec_path), "--out", str(tmp_path / "s.csv")]
    elif where == "link":
        args = ["simulate", "nodes=6", "duration=5", item]
    elif where == "gen-topology":
        args = ["gen-topology", "--out", str(topo_path), *item.split()]
    elif where == "topology":
        topo_path.write_text(f"{item}\n", encoding="utf-8")
        args = ["simulate", "duration=5", "--topology", str(topo_path)]
    elif where == "loaded":
        save_topology(generate_topology(TopologySpec(node_count=6), 1), str(topo_path))
        args = ["simulate", "duration=5", "--topology", str(topo_path), item]
    else:
        args = ["simulate", "duration=5", *item.split()]
    assert run_cli(args) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")

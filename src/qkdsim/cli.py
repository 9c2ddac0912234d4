"""Command-line interface: simulate, gen-topology and sweep subcommands.

Exit status is 0 on success and 2 on configuration errors. The environment
variable QKDSIM_LOG selects log verbosity (debug, info, warning, error).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import asdict, fields

from .config import CLASS_NAMES, PROTOCOLS, ConfigError, LinkConfig, RunConfig, TopologySpec, parse_value
from .engine import Simulation, SimulationError
from .experiment import run_sweep, topology_for
from .stats import write_csv
from .topology import TopologyError, load_topology, save_topology


def _setup_logging() -> None:
    level = os.environ.get("QKDSIM_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _add_simulate(sub: argparse._SubParsersAction) -> None:
    run, spec = RunConfig(), TopologySpec()
    p = sub.add_parser("simulate", help="run one simulation and emit a CSV row")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--topology", metavar="FILE", help="load a topology file")
    src.add_argument("--waxman", type=int, metavar="N", help="generate an N-node random topology")
    p.add_argument("--seed", type=int, default=run.seed)
    p.add_argument("--gabriel", action="store_true", help="planarize the generated topology")
    p.add_argument("--grid-size", type=float, default=spec.grid_size)
    p.add_argument("--protocol", choices=PROTOCOLS, default=run.protocol)
    p.add_argument("--beta", type=float, default=run.beta)
    p.add_argument("--alpha", type=float, default=run.alpha)
    p.add_argument("--t-avg-window", type=int, default=run.t_avg_window)
    p.add_argument("--no-cache", action="store_true")
    p.add_argument("--duration", type=float, default=run.duration_s)
    p.add_argument("--traffic-rate", type=float, default=run.traffic.rate_bps, help="bits/second")
    p.add_argument("--packet-bytes", type=int, default=run.traffic.packet_bytes)
    p.add_argument("--traffic-class", choices=tuple(CLASS_NAMES),
                   default=run.traffic.traffic_class)
    p.add_argument("--link-config", action="append", default=[], metavar="KEY=VALUE",
                   help="override a link config key (e.g. rate_bps=100000)")
    p.add_argument("--out", metavar="FILE", help="write CSV here instead of stdout")
    p.add_argument("--dump-caches", action="store_true",
                   help="print per-node exclusion caches after the run")
    p.add_argument("--metrics-csv", metavar="FILE",
                   help="dump per-event link metric snapshots")


def _apply_link_overrides(cfg: RunConfig, overrides: list[str]) -> None:
    names = {f.name for f in fields(LinkConfig)}
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--link-config expects KEY=VALUE, got {item!r}")
        key, raw = item.split("=", 1)
        if key not in names:
            raise ConfigError(f"unknown link config key {key!r}")
        try:
            setattr(cfg.link, key, parse_value(getattr(cfg.link, key), raw))
        except ConfigError as exc:
            raise ConfigError(f"--link-config {key}: {exc}") from None


def _cmd_simulate(args: argparse.Namespace) -> int:
    run_cfg = RunConfig(
        protocol=args.protocol,
        seed=args.seed,
        duration_s=args.duration,
        beta=args.beta,
        alpha=args.alpha,
        t_avg_window=args.t_avg_window,
        cache_enabled=not args.no_cache,
    )
    run_cfg.traffic.rate_bps = args.traffic_rate
    run_cfg.traffic.packet_bytes = args.packet_bytes
    run_cfg.traffic.traffic_class = args.traffic_class
    _apply_link_overrides(run_cfg, args.link_config)
    run_cfg.validate()

    if args.topology:
        topo = load_topology(args.topology)
    else:
        spec = TopologySpec(node_count=args.waxman, grid_size=args.grid_size,
                            gabriel=args.gabriel)
        topo = topology_for(spec, args.seed)

    sim = Simulation(run_cfg, topo, metrics_log=bool(args.metrics_csv))
    stats = sim.run()

    if args.metrics_csv:
        with open(args.metrics_csv, "w", encoding="ascii") as fh:
            fh.write("time_s,node_u,node_v,q_frac,q_m,p_m,r_m\n")
            for row in sim.metrics_log:
                fh.write(",".join(repr(x) for x in row) + "\n")
    if args.dump_caches:
        for line in sim.dump_caches():
            print(line)

    meta = {
        "command": "simulate",
        "config": asdict(run_cfg),
        "topology_retries": topo.retries,
    }
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            write_csv(fh, [stats], metadata=meta, aggregate=False)
    else:
        write_csv(sys.stdout, [stats], metadata=meta, aggregate=False)
    return 0


def _add_gen_topology(sub: argparse._SubParsersAction) -> None:
    spec = TopologySpec()
    p = sub.add_parser("gen-topology", help="generate a topology file")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--seed", type=int, default=RunConfig().seed)
    p.add_argument("--grid-size", type=float, default=spec.grid_size)
    p.add_argument("--theta", type=float, default=spec.theta)
    p.add_argument("--omega", type=float, default=spec.omega)
    p.add_argument("--lambda", dest="lambda_max", type=float, default=spec.lambda_max)
    p.add_argument("--links-per-node", type=int, default=spec.links_per_node)
    p.add_argument("--gabriel", action="store_true")
    p.add_argument("--out", required=True, metavar="FILE")


def _cmd_gen_topology(args: argparse.Namespace) -> int:
    spec = TopologySpec(
        node_count=args.nodes,
        grid_size=args.grid_size,
        theta=args.theta,
        omega=args.omega,
        lambda_max=args.lambda_max,
        links_per_node=args.links_per_node,
        gabriel=args.gabriel,
    )
    topo = topology_for(spec, args.seed)
    save_topology(topo, args.out)
    print(f"wrote {args.out}: {len(topo.nodes)} nodes, {len(topo.edges)} edges, "
          f"{topo.retries} regeneration(s)")
    return 0


def _add_sweep(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("sweep", help="run a sweep specification file")
    p.add_argument("--spec", required=True, metavar="FILE")
    p.add_argument("--out", metavar="FILE", help="write CSV here instead of stdout")


def _cmd_sweep(args: argparse.Namespace) -> int:
    with open(args.spec, encoding="ascii") as fh:
        text = fh.read()
    rows, meta = run_sweep(text)
    meta["command"] = "sweep"
    meta["spec"] = args.spec
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            write_csv(fh, rows, metadata=meta)
    else:
        write_csv(sys.stdout, rows, metadata=meta)
    return 0


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = argparse.ArgumentParser(prog="qkdsim",
                                     description="Trusted-relay QKD network simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_simulate(sub)
    _add_gen_topology(sub)
    _add_sweep(sub)
    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "gen-topology":
            return _cmd_gen_topology(args)
        return _cmd_sweep(args)
    except (ConfigError, TopologyError, SimulationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

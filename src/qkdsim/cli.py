"""Command-line interface: simulate, gen-topology and sweep subcommands.

``simulate`` and ``gen-topology`` take sweep keys as ``KEY=VALUE`` settings of one run.

Exit status is 0 on success and 2 on configuration errors. The environment
variable QKDSIM_LOG selects log verbosity (debug, info, warning, error).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import asdict

from .config import ConfigError, RunConfig
from .engine import Simulation, SimulationError
from .experiment import SWEEP_FIELDS, parse_sweep_spec, run_sweep
from .stats import write_csv
from .topology import TopologyError, TopologySpec, generate_topology, load_topology, save_topology


def _setup_logging() -> None:
    level = os.environ.get("QKDSIM_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


# The keys that shape a generated topology.
TOPOLOGY_KEYS = {key for key, (path, _) in SWEEP_FIELDS.items() if path == "topology"}


def _one_run(settings: list[str], refused: set[str],
             command: str) -> tuple[RunConfig, TopologySpec]:
    """The one run that ``settings`` describe; a key in ``refused`` exits 2."""
    keys = [item.split("=", 1)[0].strip() for item in settings]
    for key in keys:
        if key in refused:
            raise ConfigError(f"{command} does not take {key!r}")
    runs = parse_sweep_spec("\n".join(settings), "setting")
    if len(runs) != 1:
        raise ConfigError(f"the settings describe {len(runs)} runs; qkdsim sweep runs several")
    return runs[0]


def _add_simulate(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("simulate", help="run one simulation and emit a CSV row")
    p.add_argument("--topology", metavar="FILE", help="load a topology file, not generate one")
    p.add_argument("--out", metavar="FILE", help="write CSV here instead of stdout")
    p.add_argument("--dump-caches", action="store_true",
                   help="print per-node exclusion caches after the run")
    p.add_argument("--metrics-csv", metavar="FILE",
                   help="dump per-event link metric snapshots")
    p.add_argument("settings", nargs="*", metavar="KEY=VALUE", help="sweep keys, one value each")


def _cmd_simulate(args: argparse.Namespace) -> int:
    refused = TOPOLOGY_KEYS if args.topology else set()
    run_cfg, spec = _one_run(args.settings, refused, "simulate --topology")
    # Refuse a bad setting before a Gabriel topology builds n(n+1)/2 squared distances.
    run_cfg.validate()
    topo = load_topology(args.topology) if args.topology else generate_topology(spec, run_cfg.seed)

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
    p = sub.add_parser("gen-topology", help="generate a topology file")
    p.add_argument("--out", required=True, metavar="FILE")
    p.add_argument("settings", nargs="*", metavar="KEY=VALUE", help="topology keys, nodes, seeds")


def _cmd_gen_topology(args: argparse.Namespace) -> int:
    refused = SWEEP_FIELDS.keys() - TOPOLOGY_KEYS - {"seeds"}
    run_cfg, spec = _one_run(args.settings, refused, "gen-topology")
    topo = generate_topology(spec, run_cfg.seed)
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
    # A setting after an option comes back unparsed, so it joins the settings.
    args, late = parser.parse_known_args(argv)
    if late:
        if args.command == "sweep" or any(item.startswith("-") for item in late):
            parser.error(f"unrecognized arguments: {' '.join(late)}")
        args.settings += late
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "gen-topology":
            return _cmd_gen_topology(args)
        return _cmd_sweep(args)
    except (ConfigError, TopologyError, SimulationError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

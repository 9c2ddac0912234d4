"""qkdsim benchmark: host time, events/s, set-up time and peak memory.

Run from the root of a checkout:

    python3 perfbench/run.py --workload gpsrq-recovery --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seconds 30

One invocation measures one workload for ``--seconds`` seconds. It starts
repetitions one after another, each in a fresh child process
(``workloads.py``), until the time is used up; at least one always runs.
Each repetition's CSV rows and ``trace_hash`` values are checked against
``reference.json`` (for a ``--sim-seed`` without a stored reference: against
the first repetition, and the traced run against the untraced one). A
repetition fails if it raises, times out or its check fails.
``reference.json`` holds the ``records`` that ``workloads.py W SEED 0``
prints for each workload W at its canonical seed; a change that alters any
simulated output must say so and record them again.

With ``--trace 0`` the last line of standard output is a JSON object holding
every end-to-end metric of ``BENCHMARK.json``, each the median over the
repetitions; the lines before it give quartiles and sample counts, and the
regime counters of every repetition. With ``--trace 1`` one untraced and one
traced repetition run, whatever ``--seconds`` says, and the object holds
every per-layer metric. ``--all`` runs every workload and also writes
``perfbench/out/results.json``. The exit status is 1 when any
repetition failed, 2 when the benchmark cannot run here at all.

``--seed`` does not change the simulated scenario. The host time of a
qkdsim run depends on its simulation seed by up to an order of magnitude
(gpsrq at 60 nodes, 100 s: 6.5 s to 70 s across seeds), far beyond any
regression bound, so every workload runs at its canonical simulation seed.
A held-out scenario is measured with ``--sim-seed N``; compare it with the
canonical one only if the regime counters printed per repetition show the
same regime.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# A repetition that exceeds this is killed and counted as failed, so a run
# ends within the driver's 180 s even for a traced gpsrq-recovery.
CHILD_TIMEOUT_S = 150.0


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _references() -> dict:
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_child(workload: str, sim_seed: int, trace: bool) -> tuple[dict | None, str]:
    """Run one repetition in a fresh interpreter; returns (result, error)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, str(HERE / "workloads.py"), workload, str(sim_seed), "1" if trace else "0"]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {CHILD_TIMEOUT_S:.0f} s"
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return None, f"exit {proc.returncode}: {tail[0]}"
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return None, f"no result line in {proc.stdout[-200:]!r}"
    return result, f"run errors: {result['errors']}" if result["errors"] else ""


def check_records(result: dict, expected: list[str] | None) -> str:
    """Empty when the repetition's rows and hashes equal ``expected``."""
    if expected is None or result["records"] == expected:
        return ""
    for got, want in zip(result["records"], expected):
        if got != want:
            return f"output mismatch: got {got!r}, want {want!r}"
    return f"output mismatch: {len(result['records'])} runs, want {len(expected)}"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def end_to_end_values(result: dict) -> dict[str, float]:
    """The end-to-end metric values of one untraced repetition."""
    return {
        "wall_s": result["wall_s"],
        "events_per_s": result["events"] / result["wall_s"],
        "setup_s": result["setup_s"],
        "peak_rss_mb": result["peak_rss_mb"],
    }


def layer_values(plain: dict, traced: dict) -> dict[str, float]:
    """The per-layer metric values of a traced repetition and its untraced twin."""
    layers = dict(traced["layers"])
    layers["trace_overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
    return layers


def _print_regime(result: dict) -> None:
    regime = " ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                      for k, v in result["regime"].items())
    print(f"  repetition: setup_s={result['setup_s']:.4f} wall_s={result['wall_s']:.3f} "
          f"cpu_s={result['cpu_s']:.3f} events={result['events']} "
          f"peak_rss_mb={result['peak_rss_mb']:.1f} {regime}", flush=True)


class Repetitions:
    """Runs checked repetitions of one workload and counts simulation runs."""

    def __init__(self, workload: str, sim_seed: int) -> None:
        self.workload, self.sim_seed = workload, sim_seed
        self.expected = _references().get(workload, {}).get(str(sim_seed))
        self.attempted = self.failed = 0

    def run(self, trace: bool) -> dict | None:
        """One repetition in a fresh child; None when it failed."""
        result, error = run_child(self.workload, self.sim_seed, trace)
        runs = result["runs"] if result else 1
        self.attempted += runs
        if result is not None:
            _print_regime(result)
            error = error or check_records(result, self.expected)
        if error:
            self.failed += runs
            print(f"  FAILED{' (traced)' if trace else ''}: {error}", flush=True)
            return None
        if self.expected is None:
            self.expected = result["records"]
        return result


def measure(reps: Repetitions, seconds: float) -> dict[str, list[float]]:
    """Untraced repetitions for ``seconds``: every end-to-end value of each."""
    samples: dict[str, list[float]] = {}
    start = perf_counter()
    while reps.attempted == 0 or perf_counter() - start < seconds:
        result = reps.run(trace=False)
        if result is not None:
            for name, value in end_to_end_values(result).items():
                samples.setdefault(name, []).append(value)
    return samples


def measure_traced(reps: Repetitions) -> dict[str, float]:
    """One untraced and one traced repetition: the per-layer values."""
    plain = reps.run(trace=False)
    traced = plain and reps.run(trace=True)
    if not traced:
        return {}
    layers = layer_values(plain, traced)
    if layers["engine.events"] != plain["events"]:
        print("  FAILED: traced event count differs from the untraced one", flush=True)
        reps.failed += traced["runs"]
    return layers


def run_workload(workload: str, sim_seed: int, seconds: float, trace: bool) -> dict:
    spec = _spec()
    print(f"workload {workload} (sim seed {sim_seed}, trace {int(trace)})", flush=True)
    reps = Repetitions(workload, sim_seed)
    metrics: dict[str, dict] = {}
    if trace:
        layers = measure_traced(reps)
        for m in spec["per_layer"]:
            if layers:
                metrics[m["name"]] = {"value": layers[m["name"]], "unit": m["unit"]}
                print(f"  {m['name']} = {layers[m['name']]:.6g} {m['unit']}")
    else:
        samples = measure(reps, seconds)
        for m in spec["end_to_end"]:
            values = samples.get(m["name"])
            if values:
                q1, med, q3 = quartiles(values)
                metrics[m["name"]] = {"value": med, "unit": m["unit"]}
                print(f"  {m['name']}: median {med:.6g} {m['unit']} "
                      f"(q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})")
    print(f"  runs_attempted={reps.attempted} runs_failed={reps.failed}", flush=True)
    return {"correct": reps.failed == 0 and bool(metrics), "attempted": reps.attempted,
            "failed": reps.failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--all", action="store_true", help="run every workload, one after another")
    ap.add_argument("--seed", type=int, default=1, help="driver seed; see the module docstring")
    ap.add_argument("--sim-seed", type=int,
                    help="simulation seed of the scenario (default: the workload's canonical one)")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "qkdsim").is_dir():
        print(f"error: no qkdsim sources at {SRC}", file=sys.stderr)
        return 2
    if args.all == bool(args.workload):
        ap.error("give exactly one of --workload and --all")
    names = sorted(WORKLOADS) if args.all else [args.workload]
    results = {n: run_workload(n, WORKLOADS[n].seed if args.sim_seed is None else args.sim_seed,
                               args.seconds, bool(args.trace))
               for n in names}
    ok = all(r["correct"] for r in results.values())
    if args.all:
        out = HERE / "out" / "results.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")
        print(json.dumps({"correct": ok, "workloads": results}))
    else:
        print(json.dumps(results[args.workload]))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Two ablations of the exclusion cache: switching it off entirely, and
sweeping the public-channel averaging window that sets record lifetimes.
The cache ablation uses a key-scarce link configuration so wasted key
material is visible in the delivery ratio.

The two sweeps differ in their link configuration, so each is written to a
CSV of its own, whose metadata and mean rows cover only its own runs:
``--out cache_and_window.csv`` writes ``cache_and_window_cache.csv`` and
``cache_and_window_window.csv``."""

import argparse
import os
import sys

from qkdsim.experiment import run_sweep
from qkdsim.stats import write_csv

CACHE_SPEC = """
protocol=gpsrq
nodes=30
seeds=6,11,17,23
cache=on,off
duration={duration}
init_key_bytes=500000:5000000
gabriel=on
"""

WINDOW_SPEC = """
protocol=gpsrq
nodes=30
seeds=6,11,17,23
t_avg_window=2,5,7,10
duration={duration}
gabriel=on
"""

SWEEPS = {"cache": CACHE_SPEC, "window": WINDOW_SPEC}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--duration", type=float, default=90.0)
    parser.add_argument("--out", default="cache_and_window.csv",
                        help="base name; each sweep's name is appended to its stem")
    args = parser.parse_args(argv)
    stem, ext = os.path.splitext(args.out)
    for name, spec in SWEEPS.items():
        rows, meta = run_sweep(spec.format(duration=args.duration))
        meta["script"] = f"run_cache_and_window:{name}"
        path = f"{stem}_{name}{ext}"
        with open(path, "w", encoding="ascii") as fh:
            write_csv(fh, rows, metadata=meta)
        print(f"wrote {path} ({len(rows)} runs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Per-run statistics and CSV emission."""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import TextIO

from .config import RunConfig
from .qos import PRIORITY_ORDER

CSV_COLUMNS = [
    "protocol",
    "nodes",
    "seed",
    "beta",
    "alpha",
    "t_avg_window",
    "cache",
    "sent",
    "received",
    "pdr",
    "mean_delay_s",
    "mean_hops",
    "ovh_pkts",
    "ovh_bytes",
    "key_data_bits",
    "key_routing_bits",
    "drop_queue",
    "drop_delay",
    "drop_source",
    "drop_link",
]


def _per_class() -> dict[str, int]:
    return {c.name: 0 for c in PRIORITY_ORDER}


@dataclass(slots=True)
class RunStats:
    """One run's configuration columns and counts; the engine counts into it."""

    protocol: str
    nodes: int
    seed: int
    beta: float
    alpha: float
    t_avg_window: int
    cache: bool
    sent: int = 0
    received: int = 0
    mean_delay_s: float = 0.0
    mean_hops: float = 0.0
    ovh_pkts: int = 0
    ovh_bytes: int = 0
    key_data_bits: float = 0.0
    key_routing_bits: float = 0.0
    drop_queue: int = 0
    drop_delay: int = 0
    drop_source: int = 0
    drop_link: int = 0
    loop2_count: int = 0
    reserve_dips: int = 0
    trace_hash: str = ""
    served_by_class: dict[str, int] = field(default_factory=_per_class)
    dropped_by_class: dict[str, int] = field(default_factory=_per_class)
    error: str = ""

    @classmethod
    def for_run(cls, cfg: RunConfig, nodes: int, **fields) -> RunStats:
        """Stats of a run of ``cfg`` on ``nodes`` nodes, the config columns filled in."""
        return cls(cfg.protocol, nodes, cfg.seed, cfg.beta, cfg.alpha, cfg.t_avg_window,
                   cfg.cache_enabled, **fields)

    @property
    def drops_total(self) -> int:
        return self.drop_queue + self.drop_delay + self.drop_source + self.drop_link

    @property
    def in_flight(self) -> int:
        return self.sent - self.received - self.drops_total

    @property
    def pdr(self) -> float:
        """Delivered fraction of packets whose fate resolved inside the run.

        Packets still in flight at the end are excluded from the denominator
        and reported separately.
        """
        resolved = self.sent - self.in_flight
        if resolved <= 0:
            return 0.0
        return self.received / resolved

    def csv_row(self) -> list[str]:
        return [_cell(getattr(self, c)) for c in CSV_COLUMNS]

    def config_cells(self) -> str:
        """The configuration cells as ``column=value`` pairs, naming the run."""
        return " ".join(f"{c}={_cell(getattr(self, c))}" for c in CSV_COLUMNS[:_KEY_CELLS])


def _cell(value) -> str:
    if isinstance(value, bool):
        return "on" if value else "off"
    return str(value)


# The configuration columns, seed included; a mean row averages the rest.
_KEY_CELLS = CSV_COLUMNS.index("cache") + 1


# Mean rows group the runs by every configuration column but the seed.
_group_key = attrgetter(*(c for c in CSV_COLUMNS[:_KEY_CELLS] if c != "seed"))


def aggregate_means(stats: list[RunStats]) -> list[list[str]]:
    """One mean row per configuration group, with the seed column set to "mean"."""
    groups: dict[tuple, list[RunStats]] = {}
    for s in stats:
        groups.setdefault(_group_key(s), []).append(s)
    rows = []
    for key in sorted(groups, key=repr):
        members = groups[key]
        row = members[0].csv_row()[:_KEY_CELLS]
        row[CSV_COLUMNS.index("seed")] = "mean"
        for column in CSV_COLUMNS[_KEY_CELLS:]:
            row.append(repr(sum(getattr(m, column) for m in members) / len(members)))
        rows.append(row)
    return rows


def write_csv(
    out: TextIO,
    stats: list[RunStats],
    metadata: dict | None = None,
    aggregate: bool = True,
) -> None:
    """Emit one row per run plus aggregated mean rows.

    Metadata and per-run trace hashes go into '#' comment lines so the data
    columns stay fixed.
    """
    if metadata:
        for key in sorted(metadata):
            out.write(f"# {key}={metadata[key]!r}\n")
    for s in stats:
        if s.error:
            out.write(f"# error {s.config_cells()}: {s.error}\n")
        elif s.trace_hash:
            out.write(f"# run protocol={s.protocol} nodes={s.nodes} seed={s.seed} trace_hash={s.trace_hash}\n")
            out.write(f"# classes seed={s.seed} served={s.served_by_class!r} "
                      f"dropped={s.dropped_by_class!r}\n")
    out.write(",".join(CSV_COLUMNS) + "\n")
    good = [s for s in stats if not s.error]
    for s in good:
        out.write(",".join(s.csv_row()) + "\n")
    if aggregate and good:
        for row in aggregate_means(good):
            out.write(",".join(row) + "\n")

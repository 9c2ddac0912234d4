"""Per-node state of the geographic routing protocol.

A node knows the positions of all other nodes, the state of its adjacent
links, and keeps an exclusion cache of circular regions around the run's
one destination that proved unreachable through a specific neighbor, so a
live exclusion blocks its neighbor outright. Greedy forwarding scores each
admissible closer neighbor by a convex blend of link state and normalized
remaining distance; recovery mode walks the planar face by the right-hand
rule until a node closer to the destination than the recovery entry point
is reached.
"""

from __future__ import annotations

from .links import PublicChannelStats
from .metrics import threshold


def cache_ttl(stats: PublicChannelStats) -> float:
    """Validity of a new exclusion record: half the tolerated round duration."""
    return stats.t_average


def greedy_choice(candidates: list[tuple[int, float, float]], beta: float) -> int | None:
    """Pick the neighbor minimizing the forwarding score.

    ``candidates`` holds (neighbor id, link metric, distance to destination)
    triples; distances are normalized by the largest candidate distance so
    beta mixes two [0, 1] quantities, and beta=1 is distance-only. Ties break
    toward the smaller id.
    """
    d_max = 0.0
    for _, _, d in candidates:
        if d > d_max:
            d_max = d
    best_score, best = 0.0, None
    for nbr, r_m, d in candidates:
        score = (1.0 - beta) * r_m + beta * (d / d_max if d_max > 0.0 else 0.0)
        if best is None or score < best_score or (score == best_score and nbr < best):
            best_score, best = score, nbr
    return best


class GpsrqNode:
    """Routing state owned by one node.

    The exclusion cache maps each excluded region, a ``(via, radius)`` key,
    to the time its exclusion expires; it is live while ``expires_at > now``.
    Every region is centred on the run's one destination, so it always
    covers that destination, and ``blocked_until`` holds each neighbor's
    latest expiry over its regions. Re-adding a region keeps the later
    expiry, so the region stays where it was first inserted.
    ``prune_cache`` deletes expired regions and blocks.
    """

    def __init__(self, node_id: int):
        self.node_id = node_id
        self.cache: dict[tuple[int, float], float] = {}
        self.blocked_until: dict[int, float] = {}
        self.l_sent: float | None = None
        self.recv_l: dict[int, float] = {}

    def m_thr(self, neighbor: int, m_max: float) -> float:
        """Threshold view for the link to ``neighbor``; optimistic before exchange."""
        received = self.recv_l.get(neighbor)
        if self.l_sent is None:
            return m_max if received is None else received
        return self.l_sent if received is None else threshold(self.l_sent, received)

    def add_cache(self, via: int, radius: float, now: float, ttl: float) -> None:
        """Exclude ``via`` toward the destination region until ``now + ttl`` or later."""
        region = (via, radius)
        self.cache[region] = max(self.cache.get(region, now), now + ttl)
        self.blocked_until[via] = max(self.blocked_until.get(via, now), now + ttl)

    def cache_blocked(self, via: int, now: float) -> bool:
        """True while a live exclusion of ``via`` exists."""
        return self.blocked_until.get(via, now) > now

    def prune_cache(self, now: float) -> None:
        """Drop every region and every neighbor's block with ``expires_at <= now``."""
        self.cache = {region: t for region, t in self.cache.items() if t > now}
        self.blocked_until = {via: t for via, t in self.blocked_until.items() if t > now}

"""Per-node state of the geographic routing protocol.

A node knows the positions of all other nodes, the state of its adjacent
links, and keeps an exclusion cache of circular destination regions that
proved unreachable through a specific neighbor. Greedy forwarding scores
each admissible closer neighbor by a convex blend of link state and
normalized remaining distance; recovery mode walks the planar face by the
right-hand rule until a node closer to the destination than the recovery
entry point is reached.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .geometry import Position, euclidean_distance
from .links import PublicChannelStats


@dataclass(slots=True, eq=False)
class CacheRecord:
    """Exclusion: do not route via ``via_neighbor`` toward the circle region.

    Records hash by identity and order by expiry time, so a node's cache can
    key them in dicts and keep them directly in its expiry heap.
    """

    via_neighbor: int
    center: Position
    radius: float
    expires_at: float

    def covers(self, dst_pos: Position) -> bool:
        return euclidean_distance(self.center, dst_pos) <= self.radius

    def __lt__(self, other: CacheRecord) -> bool:
        return self.expires_at < other.expires_at


def cache_ttl(stats: PublicChannelStats) -> float:
    """Validity of a new exclusion record: half the tolerated round duration."""
    return stats.t_average


def forwarding_score(r_m: float, normalized_distance: float, beta: float) -> float:
    """Blend of link state and geographic progress; beta=1 is distance-only."""
    if not (0.0 <= beta <= 1.0):
        raise ValueError("beta must lie in [0, 1]")
    return (1.0 - beta) * r_m + beta * normalized_distance


def greedy_choice(candidates: list[tuple[int, float, float]], beta: float) -> int | None:
    """Pick the neighbor minimizing the forwarding score.

    ``candidates`` holds (neighbor id, link metric, distance to destination)
    triples; distances are normalized by the largest candidate distance so
    beta mixes two [0, 1] quantities. Ties break toward the smaller id.
    """
    if not candidates:
        return None
    d_max = max(d for _, _, d in candidates)
    best = min(
        (forwarding_score(r_m, (d / d_max) if d_max > 0.0 else 0.0, beta), nbr)
        for nbr, r_m, d in candidates
    )
    return best[1]


class GpsrqNode:
    """Routing state owned by one node.

    The exclusion cache holds each record three times: ``cache`` in
    insertion order, ``_cache_by_via`` bucketed by the neighbour it excludes,
    and ``_expiry_heap`` as a min-heap on ``expires_at``. A record is live
    while ``expires_at > now``. ``prune_cache`` pops the heap until its head
    is live and removes those records from all three, so a prune with
    nothing expired does no work and a lookup scans one neighbour's bucket.
    Every lookup prunes first; insertion does not, so ``cache`` may still
    hold records that expired since the last lookup or expiry event.
    """

    def __init__(self, node_id: int, beta: float, cache_enabled: bool):
        self.node_id = node_id
        self.beta = beta
        self.cache_enabled = cache_enabled
        self.cache: dict[CacheRecord, None] = {}
        self._cache_by_via: dict[int, dict[CacheRecord, None]] = {}
        self._expiry_heap: list[CacheRecord] = []
        self.l_sent: float | None = None
        self.recv_l: dict[int, float] = {}

    def m_thr(self, neighbor: int, m_max: float) -> float:
        """Threshold view for the link to ``neighbor``; optimistic before exchange."""
        known = [v for v in (self.l_sent, self.recv_l.get(neighbor)) if v is not None]
        return min(known) if known else m_max

    def add_cache(self, via: int, center: Position, radius: float,
                  now: float, ttl: float) -> CacheRecord | None:
        if not self.cache_enabled:
            return None
        record = CacheRecord(via_neighbor=via, center=center, radius=radius,
                             expires_at=now + ttl)
        self.cache[record] = None
        self._cache_by_via.setdefault(via, {})[record] = None
        heapq.heappush(self._expiry_heap, record)
        return record

    def cache_blocked(self, via: int, dst_pos: Position, now: float) -> bool:
        """True when a live record excludes ``via`` for this destination."""
        self.prune_cache(now)
        for r in self._cache_by_via.get(via, ()):
            if r.covers(dst_pos):
                return True
        return False

    def prune_cache(self, now: float) -> None:
        """Drop every record with ``expires_at <= now``."""
        heap = self._expiry_heap
        while heap and heap[0].expires_at <= now:
            record = heapq.heappop(heap)
            del self.cache[record]
            bucket = self._cache_by_via[record.via_neighbor]
            del bucket[record]
            if not bucket:
                del self._cache_by_via[record.via_neighbor]

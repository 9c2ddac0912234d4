"""Planar geometry primitives: distances, ray angles, edge ordering."""

from __future__ import annotations

import math
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True, slots=True)
class Position:
    x: float
    y: float


def euclidean_distance(a: Position, b: Position) -> float:
    return math.hypot(a.x - b.x, a.y - b.y)


def angle_of(origin: Position, target: Position) -> float:
    """Angle of the ray origin->target, normalized to [0, 2*pi)."""
    return math.atan2(target.y - origin.y, target.x - origin.x) % TWO_PI


def ccw_order(
    origin: Position,
    reference_angle: float,
    neighbors: list[tuple[int, Position]],
) -> list[int]:
    """Neighbor ids in counterclockwise order from the reference ray.

    A neighbor lying exactly on the reference ray counts as a full turn away,
    so it comes last (and a lone neighbor on the ray is still returned, the
    return-to-sender case). Angle ties break toward the smaller node id. The
    key depends on each neighbor alone, so the first id of the order that
    lies in any subset is that subset's counterclockwise pick.
    """

    def turn(item: tuple[int, Position]) -> tuple[float, int]:
        node_id, pos = item
        delta = (angle_of(origin, pos) - reference_angle) % TWO_PI
        if delta < 1e-12:
            delta = TWO_PI
        return delta, node_id

    return [node_id for node_id, _ in sorted(neighbors, key=turn)]


def ccw_next_neighbor(
    origin: Position,
    reference_angle: float,
    neighbors: list[tuple[int, Position]],
) -> int:
    """First neighbor of ``ccw_order``: strictly counterclockwise from the ray."""
    if not neighbors:
        raise ValueError("node has no neighbors")
    return ccw_order(origin, reference_angle, neighbors)[0]

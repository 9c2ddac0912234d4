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


def ccw_next_neighbor(
    origin: Position,
    reference_angle: float,
    neighbors: list[tuple[int, Position]],
) -> int:
    """First neighbor strictly counterclockwise from the reference ray.

    A neighbor lying exactly on the reference ray counts as a full turn away,
    so a lone neighbor on the ray is still returned (the return-to-sender
    case). Angle ties break toward the smaller node id.
    """
    if not neighbors:
        raise ValueError("node has no neighbors")

    def turn(item: tuple[int, Position]) -> tuple[float, int]:
        node_id, pos = item
        delta = (angle_of(origin, pos) - reference_angle) % TWO_PI
        if delta < 1e-12:
            delta = TWO_PI
        return delta, node_id

    return min(neighbors, key=turn)[0]


"""Planar conventions: the four flight directions and the arena rectangle.

Forward is +y, Backward is -y, Left is -x, Right is +x.  The coverage
geometry built on these (a robot's field of view swept along a direction)
lives in :mod:`resilient_tracking.worlds`, which computes every coverage
rectangle of a world as one ``(T, 4)`` array.  :class:`Rect` is the arena
type: specs and :class:`~resilient_tracking.simulation.SimConfig` validate
it once, at the boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum


class Direction(str, Enum):
    FORWARD = "forward"
    BACKWARD = "backward"
    LEFT = "left"
    RIGHT = "right"


# Unit displacement of each direction in the ground plane.
UNIT_STEP = {
    Direction.FORWARD: (0.0, 1.0),
    Direction.BACKWARD: (0.0, -1.0),
    Direction.LEFT: (-1.0, 0.0),
    Direction.RIGHT: (1.0, 0.0),
}


@dataclass(frozen=True)
class Rect:
    """Closed axis-aligned rectangle [x_min, x_max] x [y_min, y_max]."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def __post_init__(self):
        if not all(
            math.isfinite(v) for v in (self.x_min, self.x_max, self.y_min, self.y_max)
        ):
            raise ValueError(f"rectangle bounds must be finite: {self}")
        if self.x_min > self.x_max or self.y_min > self.y_max:
            raise ValueError(f"inverted rectangle bounds: {self}")

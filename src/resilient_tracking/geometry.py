"""Planar world model: robots, four-direction trajectories, rectangular coverage.

Conventions
-----------
Forward is +y, Backward is -y, Left is -x, Right is +x.  A robot carries a
square field of view of side ``fov_side`` centered on its position.  Flying a
distance ``fly_length`` along one of the four axis directions sweeps the field
of view into an axis-aligned rectangle of length ``fly_length + fov_side``
along the travel axis and width ``fov_side`` across it; the starting
field-of-view square is the trailing end of the rectangle.  All rectangles are
closed: boundary points count as covered.
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
class Point2:
    """A point in the ground plane, in meters."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"point components must be finite, got ({self.x}, {self.y})")


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

    @property
    def area(self) -> float:
        return (self.x_max - self.x_min) * (self.y_max - self.y_min)

    def contains(self, p: Point2) -> bool:
        """Whether ``p`` lies in the closed rectangle (boundary included)."""
        return self.x_min <= p.x <= self.x_max and self.y_min <= p.y <= self.y_max

    def intersection(self, other: Rect) -> Rect | None:
        """Closed intersection with ``other``, or None when empty.

        Shared edges and corners are nonempty (possibly zero-area)
        intersections because the rectangles are closed.
        """
        x_lo = max(self.x_min, other.x_min)
        x_hi = min(self.x_max, other.x_max)
        y_lo = max(self.y_min, other.y_min)
        y_hi = min(self.y_max, other.y_max)
        if x_lo > x_hi or y_lo > y_hi:
            return None
        return Rect(x_lo, x_hi, y_lo, y_hi)


@dataclass(frozen=True)
class RobotSpec:
    """A robot's position and sensing/motion footprint.

    ``fov_side`` is the side of the square field of view, ``fly_length`` the
    distance flown per planning round.  Both are in meters; the swept coverage
    rectangle has total length ``fly_length + fov_side``.
    """

    robot_id: str
    position: Point2
    fov_side: float
    fly_length: float

    def __post_init__(self):
        if not (self.fov_side > 0 and math.isfinite(self.fov_side)):
            raise ValueError(f"fov_side must be positive, got {self.fov_side}")
        if not (self.fly_length >= 0 and math.isfinite(self.fly_length)):
            raise ValueError(f"fly_length must be nonnegative, got {self.fly_length}")


@dataclass(frozen=True)
class Trajectory:
    """A candidate motion primitive: one robot flying one direction."""

    trajectory_id: str
    robot_id: str
    direction: Direction


def coverage_rect(robot: RobotSpec, direction: Direction) -> Rect:
    """Rectangle swept by ``robot``'s field of view when flying ``direction``.

    The rectangle is the field-of-view square extended by ``fly_length`` in
    the direction of travel, so the square centered on the starting position
    is the trailing end and the robot's final field of view is the leading
    end.
    """
    half = robot.fov_side / 2.0
    dx, dy = UNIT_STEP[direction]
    sx = dx * robot.fly_length
    sy = dy * robot.fly_length
    return Rect(
        robot.position.x - half + min(0.0, sx),
        robot.position.x + half + max(0.0, sx),
        robot.position.y - half + min(0.0, sy),
        robot.position.y + half + max(0.0, sy),
    )


"""Instance builders: four-direction menus, coverage maps, random worlds."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Direction, Point2, Rect, RobotSpec, Trajectory, coverage_rect
from .matroid import PartitionMatroid

# Menu order; also the trajectory index order used for tie-breaking.
DIRECTION_ORDER = (
    Direction.FORWARD,
    Direction.BACKWARD,
    Direction.LEFT,
    Direction.RIGHT,
)


def trajectory_menu(
    robot: RobotSpec, directions: tuple[Direction, ...] = DIRECTION_ORDER
) -> tuple[Trajectory, ...]:
    """The robot's candidate trajectories, one per direction, in menu order."""
    return tuple(
        Trajectory(
            trajectory_id=f"{robot.robot_id}:{d.value}",
            robot_id=robot.robot_id,
            direction=d,
        )
        for d in directions
    )


@dataclass(frozen=True)
class WorldInstance:
    """One planning problem: robots, menus, coverage and targets."""

    robots: tuple[RobotSpec, ...]
    trajectories: tuple[Trajectory, ...]
    rects: dict
    matroid: PartitionMatroid
    targets: tuple[Point2, ...]


def build_instance(
    robots,
    targets,
    directions_by_robot: dict[str, tuple[Direction, ...]] | None = None,
) -> WorldInstance:
    """Assemble menus, coverage rectangles and the matroid for given robots."""
    robots = tuple(robots)
    by_robot = {r.robot_id: r for r in robots}
    if len(by_robot) != len(robots):
        raise ValueError("robot ids must be unique")
    trajectories: list[Trajectory] = []
    rects: dict[str, Rect] = {}
    blocks: dict[str, list[str]] = {}
    for robot in robots:
        directions = DIRECTION_ORDER
        if directions_by_robot is not None:
            directions = directions_by_robot[robot.robot_id]
        menu = trajectory_menu(robot, directions)
        trajectories.extend(menu)
        blocks[robot.robot_id] = [t.trajectory_id for t in menu]
        for t in menu:
            rects[t.trajectory_id] = coverage_rect(robot, t.direction)
    return WorldInstance(
        robots=robots,
        trajectories=tuple(trajectories),
        rects=rects,
        matroid=PartitionMatroid(blocks),
        targets=tuple(Point2(p.x, p.y) for p in targets),
    )


def sample_point(rng: np.random.Generator, arena: Rect) -> Point2:
    return Point2(
        float(rng.uniform(arena.x_min, arena.x_max)),
        float(rng.uniform(arena.y_min, arena.y_max)),
    )


def sample_instance(
    rng: np.random.Generator,
    num_robots: int,
    num_targets: int,
    fov_side: float,
    fly_length: float,
    arena: Rect,
    menu_sizes: tuple[int, ...] = (4,),
) -> WorldInstance:
    """Random world: robots and targets uniform in the arena.

    ``menu_sizes`` holds the allowed per-robot menu sizes (1 to 4); each
    robot draws a size and keeps that many directions in menu order.
    """
    if any(size < 1 or size > len(DIRECTION_ORDER) for size in menu_sizes):
        raise ValueError(f"menu sizes must be within 1..4, got {menu_sizes}")
    robots = []
    directions_by_robot = {}
    for i in range(num_robots):
        robot_id = f"r{i:02d}"
        robots.append(
            RobotSpec(
                robot_id=robot_id,
                position=sample_point(rng, arena),
                fov_side=fov_side,
                fly_length=fly_length,
            )
        )
        size = menu_sizes[int(rng.integers(len(menu_sizes)))]
        if size == len(DIRECTION_ORDER):
            directions_by_robot[robot_id] = DIRECTION_ORDER
        else:
            keep = sorted(rng.choice(len(DIRECTION_ORDER), size=size, replace=False))
            directions_by_robot[robot_id] = tuple(DIRECTION_ORDER[int(i)] for i in keep)
    targets = [sample_point(rng, arena) for _ in range(num_targets)]
    return build_instance(robots, targets, directions_by_robot)


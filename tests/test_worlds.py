"""Instance assembly: menus, id scheme, random world sampling."""

import numpy as np
import pytest

import helpers
from resilient_tracking.geometry import Direction, Point2, RobotSpec, coverage_rect
from resilient_tracking.objectives import CoverageCount
from resilient_tracking.worlds import (
    DIRECTION_ORDER,
    build_instance,
    sample_instance,
    trajectory_menu,
)


def test_menu_ids_and_order():
    robot = RobotSpec("r07", Point2(2.0, 3.0), 3.0, 7.0)
    menu = trajectory_menu(robot)
    assert [t.trajectory_id for t in menu] == [
        "r07:forward", "r07:backward", "r07:left", "r07:right",
    ]
    assert all(t.robot_id == "r07" for t in menu)
    assert tuple(t.direction for t in menu) == DIRECTION_ORDER


def test_build_instance_wires_rects_and_matroid():
    robots = [RobotSpec("r00", Point2(1, 1), 3.0, 7.0), RobotSpec("r01", Point2(8, 8), 3.0, 7.0)]
    inst = build_instance(robots, [Point2(1, 1)])
    assert inst.matroid.robots == ("r00", "r01")
    assert len(inst.trajectories) == 8
    for t in inst.trajectories:
        robot = robots[0] if t.robot_id == "r00" else robots[1]
        assert inst.rects[t.trajectory_id] == coverage_rect(robot, t.direction)
    assert CoverageCount(inst.targets, inst.rects).evaluate({"r00:forward"}) == 1


def test_build_instance_rejects_duplicate_ids():
    robots = [RobotSpec("r00", Point2(1, 1), 3.0, 7.0), RobotSpec("r00", Point2(8, 8), 3.0, 7.0)]
    with pytest.raises(ValueError):
        build_instance(robots, [])


def test_build_instance_with_partial_menus():
    robots = [RobotSpec("r00", Point2(5, 5), 3.0, 7.0)]
    inst = build_instance(robots, [], {"r00": (Direction.LEFT, Direction.RIGHT)})
    assert inst.matroid.ground_set == ("r00:left", "r00:right")


def test_sample_instance_respects_menu_sizes_and_arena():
    rng = np.random.default_rng(0)
    inst = sample_instance(rng, 5, 20, 3.0, 7.0, helpers.ARENA, menu_sizes=(2, 3))
    assert len(inst.robots) == 5
    for robot in inst.robots:
        assert helpers.ARENA.contains(robot.position)
        assert len(inst.matroid.blocks[robot.robot_id]) in (2, 3)
    for target in inst.targets:
        assert helpers.ARENA.contains(target)
    with pytest.raises(ValueError):
        sample_instance(rng, 2, 2, 3.0, 7.0, helpers.ARENA, menu_sizes=(0,))


def test_sample_instance_is_seed_deterministic():
    a = sample_instance(np.random.default_rng(5), 3, 6, 3.0, 7.0, helpers.ARENA)
    b = sample_instance(np.random.default_rng(5), 3, 6, 3.0, 7.0, helpers.ARENA)
    assert a.matroid.ground_set == b.matroid.ground_set
    assert a.targets == b.targets
    assert all(a.rects[k] == b.rects[k] for k in a.rects)

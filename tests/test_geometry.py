"""Coverage-rectangle construction and rectangle primitives."""

import numpy as np
import pytest

from resilient_tracking.geometry import (
    Direction,
    Point2,
    Rect,
    RobotSpec,
    coverage_rect,
)


def test_forward_rect_matches_worked_example():
    robot = RobotSpec("r00", Point2(5.0, 5.0), fov_side=3.0, fly_length=7.0)
    rect = coverage_rect(robot, Direction.FORWARD)
    assert rect == Rect(3.5, 6.5, 3.5, 13.5)


def test_left_rect_matches_worked_example():
    robot = RobotSpec("r00", Point2(5.0, 5.0), fov_side=3.0, fly_length=7.0)
    rect = coverage_rect(robot, Direction.LEFT)
    assert rect == Rect(-3.5, 6.5, 3.5, 6.5)


def test_boundary_point_counts_as_covered():
    rect = Rect(0.0, 1.0, 0.0, 1.0)
    assert rect.contains(Point2(1.0, 1.0))
    assert rect.contains(Point2(0.0, 0.5))
    assert not rect.contains(Point2(1.0 + 1e-12, 0.5))
    assert rect.contains(Point2(0.5, 0.5))


@pytest.mark.parametrize("direction", list(Direction))
def test_rect_dimensions_and_fov_containment(direction):
    rng = np.random.default_rng(20260815)
    for _ in range(200):
        x, y = rng.uniform(-20, 20, size=2)
        fov = float(rng.uniform(0.1, 5.0))
        fly = float(rng.uniform(0.0, 10.0))
        robot = RobotSpec("r00", Point2(float(x), float(y)), fov, fly)
        rect = coverage_rect(robot, direction)
        width = rect.x_max - rect.x_min
        height = rect.y_max - rect.y_min
        if direction in (Direction.FORWARD, Direction.BACKWARD):
            assert width == pytest.approx(fov)
            assert height == pytest.approx(fov + fly)
        else:
            assert height == pytest.approx(fov)
            assert width == pytest.approx(fov + fly)
        assert rect.area == pytest.approx(fov * (fov + fly))
        # the starting field of view is the trailing end of the sweep
        half = fov / 2
        fov_square = Rect(x - half, x + half, y - half, y + half)
        inter = rect.intersection(fov_square)
        assert inter == fov_square


def test_forward_backward_are_mirror_images():
    rng = np.random.default_rng(7)
    for _ in range(50):
        x, y = (float(v) for v in rng.uniform(-5, 5, size=2))
        robot = RobotSpec("r00", Point2(x, y), 2.0, 3.0)
        fwd = coverage_rect(robot, Direction.FORWARD)
        bwd = coverage_rect(robot, Direction.BACKWARD)
        # reflect forward through the horizontal line through the robot
        assert (bwd.x_min, bwd.x_max) == (fwd.x_min, fwd.x_max)
        assert bwd.y_min == pytest.approx(2 * y - fwd.y_max, abs=1e-12)
        assert bwd.y_max == pytest.approx(2 * y - fwd.y_min, abs=1e-12)
        left = coverage_rect(robot, Direction.LEFT)
        right = coverage_rect(robot, Direction.RIGHT)
        assert (right.y_min, right.y_max) == (left.y_min, left.y_max)
        assert right.x_min == pytest.approx(2 * x - left.x_max, abs=1e-12)
        assert right.x_max == pytest.approx(2 * x - left.x_min, abs=1e-12)


def test_zero_fly_length_gives_the_fov_square():
    robot = RobotSpec("r00", Point2(1.0, 2.0), fov_side=4.0, fly_length=0.0)
    for direction in Direction:
        assert coverage_rect(robot, direction) == Rect(-1.0, 3.0, 0.0, 4.0)


def test_intersection_of_disjoint_rects_is_none():
    assert Rect(0, 1, 0, 1).intersection(Rect(2, 3, 0, 1)) is None


def test_intersection_shared_edge_is_degenerate_not_none():
    inter = Rect(0, 1, 0, 1).intersection(Rect(1, 2, 0, 1))
    assert inter == Rect(1, 1, 0, 1)
    assert inter.area == 0.0


def test_intersection_commutes_and_shrinks():
    rng = np.random.default_rng(3)
    for _ in range(200):
        a_lo = rng.uniform(-5, 5, size=2)
        a_sz = rng.uniform(0, 4, size=2)
        b_lo = rng.uniform(-5, 5, size=2)
        b_sz = rng.uniform(0, 4, size=2)
        a = Rect(a_lo[0], a_lo[0] + a_sz[0], a_lo[1], a_lo[1] + a_sz[1])
        b = Rect(b_lo[0], b_lo[0] + b_sz[0], b_lo[1], b_lo[1] + b_sz[1])
        ab = a.intersection(b)
        ba = b.intersection(a)
        assert ab == ba
        if ab is not None:
            assert ab.area <= min(a.area, b.area) + 1e-12
            assert a.intersection(a) == a


def test_invalid_geometry_rejected():
    with pytest.raises(ValueError):
        Rect(1.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        Point2(float("nan"), 0.0)
    with pytest.raises(ValueError):
        Point2(float("inf"), 0.0)
    with pytest.raises(ValueError):
        RobotSpec("r00", Point2(0, 0), fov_side=0.0, fly_length=1.0)
    with pytest.raises(ValueError):
        RobotSpec("r00", Point2(0, 0), fov_side=1.0, fly_length=-0.5)

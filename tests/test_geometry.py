"""Coverage-rectangle construction and rectangle primitives."""

import numpy as np
import pytest

import helpers
from resilient_tracking.geometry import Direction, Rect
from resilient_tracking.simulation import SimConfig
from resilient_tracking.worlds import build_instance


def coverage_rect(x, y, fov_side, fly_length, direction):
    """The one rectangle ``build_instance`` gives a one-direction menu."""
    inst = build_instance([(x, y)], [], fov_side, fly_length, [(direction,)])
    return Rect(*inst.bounds[0].tolist())


def test_forward_rect_matches_worked_example():
    rect = coverage_rect(5.0, 5.0, 3.0, 7.0, Direction.FORWARD)
    assert rect == Rect(3.5, 6.5, 3.5, 13.5)


def test_left_rect_matches_worked_example():
    rect = coverage_rect(5.0, 5.0, 3.0, 7.0, Direction.LEFT)
    assert rect == Rect(-3.5, 6.5, 3.5, 6.5)


def test_boundary_point_counts_as_covered():
    rect = Rect(0.0, 1.0, 0.0, 1.0)
    assert helpers.contains(rect, (1.0, 1.0))
    assert helpers.contains(rect, (0.0, 0.5))
    assert not helpers.contains(rect, (1.0 + 1e-12, 0.5))
    assert helpers.contains(rect, (0.5, 0.5))
    # the objectives count the same closed rectangle
    cov = helpers.coverage([(1.0, 1.0), (0.0, 0.5), (1.0 + 1e-12, 0.5), (0.5, 0.5)], {"a": rect})
    assert cov.evaluate({"a"}) == 3


@pytest.mark.parametrize("direction", list(Direction))
def test_rect_dimensions_and_fov_containment(direction):
    rng = np.random.default_rng(20260815)
    for _ in range(200):
        x, y = rng.uniform(-20, 20, size=2)
        fov = float(rng.uniform(0.1, 5.0))
        fly = float(rng.uniform(0.0, 10.0))
        rect = coverage_rect(float(x), float(y), fov, fly, direction)
        width = rect.x_max - rect.x_min
        height = rect.y_max - rect.y_min
        if direction in (Direction.FORWARD, Direction.BACKWARD):
            assert width == pytest.approx(fov)
            assert height == pytest.approx(fov + fly)
        else:
            assert height == pytest.approx(fov)
            assert width == pytest.approx(fov + fly)
        assert helpers.area(rect) == pytest.approx(fov * (fov + fly))
        # the starting field of view is the trailing end of the sweep
        half = fov / 2
        fov_square = Rect(x - half, x + half, y - half, y + half)
        inter = helpers.intersection(rect, fov_square)
        assert inter == fov_square


def test_forward_backward_are_mirror_images():
    rng = np.random.default_rng(7)
    for _ in range(50):
        x, y = (float(v) for v in rng.uniform(-5, 5, size=2))
        fwd = coverage_rect(x, y, 2.0, 3.0, Direction.FORWARD)
        bwd = coverage_rect(x, y, 2.0, 3.0, Direction.BACKWARD)
        # reflect forward through the horizontal line through the robot
        assert (bwd.x_min, bwd.x_max) == (fwd.x_min, fwd.x_max)
        assert bwd.y_min == pytest.approx(2 * y - fwd.y_max, abs=1e-12)
        assert bwd.y_max == pytest.approx(2 * y - fwd.y_min, abs=1e-12)
        left = coverage_rect(x, y, 2.0, 3.0, Direction.LEFT)
        right = coverage_rect(x, y, 2.0, 3.0, Direction.RIGHT)
        assert (right.y_min, right.y_max) == (left.y_min, left.y_max)
        assert right.x_min == pytest.approx(2 * x - left.x_max, abs=1e-12)
        assert right.x_max == pytest.approx(2 * x - left.x_min, abs=1e-12)


def test_zero_fly_length_gives_the_fov_square():
    for direction in Direction:
        assert coverage_rect(1.0, 2.0, 4.0, 0.0, direction) == Rect(-1.0, 3.0, 0.0, 4.0)


def test_intersection_of_disjoint_rects_is_none():
    assert helpers.intersection(Rect(0, 1, 0, 1), Rect(2, 3, 0, 1)) is None


def test_intersection_shared_edge_is_degenerate_not_none():
    inter = helpers.intersection(Rect(0, 1, 0, 1), Rect(1, 2, 0, 1))
    assert inter == Rect(1, 1, 0, 1)
    assert helpers.area(inter) == 0.0


def test_intersection_commutes_and_shrinks():
    rng = np.random.default_rng(3)
    for _ in range(200):
        a_lo = rng.uniform(-5, 5, size=2)
        a_sz = rng.uniform(0, 4, size=2)
        b_lo = rng.uniform(-5, 5, size=2)
        b_sz = rng.uniform(0, 4, size=2)
        a = Rect(a_lo[0], a_lo[0] + a_sz[0], a_lo[1], a_lo[1] + a_sz[1])
        b = Rect(b_lo[0], b_lo[0] + b_sz[0], b_lo[1], b_lo[1] + b_sz[1])
        ab = helpers.intersection(a, b)
        ba = helpers.intersection(b, a)
        assert ab == ba
        if ab is not None:
            assert helpers.area(ab) <= min(helpers.area(a), helpers.area(b)) + 1e-12
            assert helpers.intersection(a, a) == a


def test_invalid_geometry_rejected():
    with pytest.raises(ValueError):
        Rect(1.0, 0.0, 0.0, 1.0)
    # coordinates and footprints are validated once, at the boundary
    with pytest.raises(ValueError):
        Rect(float("nan"), 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        Rect(0.0, float("inf"), 0.0, 1.0)
    with pytest.raises(ValueError):
        SimConfig(fov_side=0.0, fly_length=1.0)
    with pytest.raises(ValueError):
        SimConfig(fov_side=1.0, fly_length=-0.5)

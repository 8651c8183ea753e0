"""Instance assembly: menus, id scheme, coverage bounds, random world sampling."""

import itertools

import numpy as np
import pytest

import helpers
import oracles
from resilient_tracking.geometry import Direction, Rect
from resilient_tracking.objectives import CoverageCount
from resilient_tracking.worlds import DIRECTION_ORDER, build_instance, sample_instance


def test_menu_ids_and_order():
    inst = build_instance(np.zeros((8, 2)) + (2.0, 3.0), [], 3.0, 7.0)
    assert inst.matroid.blocks["r07"] == (
        "r07:forward", "r07:backward", "r07:left", "r07:right",
    )
    assert inst.ids == inst.matroid.ground_set
    assert inst.ids[28:] == inst.matroid.blocks["r07"]


def test_build_instance_wires_rects_and_matroid():
    positions = [(1.0, 1.0), (8.0, 8.0)]
    inst = build_instance(positions, [(1.0, 1.0)], 3.0, 7.0)
    assert inst.matroid.robots == ("r00", "r01")
    assert inst.bounds.shape == (8, 4)
    for g, tid in enumerate(inst.ids):
        robot, direction = tid.split(":")
        x, y = positions[int(robot[1:])]
        want = oracles.coverage_rect(x, y, 3.0, 7.0, Direction(direction))
        assert tuple(inst.bounds[g]) == want
    cov = CoverageCount(inst.targets, inst.ids, inst.bounds)
    assert cov.evaluate({"r00:forward"}) == 1


def test_bounds_match_the_literal_rectangle_bit_for_bit():
    rng = np.random.default_rng(20260815)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        positions = rng.uniform(-20, 20, size=(n, 2))
        fov, fly = float(rng.uniform(0.1, 5.0)), float(rng.choice([0.0, rng.uniform(0, 10)]))
        inst = build_instance(positions, [], fov, fly)
        want = [
            oracles.coverage_rect(x, y, fov, fly, d)
            for x, y in positions.tolist()
            for d in DIRECTION_ORDER
        ]
        assert inst.bounds.tolist() == [list(row) for row in want]


def test_build_instance_with_partial_menus():
    inst = build_instance([(5.0, 5.0)], [], 3.0, 7.0, [(Direction.LEFT, Direction.RIGHT)])
    assert inst.matroid.ground_set == ("r00:left", "r00:right")
    assert inst.bounds.tolist() == [
        list(oracles.coverage_rect(5.0, 5.0, 3.0, 7.0, d)) for d in (Direction.LEFT, Direction.RIGHT)
    ]


def test_ground_order_past_a_hundred_robots():
    # ids sort as strings, so r100 falls between r10 and r11; every row of
    # the bounds still belongs to the id in the same position
    positions = np.arange(202, dtype=float).reshape(101, 2)
    inst = build_instance(positions, [], 1.0, 0.0)
    assert inst.ids[40:48] == inst.matroid.blocks["r10"] + inst.matroid.blocks["r100"]
    for g, tid in enumerate(inst.ids):
        x, y = positions[int(tid[1 : tid.index(":")])]
        assert tuple(inst.bounds[g]) == (x - 0.5, x + 0.5, y - 0.5, y + 0.5)


def test_sample_instance_respects_menu_sizes_and_arena():
    rng = np.random.default_rng(0)
    inst = sample_instance(rng, 5, 20, 3.0, 7.0, helpers.ARENA, menu_sizes=(2, 3))
    assert inst.matroid.num_robots == 5
    rects = helpers.rects_of(inst)
    for robot, menu in inst.matroid.blocks.items():
        assert len(menu) in (2, 3)
        # any two directions' rectangles meet in the starting field of view,
        # whose center is the robot's position
        square = rects[menu[0]]
        for tid in menu[1:]:
            square = helpers.intersection(square, rects[tid])
        center = ((square.x_min + square.x_max) / 2, (square.y_min + square.y_max) / 2)
        assert square.x_max - square.x_min == pytest.approx(3.0)
        assert square.y_max - square.y_min == pytest.approx(3.0)
        assert helpers.contains(helpers.ARENA, center)
    assert inst.targets.shape == (20, 2)
    for target in inst.targets:
        assert helpers.contains(helpers.ARENA, target)
    with pytest.raises(ValueError):
        sample_instance(rng, 2, 2, 3.0, 7.0, helpers.ARENA, menu_sizes=(0,))


def test_sample_instance_draws_in_the_literal_order():
    # robot by robot: x, y, menu size and, below four, its directions; then
    # the targets' x, y pairs.  The literal loop draws a size from one
    # allowed size too, which leaves the stream as it is
    for menu_sizes, seed in itertools.product([(2, 4), (3,), (4,)], range(20)):
        rng = np.random.default_rng(seed)
        inst = sample_instance(rng, 4, 7, 3.0, 7.0, helpers.ARENA, menu_sizes)
        state = rng.bit_generator.state
        rng = np.random.default_rng(seed)
        want_rects = {}
        for i in range(4):
            x = float(rng.uniform(0.0, 10.0))
            y = float(rng.uniform(0.0, 10.0))
            size = menu_sizes[int(rng.integers(len(menu_sizes)))]
            keep = range(4) if size == 4 else sorted(rng.choice(4, size=size, replace=False))
            for k in keep:
                d = DIRECTION_ORDER[int(k)]
                want_rects[f"r{i:02d}:{d.value}"] = oracles.coverage_rect(x, y, 3.0, 7.0, d)
        want_targets = [
            (float(rng.uniform(0.0, 10.0)), float(rng.uniform(0.0, 10.0))) for _ in range(7)
        ]
        assert inst.ids == tuple(want_rects)
        assert [tuple(row) for row in inst.bounds.tolist()] == list(want_rects.values())
        assert [tuple(t) for t in inst.targets.tolist()] == want_targets
        assert state == rng.bit_generator.state


def test_sample_instance_is_seed_deterministic():
    a = sample_instance(np.random.default_rng(5), 3, 6, 3.0, 7.0, helpers.ARENA)
    b = sample_instance(np.random.default_rng(5), 3, 6, 3.0, 7.0, helpers.ARENA)
    assert a.matroid.ground_set == b.matroid.ground_set
    assert np.array_equal(a.targets, b.targets)
    assert np.array_equal(a.bounds, b.bounds)


def _same_world(got, want):
    assert got.ids == want.ids
    assert got.matroid.blocks == want.matroid.blocks
    assert got.matroid.robots == want.matroid.robots
    assert got.bounds.shape == want.bounds.shape
    assert got.bounds.tobytes() == want.bounds.tobytes()
    assert got.targets.tobytes() == want.targets.tobytes()


@pytest.mark.parametrize("menu_sizes", [(1,), (2, 3), (4,), (1, 2, 3, 4)])
def test_sampled_worlds_match_the_one_pass_builders(menu_sizes):
    # worlds assembled from cached per-robot pieces against the builders
    # that loop over every robot per world; from 100 robots on, ids sort
    # r100 before r11, so the robot order is not the index order
    robot_counts = (1, 2, 3, 5, 11, 100, 120)
    for seed in range(28):
        num_robots = robot_counts[seed % len(robot_counts)]
        shape = (num_robots, 1 + seed % 9, (1.0, 3.0)[seed % 2], (0.0, 3.0, 7.0)[seed % 3])
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = sample_instance(rng, *shape, helpers.ARENA, menu_sizes)
        want = oracles.sample_instance_reference(ref_rng, *shape, helpers.ARENA, menu_sizes)
        _same_world(got, want)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_full_menu_worlds_match_the_one_pass_builder():
    rng = np.random.default_rng(3)
    for num_robots in (1, 4, 6, 101, 120):
        positions = rng.uniform(0.0, 10.0, size=(num_robots, 2))
        targets = rng.uniform(0.0, 10.0, size=(5, 2))
        for fly_length in (0.0, 3.0):
            got = build_instance(positions, targets, 3.0, fly_length)
            want = oracles.build_instance_reference(positions, targets, 3.0, fly_length)
            _same_world(got, want)


# the origin, negative and far-offset origins, and a sliver of an arena: a
# coordinate is low + span * draw, and its round-off must be uniform's
SAMPLER_ARENAS = (
    helpers.ARENA,
    Rect(-7.5, 2.25, -30.0, -1.0),
    Rect(1e6, 1e6 + 3.3, -2e-3, 5.0),
    Rect(-1e-9, 0.0, 123.456, 789.0),
)


@pytest.mark.parametrize("menu_sizes", [(1,), (2, 3), (4,)])
def test_sample_instance_draws_what_uniform_draws(menu_sizes):
    # against the sampler that calls Generator.uniform per coordinate and
    # once for the targets: the same worlds bit for bit, and the generator
    # left where it leaves it, since the bound suite draws alpha next
    for seed in range(60):
        arena = SAMPLER_ARENAS[seed % len(SAMPLER_ARENAS)]
        shape = (1 + seed % 6, 1 + seed % 15, 3.0, 7.0)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = sample_instance(rng, *shape, arena, menu_sizes)
        want = oracles.sample_instance_reference(ref_rng, *shape, arena, menu_sizes)
        _same_world(got, want)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert rng.random() == ref_rng.random()


@pytest.mark.parametrize(
    "arena", [Rect(-1e308, 1e308, 0.0, 10.0), Rect(0.0, 10.0, -1e308, 1e308)]
)
def test_sample_instance_refuses_an_arena_whose_span_overflows(arena):
    # uniform refuses a width or height past the float range, rather than
    # scaling its draws to inf
    for num_robots in (1, 3):
        with pytest.raises(OverflowError, match="high - low range exceeds valid bounds"):
            sample_instance(np.random.default_rng(0), num_robots, 4, 3.0, 7.0, arena)
        with pytest.raises(OverflowError):
            oracles.sample_instance_reference(
                np.random.default_rng(0), num_robots, 4, 3.0, 7.0, arena
            )

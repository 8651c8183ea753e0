"""The bound check's curvature: a coverage sandwich that closes, else the grid.

``CoverageCount.curvature_sandwich`` encloses the least curvature ratio
between a floor that holds on every basis and a ratio attained on a basis
it builds.  When the two meet it names that basis and member, and
``check_performance_bound`` evaluates the curvature on them; otherwise the
bound check scores every basis on the grid, as ``constrained_curvature``
always does.  Either way the value must be the grid's and the literal
oracle's bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import helpers
import oracles
from resilient_tracking import checks
from resilient_tracking.analysis import check_performance_bound, constrained_curvature
from resilient_tracking.errors import DegenerateObjective
from resilient_tracking.geometry import Rect
from resilient_tracking.matroid import PartitionMatroid
from resilient_tracking.objectives import CoverageCount
from resilient_tracking.worlds import sample_instance


def menus_of(matroid):
    return [matroid.blocks[robot] for robot in matroid.robots]


def curvature_at(objective, basis, member):
    """nu on one pair, 1 - (f(B) - f(B - s)) / f(s), evaluated as the bound check does."""
    evaluate = objective.evaluate
    loss = evaluate(basis) - evaluate(basis - {member})
    return 1.0 - loss / evaluate(frozenset({member}))


def bound_suite_worlds(monkeypatch, num_instances, seed):
    """``(matroid, objective, report)`` of every world ``run_bound_suite`` checks."""
    seen = []
    check = checks.check_performance_bound

    def kept(matroid, objective, alpha):
        report = check(matroid, objective, alpha)
        seen.append((matroid, objective, report))
        return report

    with monkeypatch.context() as patch:
        patch.setattr(checks, "check_performance_bound", kept)
        checks.run_bound_suite(num_instances, seed)
    return seen


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_robots=st.integers(1, 5),
    num_targets=st.integers(0, 15),
    fly_length=st.sampled_from([3.0, 7.0]),
    menu_sizes=st.lists(st.integers(1, 4), min_size=1, max_size=4, unique=True),
)
def test_bound_check_curvature_is_the_grid_and_the_oracle_bit_for_bit(
    seed, num_robots, num_targets, fly_length, menu_sizes
):
    rng = np.random.default_rng(seed)
    inst = sample_instance(
        rng, num_robots, num_targets, 3.0, fly_length, helpers.ARENA, tuple(menu_sizes)
    )
    cov = CoverageCount(inst.targets, inst.ids, inst.bounds)
    witness = cov.curvature_sandwich(menus_of(inst.matroid))
    want = oracles.curvature_bruteforce(inst.matroid.blocks, cov.evaluate)
    if want is None:
        assert witness is None
        with pytest.raises(DegenerateObjective):
            constrained_curvature(inst.matroid, cov)
        return
    # at alpha 0 a world with a nonzero singleton is never degenerate
    report = check_performance_bound(inst.matroid, cov, 0)
    assert repr(report.curvature) == repr(constrained_curvature(inst.matroid, cov).value)
    assert repr(report.curvature) == repr(want)
    if witness is not None:
        basis, member = witness
        assert inst.matroid.is_basis(basis) and member in basis
        assert repr(curvature_at(cov, basis, member)) == repr(want)


def fallback_world():
    # found by search: the sandwich's floor and attained ratios do not meet
    targets = [(5, 4), (0, 2), (5, 1), (6, 4), (4, 0), (4, 5), (0, 6)]
    rects = {
        "a0": Rect(0, 4, 0, 6),
        "b0": Rect(0, 5, 1, 6),
        "b1": Rect(4, 5, 0, 1),
        "c0": Rect(0, 6, 2, 4),
    }
    matroid = PartitionMatroid({"a": ["a0"], "b": ["b0", "b1"], "c": ["c0"]})
    return matroid, helpers.coverage(targets, rects)


def test_an_open_sandwich_falls_back_to_the_grid():
    matroid, cov = fallback_world()
    assert cov.curvature_sandwich(menus_of(matroid)) is None
    grid = constrained_curvature(matroid, cov).value
    assert grid == 0.8
    assert repr(grid) == repr(oracles.curvature_bruteforce(matroid.blocks, cov.evaluate))
    for alpha in range(matroid.num_robots):
        assert check_performance_bound(matroid, cov, alpha).curvature == 0.8


@pytest.mark.parametrize("seed", [20260815, 1])
def test_the_sandwich_closes_on_every_bound_suite_world(monkeypatch, seed):
    # every world with a nonzero singleton, degenerate reports included;
    # 1,000 of them, since a floor whose union holds robot r's own menu
    # first fails to close at world 259 of seed 20260815
    worlds = bound_suite_worlds(monkeypatch, 1000, seed)
    defined = [
        (m, cov, r) for m, cov, r in worlds if any(cov.evaluate({tid}) for tid in m.ground_set)
    ]
    assert len(defined) > 950
    for matroid, cov, report in defined:
        witness = cov.curvature_sandwich(menus_of(matroid))
        assert witness is not None
        if not report.degenerate:
            assert curvature_at(cov, *witness) == report.curvature


def test_zero_singletons_are_skipped_by_the_sandwich():
    # "b1" covers nothing: its ratio is undefined and must not be the witness
    targets = [(1, 1), (2, 2), (8, 8)]
    rects = {
        "a0": Rect(0, 3, 0, 3),
        "b0": Rect(1.5, 9, 1.5, 9),
        "b1": Rect(5, 6, 0, 1),
    }
    matroid = PartitionMatroid({"a": ["a0"], "b": ["b0", "b1"]})
    cov = helpers.coverage(targets, rects)
    basis, member = cov.curvature_sandwich(menus_of(matroid))
    report = constrained_curvature(matroid, cov)
    assert report.skipped_zero_elements == ("b1",)
    assert member != "b1"
    assert curvature_at(cov, basis, member) == report.value == 0.5
    assert check_performance_bound(matroid, cov, 0).curvature == 0.5


def test_all_zero_singletons_are_degenerate_on_both_paths():
    # no target is covered: the sandwich certifies nothing, f* = 0
    cov = helpers.coverage([(50, 50)], {"a0": Rect(0, 1, 0, 1), "b0": Rect(2, 3, 2, 3)})
    matroid = PartitionMatroid({"a": ["a0"], "b": ["b0"]})
    assert cov.curvature_sandwich(menus_of(matroid)) is None
    with pytest.raises(DegenerateObjective):
        constrained_curvature(matroid, cov)
    report = check_performance_bound(matroid, cov, 0)
    assert report.degenerate and report.curvature is None
    # zero singletons but a positive f*: the bound check's curvature refuses too
    pairs = helpers.SetFunction(lambda members: float(len(members) >= 2))
    with pytest.raises(DegenerateObjective):
        check_performance_bound(matroid, pairs, 0)


def test_objectives_without_a_certificate_answer_none():
    matroid, cov = fallback_world()
    assert helpers.SetFunction(cov.evaluate).curvature_sandwich(menus_of(matroid)) is None
    assert helpers.CountingOracle(cov).curvature_sandwich(menus_of(matroid)) is None


@pytest.mark.parametrize("num_robots", [25, 50])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_the_curvature_is_one_at_sweep_density_at_scale(num_robots, seed):
    # sweep density: 5n targets in a square of side 10 sqrt(n/6), fov 3,
    # flight 7, full menus; the grid would hold 4**n bases.  nu == 1, so the
    # guarantee there is h(n, alpha) / 2.
    side = 10.0 * math.sqrt(num_robots / 6)
    rng = np.random.default_rng(seed)
    inst = sample_instance(rng, num_robots, 5 * num_robots, 3.0, 7.0, Rect(0.0, side, 0.0, side))
    cov = CoverageCount(inst.targets, inst.ids, inst.bounds)
    basis, member = cov.curvature_sandwich(menus_of(inst.matroid))
    assert inst.matroid.is_basis(basis) and member in basis
    assert curvature_at(cov, basis, member) == 1.0

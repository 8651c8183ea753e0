"""Curvature, cardinality factor, and the worst-case performance bound."""

from fractions import Fraction

import numpy as np
import pytest

import helpers
import oracles
from resilient_tracking.analysis import (
    check_performance_bound,
    constrained_curvature,
    h_bound,
)
from resilient_tracking.checks import run_bound_suite
from resilient_tracking.errors import DegenerateObjective
from resilient_tracking.matroid import PartitionMatroid
from resilient_tracking.objectives import CoverageCount
from resilient_tracking.worlds import build_instance, sample_instance


def far_apart_world():
    # one target at each robot center, robots 100 apart: coverage is additive
    positions = [(100.0 * i, 0.0) for i in range(3)]
    return build_instance(positions, positions, 3.0, 3.0)


def duplicated_world():
    # two robots flying the same menus over the same targets
    return build_instance([(5.0, 5.0), (5.0, 5.0)], [(5.0, 5.0), (5.5, 5.0)], 3.0, 3.0)


def test_curvature_zero_for_additive_coverage():
    inst = far_apart_world()
    report = constrained_curvature(inst.matroid, CoverageCount(inst.targets, inst.ids, inst.bounds))
    assert report.value == 0.0


def test_curvature_one_for_duplicated_robots():
    inst = duplicated_world()
    report = constrained_curvature(inst.matroid, CoverageCount(inst.targets, inst.ids, inst.bounds))
    assert report.value == 1.0
    # the witness element contributes nothing on top of its twin
    f = CoverageCount(inst.targets, inst.ids, inst.bounds).evaluate
    s = report.witness_set
    e = report.witness_element
    assert f(s) - f(s - {e}) == 0


def test_curvature_matches_bruteforce_oracle():
    rng = np.random.default_rng(20260815)
    for _ in range(15):
        inst = sample_instance(rng, 3, 10, 3.0, 5.0, helpers.ARENA, menu_sizes=(2, 3))
        cov = CoverageCount(inst.targets, inst.ids, inst.bounds)
        want = oracles.curvature_bruteforce(inst.matroid.blocks, cov.evaluate)
        if want is None:
            with pytest.raises(DegenerateObjective):
                constrained_curvature(inst.matroid, cov)
            continue
        got = constrained_curvature(inst.matroid, cov)
        assert got.value == pytest.approx(want, abs=1e-12)
        assert 0.0 <= got.value <= 1.0


def test_zero_singletons_are_skipped_not_fatal():
    # element "useless" covers nothing; ratios must ignore it
    f = helpers.SetCover({"good": {"t1"}, "useless": set(), "other": {"t2"}})
    matroid = PartitionMatroid({"r0": ["good", "useless"], "r1": ["other"]})
    report = constrained_curvature(matroid, f)
    assert report.skipped_zero_elements == ("useless",)
    assert report.value == 0.0  # remaining pairs are additive


def test_all_zero_objective_is_degenerate():
    matroid = PartitionMatroid({"r0": ["a"], "r1": ["b"]})
    with pytest.raises(DegenerateObjective):
        constrained_curvature(matroid, helpers.SetFunction(lambda s: 0.0))


def test_h_bound_values():
    assert h_bound(10, 9) == 1.0
    assert h_bound(1, 0) == 1.0
    for n in range(1, 15):
        assert h_bound(n, 0) == 1.0
        assert h_bound(n, n - 1) == 1.0
    assert h_bound(4, 1) == pytest.approx(0.5)
    assert h_bound(4, 2) == pytest.approx(0.5)
    assert h_bound(5, 2) == pytest.approx(1.0 / 3.0)
    assert h_bound(10, 5) == pytest.approx(0.2)


def test_h_bound_exact_as_fractions():
    for n in range(1, 21):
        for alpha in range(0, n):
            want = max(Fraction(1, 1 + alpha), Fraction(1, n - alpha))
            assert h_bound(n, alpha) == pytest.approx(float(want), abs=1e-15)


def test_h_bound_divides_integers_exactly_past_the_float_range():
    # integer true division gives the floats of float division below 2**53
    for n in range(1, 201):
        for alpha in range(n):
            assert h_bound(n, alpha) == max(1.0 / (1 + alpha), 1.0 / (n - alpha))
    assert h_bound(10**400, 1) == 0.5
    assert h_bound(10**400, 10**400 - 1) == 1.0
    assert h_bound(10**400, 10**399) == 0.0


def test_h_bound_domain_errors():
    for n, alpha in ((0, 0), (3, -1), (3, 3), (3, 7), (-1, 0)):
        with pytest.raises(ValueError):
            h_bound(n, alpha)


def test_bound_holds_on_random_instances():
    rng = np.random.default_rng(101)
    for _ in range(25):
        inst = sample_instance(rng, int(rng.integers(2, 5)), 10, 3.0, 7.0, helpers.ARENA, menu_sizes=(2,))
        cov = CoverageCount(inst.targets, inst.ids, inst.bounds)
        alpha = int(rng.integers(0, inst.matroid.num_robots))
        report = check_performance_bound(inst.matroid, cov, alpha)
        assert report.satisfied
        if not report.degenerate:
            assert report.surviving_value >= report.guarantee - 1e-9
            assert report.guarantee == pytest.approx(
                0.5 * max(1.0 - report.curvature, report.cardinality_factor) * report.optimal_value
            )


def test_bound_report_cross_checked_against_oracles():
    rng = np.random.default_rng(31)
    inst = sample_instance(rng, 3, 8, 3.0, 7.0, helpers.ARENA, menu_sizes=(2,))
    cov = CoverageCount(inst.targets, inst.ids, inst.bounds)
    report = check_performance_bound(inst.matroid, cov, 1)
    want_opt, _ = oracles.maxmin_bruteforce(inst.matroid.blocks, cov.evaluate, 1)
    want_nu = oracles.curvature_bruteforce(inst.matroid.blocks, cov.evaluate)
    assert report.optimal_value == pytest.approx(want_opt)
    assert report.curvature == pytest.approx(want_nu)
    want_surv, _ = oracles.attack_bruteforce(cov.evaluate, report.selected, 1)
    assert report.surviving_value == pytest.approx(want_surv)


def test_bound_degenerate_when_optimum_is_zero():
    # no targets: every value is zero
    inst = build_instance([(1, 1), (9, 9)], [], 3.0, 3.0)
    report = check_performance_bound(inst.matroid, CoverageCount(inst.targets, inst.ids, inst.bounds), 1)
    assert report.degenerate
    assert report.satisfied
    assert report.guarantee == 0.0
    assert report.curvature is None


def test_bound_degenerate_when_alpha_equals_robots():
    inst = far_apart_world()
    report = check_performance_bound(inst.matroid, CoverageCount(inst.targets, inst.ids, inst.bounds), inst.matroid.num_robots)
    assert report.degenerate
    assert report.satisfied


def test_a_perturbed_evaluate_moves_a_bound_report(monkeypatch):
    # the bench's perturb control reaches bound-check only through the
    # curvature's evaluate calls; if none went through evaluate, the control
    # could no longer fail
    def values(reports):
        return [
            (r.surviving_value, r.optimal_value, r.curvature or 0.0, r.guarantee)
            for r in reports
        ]

    clean = values(run_bound_suite(100, 1))
    evaluate = CoverageCount.evaluate
    monkeypatch.setattr(
        CoverageCount, "evaluate", lambda objective, members: evaluate(objective, members) + 1e-6
    )
    perturbed = values(run_bound_suite(100, 1))
    moved = max(abs(a - b) for got, want in zip(perturbed, clean) for a, b in zip(got, want))
    assert moved > 1e-9

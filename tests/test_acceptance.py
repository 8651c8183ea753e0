"""Acceptance suite: one test and one printed verdict line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
as they print; without ``-s`` pytest shows them for failing tests only.

Every expected value here is computed from the independent oracles in
``oracles.py`` (exhaustive enumeration, Monte Carlo) or worked out by hand,
never from the code under test.

Criterion 9b is expected to fail: the claimed minimum 2/(n+2) of the
cardinality factor over alpha is not attainable for any even n (see the
assertion message in the test).  It is kept verbatim rather than weakened.
"""

import json
import math
import time
from fractions import Fraction
from statistics import mean

import numpy as np
import pytest

import helpers
import oracles
from resilient_tracking.analysis import constrained_curvature, h_bound
from resilient_tracking.checks import run_property_suite
from resilient_tracking.experiments import run_suite, spec_from_dict, summarize_rows
from resilient_tracking.geometry import Rect
from resilient_tracking.objectives import CoverageCount
from resilient_tracking.planners import plan_greedy, plan_resilient
from resilient_tracking.simulation import SimConfig, run_rounds
from resilient_tracking.worlds import build_instance, sample_instance

MASTER_SEED = 20260815


def verdict(num: str, ok: bool, detail: str) -> str:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


def test_criterion_01_resilience_bound_holds_on_random_instances():
    # surviving value of the planner's selection must reach
    # max(1 - curvature, cardinality factor) / 2 of the exhaustive optimum;
    # optimum, curvature and the attack all come from the test-side oracles
    rng = np.random.default_rng(MASTER_SEED)
    t0 = time.perf_counter()
    violations = []
    for _ in range(200):
        num_robots = int(rng.integers(2, 6))
        inst = sample_instance(
            rng, num_robots, int(rng.integers(1, 16)), 3.0, 7.0,
            helpers.ARENA, menu_sizes=(2, 3),
        )
        cov = CoverageCount(inst.targets, inst.ids, inst.bounds)
        alpha = int(rng.integers(0, num_robots))

        selected = plan_resilient(inst.matroid, cov, alpha).selected
        survived, _ = oracles.attack_bruteforce(cov.evaluate, selected, alpha)
        optimum, _ = oracles.maxmin_bruteforce(inst.matroid.blocks, cov.evaluate, alpha)
        if optimum == 0:
            continue
        nu = oracles.curvature_bruteforce(inst.matroid.blocks, cov.evaluate)
        h = float(max(Fraction(1, 1 + alpha), Fraction(1, num_robots - alpha)))
        guarantee = 0.5 * max(1.0 - nu, h) * optimum
        if survived < guarantee - 1e-9:
            violations.append((num_robots, alpha, survived, guarantee))
    elapsed = time.perf_counter() - t0
    ok = not violations and elapsed < 60.0
    line = verdict(
        "01", ok,
        f"bound violated on {len(violations)}/200 instances, {elapsed:.1f}s",
    )
    assert ok, line + f"; first violations: {violations[:3]}"


def test_criterion_02_alpha_zero_reduces_to_greedy():
    rng = np.random.default_rng(MASTER_SEED + 1)
    mismatches = 0
    for _ in range(100):
        inst = sample_instance(
            rng, int(rng.integers(2, 6)), int(rng.integers(1, 16)), 3.0, 7.0,
            helpers.ARENA, menu_sizes=(2, 3, 4),
        )
        cov = CoverageCount(inst.targets, inst.ids, inst.bounds)
        if plan_resilient(inst.matroid, cov, 0).selected != plan_greedy(inst.matroid, cov).selected:
            mismatches += 1
    ok = mismatches == 0
    line = verdict("02", ok, f"{mismatches}/100 instances differ from plain greedy at alpha=0")
    assert ok, line


@pytest.fixture(scope="module")
def scale_rows():
    # publication-scale one-step suite: 6 robots, 4-way menus, 30 targets,
    # alpha 3, 30 trials, all three planners and all three real attackers
    spec = spec_from_dict({
        "protocol": "one-step",
        "num_robots": 6,
        "fov_side": 3.0,
        "fly_length": 7.0,
        "arena": [0, 10, 0, 10],
        "num_targets": [30],
        "alphas": [3],
        "trials": 30,
        "planners": ["resilient", "greedy", "brute-force"],
        "attackers": ["optimal", "greedy", "random"],
        "master_seed": MASTER_SEED,
    })
    return run_suite(spec)


def test_criterion_03_outperforms_greedy_and_nears_optimal_at_scale(scale_rows):
    summary, _ = summarize_rows(scale_rows)
    means = {
        (s.planner, s.attacker): s.mean_attacked
        for s in summary
    }
    res = means[("resilient", "optimal")]
    grd = means[("greedy", "optimal")]
    opt = means[("brute-force", "optimal")]
    ok = res >= grd and res >= 0.85 * opt
    line = verdict(
        "03", ok,
        f"attacked means: resilient={res:.3f} greedy={grd:.3f} "
        f"exhaustive={opt:.3f} (ratio {res / opt:.3f}, need >= 0.85)",
    )
    assert ok, line


def test_criterion_04_attack_strength_ordering(scale_rows):
    by_cell = {}
    for row in scale_rows:
        by_cell.setdefault((row.planner, row.trial), {})[row.attacker] = row.f_attacked
    bad = 0
    for cell in by_cell.values():
        if cell["optimal"] > cell["greedy"] + 1e-9 or cell["optimal"] > cell["random"] + 1e-9:
            bad += 1
    ok = bad == 0
    line = verdict(
        "04", ok,
        f"exhaustive attack weakest on {bad}/{len(by_cell)} planner-trial cells",
    )
    assert ok, line


def test_criterion_05_objective_properties_and_negative_controls():
    result = run_property_suite(trials=1000, rng_seed=MASTER_SEED)
    ok = (
        result.coverage_monotone == 0
        and result.coverage_submodular == 0
        and result.expected_monotone == 0
        and result.expected_submodular == 0
        and result.control_monotone > 0
        and result.control_submodular > 0
    )
    line = verdict(
        "05", ok,
        "violations: coverage "
        f"{result.coverage_monotone}+{result.coverage_submodular}, detections "
        f"{result.expected_monotone}+{result.expected_submodular}; controls "
        f"{result.control_monotone}/{result.control_submodular} (want > 0)",
    )
    assert ok, line


def test_criterion_06_expected_detections_match_monte_carlo():
    rng = np.random.default_rng(MASTER_SEED + 2)
    pool = {
        "a": Rect(0.0, 2.0, 0.0, 2.0),
        "b": Rect(1.0, 3.0, 0.5, 2.5),
        "c": Rect(2.5, 4.5, 1.0, 3.0),
        "d": Rect(0.5, 1.5, 2.0, 4.0),
    }
    keys = sorted(pool)
    worst = 0.0
    misses = 0
    for _ in range(50):
        belief = (
            float(rng.uniform(0.0, 4.0)),
            float(rng.uniform(0.0, 4.0)),
            float(rng.uniform(0.4, 1.5)),
            float(rng.uniform(0.4, 1.5)),
        )
        chosen = [keys[int(i)] for i in rng.choice(len(keys), size=int(rng.integers(1, 4)), replace=False)]
        exact = helpers.expected([belief], pool).evaluate(chosen)
        p_hat, _ = oracles.mc_union_mass(rng, *belief, [pool[k] for k in chosen], 100_000)
        # binomial standard error at the exact value; the empirical one
        # collapses to zero when every sample lands on the same side
        se = math.sqrt(max(exact * (1.0 - exact), 0.0) / 100_000)
        gap = abs(exact - p_hat)
        worst = max(worst, gap / max(se, 1e-12))
        if gap > 4 * se:
            misses += 1
    ok = misses == 0
    line = verdict(
        "06", ok,
        f"{misses}/50 cases beyond 4x standard error (worst {worst:.2f} SEs)",
    )
    assert ok, line


def test_criterion_07_planner_call_budget(scale_rows):
    n = 24  # 6 robots x 4 directions
    budget = 2 * n * n + n
    over = [
        row.oracle_calls
        for row in scale_rows
        if row.planner == "resilient" and row.oracle_calls > budget
    ]
    # independent audit: a counting wrapper must agree with the reported tally
    rng = np.random.default_rng(MASTER_SEED + 3)
    inst = sample_instance(rng, 6, 30, 3.0, 7.0, helpers.ARENA)
    counter = helpers.CountingOracle(CoverageCount(inst.targets, inst.ids, inst.bounds))
    result = plan_resilient(inst.matroid, counter, 3)
    audit_ok = result.oracle_calls == counter.eval_count and result.oracle_calls <= budget
    ok = not over and audit_ok
    line = verdict(
        "07", ok,
        f"budget {budget}: {len(over)} rows over; audit {result.oracle_calls} calls "
        f"reported vs {counter.eval_count} counted",
    )
    assert ok, line


def test_criterion_08_curvature_endpoints_exact():
    # additive world: each robot has a private target at its own position,
    # no menus overlap, so removing an element always costs its full value
    far_robots = [(100.0 * i, 0.0) for i in range(3)]
    far = build_instance(far_robots, far_robots, 3.0, 3.0)
    nu_additive = constrained_curvature(far.matroid, CoverageCount(far.targets, far.ids, far.bounds)).value

    # duplicated world: two robots share position and menus, so either one
    # is fully redundant given the other
    twins = [(5.0, 5.0), (5.0, 5.0)]
    dup = build_instance(twins, [(5.0, 5.0)], 3.0, 3.0)
    nu_redundant = constrained_curvature(dup.matroid, CoverageCount(dup.targets, dup.ids, dup.bounds)).value

    ok = nu_additive == 0.0 and nu_redundant == 1.0
    line = verdict(
        "08", ok,
        f"additive world curvature {nu_additive} (want exactly 0), "
        f"duplicated world {nu_redundant} (want exactly 1)",
    )
    assert ok, line


def test_criterion_09a_cardinality_factor_is_one_without_attacks():
    bad = [n for n in range(1, 21) if h_bound(n, 0) != 1.0]
    ok = not bad
    line = verdict("09a", ok, f"h(n, 0) == 1 exactly for n in 1..20; failures: {bad}")
    assert ok, line


def test_criterion_09b_stated_even_n_minimum_of_cardinality_factor():
    # Stated: for even n the minimum of h(n, alpha) over alpha is 2/(n+2),
    # attained at alpha = n/2.  Checked verbatim in exact arithmetic.
    mismatches = []
    for n in range(2, 21, 2):
        values = {
            alpha: max(Fraction(1, 1 + alpha), Fraction(1, n - alpha))
            for alpha in range(0, n)
        }
        attained = min(values.values())
        stated = Fraction(2, n + 2)
        if attained != stated or values[n // 2] != stated:
            mismatches.append((n, attained, stated))
    ok = not mismatches
    line = verdict(
        "09b", ok,
        f"{len(mismatches)}/10 even n disagree with the stated minimum 2/(n+2)",
    )
    assert ok, (
        line
        + "; the stated minimum is unattainable: at alpha = n/2 the factor is "
        "max(1/(1+n/2), 1/(n-n/2)) = 2/(n+2) vs 2/n, and 2/n > 2/(n+2), so the "
        "true minimum over alpha is 2/n for even n (for n=2 it is 1 at every "
        f"alpha); first mismatches: {mismatches[:3]}"
    )


def test_criterion_10_closed_loop_resilience_and_determinism():
    rates = {}
    for planner in ("resilient", "greedy"):
        config = SimConfig(
            num_robots=4, num_targets=30, alpha=2, rounds=50,
            planner=planner, attackers=("optimal",), rng_seed=MASTER_SEED,
        )
        records = run_rounds(config)["optimal"]
        rates[planner] = mean(r.attack_rate for r in records)
        if planner == "resilient":
            rerun = run_rounds(config)["optimal"]
            deterministic = json.dumps([helpers.record_dict(r) for r in records]) == json.dumps(
                [helpers.record_dict(r) for r in rerun]
            )
    ok = rates["resilient"] <= rates["greedy"] and deterministic
    line = verdict(
        "10", ok,
        f"mean attack rate resilient={rates['resilient']:.3f} <= "
        f"greedy={rates['greedy']:.3f}; rerun identical: {deterministic}",
    )
    assert ok, line

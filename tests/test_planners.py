"""Planner behavior: bait phase, greedy fill, brute force, call budgets."""

import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import helpers
import oracles
from resilient_tracking import experiments, planners, simulation
from resilient_tracking.adversary import attack_greedy, attack_optimal, attack_random
from resilient_tracking.analysis import check_performance_bound, h_bound
from resilient_tracking.errors import SpecError
from resilient_tracking.matroid import PartitionMatroid
from resilient_tracking.objectives import CoverageCount
from resilient_tracking.planners import (
    PLANNER_NAMES,
    get_planner,
    plan_bruteforce_maxmin,
    plan_greedy,
    plan_random,
    plan_resilient,
)
from resilient_tracking.worlds import sample_instance


def test_bait_phase_hand_trace():
    matroid, objective, expected = helpers.bait_trace_instance()
    result = plan_resilient(matroid, objective, alpha=1)
    assert set(result.trace.bait) == expected["bait"]
    assert result.selected == expected["selected"]
    assert objective.evaluate(result.selected) == expected["value"]


def test_bait_size_never_exceeds_alpha():
    rng = np.random.default_rng(7)
    for _ in range(30):
        inst = sample_instance(rng, int(rng.integers(2, 6)), 12, 3.0, 7.0, helpers.ARENA)
        cov = CoverageCount(inst.targets, inst.ids, inst.bounds)
        alpha = int(rng.integers(0, inst.matroid.num_robots + 1))
        result = plan_resilient(inst.matroid, cov, alpha)
        assert len(result.trace.bait) <= alpha
        assert inst.matroid.is_basis(result.selected)
        assert set(result.trace.bait) <= set(result.selected)


def test_alpha_zero_matches_plain_greedy():
    rng = np.random.default_rng(11)
    for _ in range(50):
        inst = sample_instance(
            rng, int(rng.integers(2, 5)), int(rng.integers(5, 20)), 3.0, 7.0, helpers.ARENA
        )
        cov = CoverageCount(inst.targets, inst.ids, inst.bounds)
        a = plan_resilient(inst.matroid, cov, 0)
        b = plan_greedy(inst.matroid, cov)
        assert a.selected == b.selected
        assert a.trace.bait == ()


def test_resilient_is_deterministic():
    rng = np.random.default_rng(13)
    inst = sample_instance(rng, 4, 15, 3.0, 7.0, helpers.ARENA)
    cov = CoverageCount(inst.targets, inst.ids, inst.bounds)
    first = plan_resilient(inst.matroid, cov, 2)
    for _ in range(5):
        again = plan_resilient(inst.matroid, cov, 2)
        assert again.selected == first.selected
        assert again.trace == first.trace


def test_ties_break_by_canonical_ground_order():
    # identical singleton values everywhere: bait and fill must follow menu order
    matroid = PartitionMatroid({"r0": ["r0:a", "r0:b"], "r1": ["r1:a", "r1:b"]})
    flat = helpers.SetFunction(lambda s: float(min(len(set(s)), 1)))
    result = plan_resilient(matroid, flat, 1)
    assert result.trace.bait == ("r0:a",)
    assert result.selected == frozenset({"r0:a", "r1:a"})


def test_oracle_call_budget_and_audit():
    rng = np.random.default_rng(17)
    inst = sample_instance(rng, 6, 30, 3.0, 7.0, helpers.ARENA)
    cov = CoverageCount(inst.targets, inst.ids, inst.bounds)
    counting = helpers.CountingOracle(cov)
    before = counting.eval_count
    result = plan_resilient(inst.matroid, counting, 3)
    delta = counting.eval_count - before
    n = len(inst.matroid.ground_set)
    assert n == 24
    assert result.oracle_calls == delta
    assert result.oracle_calls <= 2 * n * n + n

    before = counting.eval_count
    result = plan_greedy(inst.matroid, counting)
    assert result.oracle_calls == counting.eval_count - before
    assert result.oracle_calls <= 2 * n * n + n

    # brute force reports the logical count of one optimal attack per basis
    small = sample_instance(rng, 4, 12, 3.0, 7.0, helpers.ARENA)
    cov = CoverageCount(small.targets, small.ids, small.bounds)
    for objective in (cov, helpers.SetFunction(cov.evaluate)):
        result = plan_bruteforce_maxmin(small.matroid, objective, 2)
        assert result.oracle_calls == 4**4 * 6


def test_oracle_calls_follow_the_closed_form_on_full_menus():
    # |T| singletons, then the fill's rounds after its first, which reads
    # them, over the k = n - alpha open robots: 4(k-1) + 4(k-2) + ... + 4
    rng = np.random.default_rng(17)
    inst = sample_instance(rng, 6, 30, 3.0, 7.0, helpers.ARENA)
    beliefs = [(x, y, 1.0, 1.0) for x, y in inst.targets.tolist()]
    n = inst.matroid.num_robots
    for objective in (
        CoverageCount(inst.targets, inst.ids, inst.bounds),
        helpers.expected(beliefs, helpers.rects_of(inst)),
    ):
        calls = [plan_resilient(inst.matroid, objective, alpha).oracle_calls for alpha in range(n + 1)]
        assert calls == [4 * n + 4 * (n - a) * (n - a - 1) // 2 for a in range(n + 1)]
        assert calls[:4] == [84, 64, 48, 36]
        greedy = plan_greedy(inst.matroid, objective)
        assert greedy.oracle_calls == calls[0]
        assert greedy.selected == plan_resilient(inst.matroid, objective, 0).selected


@st.composite
def near_tie_layouts(draw):
    """(matroid, targets, rects) with exact value ties common.

    Rectangles come from a small pool of lattice boxes and targets sit on
    the same lattice, so duplicate rectangles, shared edges and targets on
    edges are frequent; ``far`` moves every target out of reach.
    """
    pool = draw(st.lists(helpers.boxes(), min_size=1, max_size=4))
    menu_sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    blocks, rects = {}, {}
    for r, size in enumerate(menu_sizes):
        blocks[f"r{r}"] = [f"r{r}:{k}" for k in range(size)]
        for tid in blocks[f"r{r}"]:
            rects[tid] = draw(st.sampled_from(pool))
    far = draw(st.sampled_from([0.0, 0.0, 0.0, 1000.0]))
    points = draw(st.lists(st.tuples(helpers.lattice, helpers.lattice), max_size=8))
    targets = [(x + far, y + far) for x, y in points]
    return PartitionMatroid(blocks), targets, rects


@st.composite
def sampled_worlds(draw):
    """A random world from ``sample_instance``, as the planners see it in runs."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    inst = sample_instance(
        rng, draw(st.integers(1, 4)), draw(st.integers(0, 12)), 3.0, 7.0, helpers.ARENA
    )
    return inst.matroid, inst.targets.tolist(), helpers.rects_of(inst)


@st.composite
def planning_instances(draw):
    """A matroid and one of the two objectives over a near-tie or sampled world."""
    matroid, targets, rects = draw(st.one_of(near_tie_layouts(), sampled_worlds()))
    if draw(st.booleans()):
        return matroid, helpers.coverage(targets, rects)
    std = draw(st.sampled_from([0.25, 1.0, 2.5]))
    beliefs = [(x, y, std, std) for x, y in targets]
    return matroid, helpers.expected(beliefs, rects)


@settings(
    max_examples=80,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(instance=planning_instances())
def test_cached_selection_matches_naive_recompute(instance):
    # the open-robot fill against the literal scan-and-reject loop, which
    # recomputes every round and also scans robots already filled; the
    # planners evaluate no set twice; and every planner returns a basis
    matroid, objective = instance
    for alpha in range(matroid.num_robots + 1):
        counting = helpers.CountingOracle(objective)
        got = plan_resilient(matroid, counting, alpha)
        bait, fill = oracles.resilient_literal(matroid.blocks, objective.evaluate, alpha)
        assert got.trace.bait == bait
        assert got.trace.greedy_fill == fill
        assert got.selected == frozenset(bait + fill)
        assert got.oracle_calls == counting.eval_count == len(set(counting.evaluated))
        for name in PLANNER_NAMES:
            result = get_planner(name)(matroid, objective, alpha, np.random.default_rng(alpha))
            assert matroid.is_basis(result.selected)

    counting = helpers.CountingOracle(objective)
    got = plan_greedy(matroid, counting)
    _, fill = oracles.resilient_literal(matroid.blocks, objective.evaluate, 0)
    assert got.trace.greedy_fill == fill
    assert got.selected == frozenset(fill)
    assert got.oracle_calls == counting.eval_count == len(set(counting.evaluated))


@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(instance=planning_instances())
def test_batched_choices_match_one_evaluate_per_set(instance):
    # the objective's own evaluate_all and evaluate_extensions against the
    # same objective reached only through evaluate, whose calls a
    # CountingOracle audits: the same plans, traces, oracle_calls, removals
    # and surviving values, near ties included, and one evaluate per
    # oracle call; the attacks also against their literal loops over
    # evaluate, which keep the first strict minimum
    matroid, objective = instance
    bare = helpers.CountingOracle(objective)
    greedy = plan_greedy(matroid, bare)
    assert plan_greedy(matroid, objective) == greedy
    assert bare.eval_count == greedy.oracle_calls
    for alpha in range(matroid.num_robots + 1):
        plan = plan_resilient(matroid, objective, alpha)
        before = bare.eval_count
        assert plan == plan_resilient(matroid, bare, alpha)
        assert bare.eval_count - before == plan.oracle_calls
        assert plan_bruteforce_maxmin(matroid, objective, alpha) == plan_bruteforce_maxmin(
            matroid, bare, alpha
        )
        for attack, literal in (
            (attack_optimal, oracles.attack_optimal_literal),
            (attack_greedy, oracles.attack_greedy_literal),
        ):
            got = attack(objective, plan.selected, alpha)
            assert got == attack(bare, plan.selected, alpha)
            value, removed = literal(objective.evaluate, plan.selected, alpha)
            assert (got.surviving_value, got.removed) == (value, removed)


@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(instance=planning_instances())
def test_one_removal_is_the_same_under_both_attacks(instance):
    # at alpha 1 the optimal attack scores the leave-one-out sets in
    # combination order and the greedy attack asks best_removal in sorted
    # member order; both keep the first minimum, so they remove the same
    # trajectory and report the same value bit for bit, through
    # CoverageCount's own best_removal and through Objective's generic one
    matroid, objective = instance
    selections = [frozenset()]
    for alpha in range(matroid.num_robots + 1):
        selections.append(plan_resilient(matroid, objective, alpha).selected)
        selections.append(plan_random(matroid, alpha).selected)
    for selected in selections:
        for f in (objective, helpers.CountingOracle(objective)):
            optimal, greedy = attack_optimal(f, selected, 1), attack_greedy(f, selected, 1)
            assert optimal == greedy
            assert repr(optimal.surviving_value) == repr(greedy.surviving_value)


def test_greedy_half_approximation_over_bases():
    rng = np.random.default_rng(23)
    for _ in range(25):
        inst = sample_instance(rng, 3, 12, 3.0, 7.0, helpers.ARENA, menu_sizes=(2, 3))
        cov = CoverageCount(inst.targets, inst.ids, inst.bounds)
        result = plan_greedy(inst.matroid, cov)
        got = cov.evaluate(result.selected)
        best = max(cov.evaluate(b) for b in inst.matroid.enumerate_bases())
        assert got >= 0.5 * best - 1e-9


def test_bruteforce_matches_enumeration_oracle():
    rng = np.random.default_rng(29)
    for _ in range(15):
        inst = sample_instance(rng, 3, 8, 3.0, 7.0, helpers.ARENA, menu_sizes=(2,))
        cov = CoverageCount(inst.targets, inst.ids, inst.bounds)
        alpha = int(rng.integers(0, 3))
        got = plan_bruteforce_maxmin(inst.matroid, cov, alpha)
        want_value, want_basis = oracles.maxmin_bruteforce(inst.matroid.blocks, cov.evaluate, alpha)
        assert got.maxmin_value == pytest.approx(want_value, abs=1e-12)
        # same enumeration order and strict improvement: identical winner
        assert got.selected == want_basis


def test_bruteforce_alpha_zero_is_best_basis():
    rng = np.random.default_rng(31)
    inst = sample_instance(rng, 3, 10, 3.0, 7.0, helpers.ARENA, menu_sizes=(2,))
    cov = CoverageCount(inst.targets, inst.ids, inst.bounds)
    got = plan_bruteforce_maxmin(inst.matroid, cov, 0)
    best = max(cov.evaluate(b) for b in inst.matroid.enumerate_bases())
    assert got.maxmin_value == pytest.approx(best)


def test_random_planner_determinism_and_spread():
    rng = np.random.default_rng(37)
    inst = sample_instance(rng, 3, 5, 3.0, 7.0, helpers.ARENA)
    assert plan_random(inst.matroid, rng_seed=5).selected == plan_random(inst.matroid, rng_seed=5).selected
    seen = {plan_random(inst.matroid, rng_seed=s).selected for s in range(40)}
    assert len(seen) > 5  # 64 bases; forty draws should scatter
    for basis in seen:
        assert inst.matroid.is_basis(basis)


def test_alpha_out_of_range_rejected():
    # every entry point that takes alpha refuses a value the way a spec
    # does: a SpecError naming the field, quickly, even for an integer
    # too long to print
    matroid = PartitionMatroid({"r0": ["a"], "r1": ["b"]})
    n = matroid.num_robots
    f = helpers.SetFunction(lambda s: float(len(s)))
    members = frozenset(matroid.ground_set)
    bounded = {
        plan_resilient: lambda alpha: plan_resilient(matroid, f, alpha),
        plan_bruteforce_maxmin: lambda alpha: plan_bruteforce_maxmin(matroid, f, alpha),
        h_bound: lambda alpha: h_bound(n, alpha),
        check_performance_bound: lambda alpha: check_performance_bound(matroid, f, alpha),
    }
    unbounded = {
        attack_optimal: lambda alpha: attack_optimal(f, members, alpha),
        attack_greedy: lambda alpha: attack_greedy(f, members, alpha),
        attack_random: lambda alpha: attack_random(f, members, alpha, 0),
    }
    refused = (-1, 1.5, True, "1", np.int64(1), -(10**5000))
    for entries, bad_values in ((bounded, (*refused, n + 1, 10**5000)), (unbounded, refused)):
        for entry, call in entries.items():
            for bad in bad_values:
                start = time.perf_counter()
                with pytest.raises(SpecError, match="^field 'alpha': "):
                    call(bad)
                assert time.perf_counter() - start < 0.5, (entry.__name__, type(bad))
    # an attack has no upper bound: it removes min(alpha, |S|)
    for call in unbounded.values():
        assert call(10**5000).removed == members
    for sizes in ((), (0,), (5,), (10**5000,), np.array([2, 3])):
        rng = np.random.default_rng(0)
        start = rng.bit_generator.state
        with pytest.raises(SpecError, match="^field 'menu_sizes': "):
            sample_instance(rng, 2, 3, 3.0, 7.0, helpers.ARENA, sizes)
        # refused before any draw
        assert rng.bit_generator.state == start


def test_planner_registry():
    assert PLANNER_NAMES == ("resilient", "greedy", "random", "brute-force")
    rng = np.random.default_rng(41)
    inst = sample_instance(rng, 2, 6, 3.0, 7.0, helpers.ARENA)
    cov = CoverageCount(inst.targets, inst.ids, inst.bounds)
    planner_rng = np.random.default_rng(0)
    for name in PLANNER_NAMES:
        result = get_planner(name)(inst.matroid, cov, 1, planner_rng)
        assert inst.matroid.is_basis(result.selected)
    with pytest.raises(ValueError) as caught:
        get_planner("nope")
    assert "'nope'" in str(caught.value) and str(PLANNER_NAMES) in str(caught.value)


def test_adapters_look_their_planner_up_on_the_module_when_called(monkeypatch):
    # replacing a planner on the module reaches the registry's callers
    matroid = PartitionMatroid({"r0": ["a"], "r1": ["b"]})
    f = helpers.SetFunction(lambda s: float(len(s)))
    attrs = ("plan_resilient", "plan_greedy", "plan_random", "plan_bruteforce_maxmin")
    for name, attr in zip(PLANNER_NAMES, attrs):
        marker = object()
        monkeypatch.setattr(planners, attr, lambda *args, marker=marker: marker)
        for lookup in (get_planner, experiments.get_planner, simulation.get_planner):
            assert lookup(name)(matroid, f, 1, np.random.default_rng(0)) is marker


@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(instance=planning_instances())
def test_greedy_is_the_resilient_body_with_no_bait(instance):
    # selection, trace and oracle_calls equal, and the same sets evaluated;
    # with no bait neither sorts the ground set for one
    matroid, objective = instance
    greedy, resilient = helpers.CountingOracle(objective), helpers.CountingOracle(objective)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(planners, "sorted", None, raising=False)
        assert plan_greedy(matroid, greedy) == plan_resilient(matroid, resilient, 0)
    assert greedy.evaluated == resilient.evaluated
    assert greedy.eval_count == resilient.eval_count


def test_selected_set_is_always_a_basis_even_with_zero_objective():
    matroid = PartitionMatroid({"r0": ["a", "b"], "r1": ["c"]})
    zero = helpers.SetFunction(lambda s: 0.0)
    for alpha in (0, 1, 2):
        result = plan_resilient(matroid, zero, alpha)
        assert matroid.is_basis(result.selected)

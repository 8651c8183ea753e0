"""Removal attacks: exhaustive, greedy, random, and the attacked-row score."""

import itertools

import numpy as np
import pytest

import helpers
import oracles
from resilient_tracking.adversary import (
    ATTACKER_NAMES,
    attack_greedy,
    attack_none,
    attack_optimal,
    attack_random,
    get_attacker,
    score_attack,
)
from resilient_tracking.objectives import CoverageCount
from resilient_tracking.worlds import sample_instance


def cover_fixture():
    # three trajectories, four targets; any single removal loses one target
    f = helpers.SetCover({"A": {"t1", "t2"}, "B": {"t2", "t3"}, "C": {"t4"}})
    return f, frozenset({"A", "B", "C"})


def test_optimal_attack_hand_fixture():
    f, members = cover_fixture()
    result = attack_optimal(f, members, 1)
    assert result.surviving_value == 3
    assert result.removed == frozenset({"A"})  # tie broken by sorted ids
    assert score_attack(f.evaluate(members), result.surviving_value)[1] == pytest.approx(0.25)


def test_attack_edge_sizes():
    f, members = cover_fixture()
    zero = attack_optimal(f, members, 0)
    assert zero.removed == frozenset()
    assert zero.surviving_value == 4
    everything = attack_optimal(f, members, 5)
    assert everything.removed == members
    assert everything.surviving_value == 0
    assert attack_greedy(f, members, 5).removed == members
    assert attack_none(f, members).removed == frozenset()


def test_restricted_matches_full_range_on_monotone_objectives():
    rng = np.random.default_rng(3)
    for _ in range(20):
        inst = sample_instance(rng, 4, 10, 3.0, 7.0, helpers.ARENA)
        cov = CoverageCount(inst.targets, inst.ids, inst.bounds)
        members = next(iter(inst.matroid.enumerate_bases()))
        alpha = int(rng.integers(0, 5))
        fast = attack_optimal(cov, members, alpha)
        want_value, _ = oracles.attack_bruteforce(cov.evaluate, members, alpha)
        assert fast.surviving_value == pytest.approx(want_value)


def test_greedy_equals_optimal_on_modular_objectives():
    rng = np.random.default_rng(5)
    for _ in range(20):
        ids = [f"e{i}" for i in range(6)]
        weights = {tid: float(rng.uniform(0, 10)) for tid in ids}
        modular = helpers.SetFunction(lambda s, w=weights: sum(w[tid] for tid in s))
        alpha = int(rng.integers(0, 4))
        a = attack_optimal(modular, frozenset(ids), alpha)
        b = attack_greedy(modular, frozenset(ids), alpha)
        assert a.surviving_value == pytest.approx(b.surviving_value)


def test_attack_ordering_optimal_weakest():
    rng = np.random.default_rng(7)
    for trial in range(25):
        inst = sample_instance(rng, 4, 12, 3.0, 7.0, helpers.ARENA)
        cov = CoverageCount(inst.targets, inst.ids, inst.bounds)
        members = next(iter(inst.matroid.enumerate_bases()))
        alpha = int(rng.integers(1, 4))
        opt = attack_optimal(cov, members, alpha)
        greedy = attack_greedy(cov, members, alpha)
        rand = attack_random(cov, members, alpha, rng_seed=trial)
        assert opt.surviving_value <= greedy.surviving_value + 1e-12
        assert opt.surviving_value <= rand.surviving_value + 1e-12


def test_removed_sets_are_subsets_of_members():
    f, members = cover_fixture()
    for alpha in range(4):
        for attackers in (
            attack_optimal(f, members, alpha),
            attack_greedy(f, members, alpha),
            attack_random(f, members, alpha, rng_seed=0),
        ):
            assert attackers.removed <= members
            assert len(attackers.removed) == min(alpha, len(members))
            assert attackers.surviving_value == f.evaluate(members - attackers.removed)


def test_random_attack_determinism_and_spread():
    f, members = cover_fixture()
    first = attack_random(f, members, 2, rng_seed=11)
    again = attack_random(f, members, 2, rng_seed=11)
    assert first.removed == again.removed
    seen = {attack_random(f, members, 2, rng_seed=s).removed for s in range(30)}
    assert len(seen) == 3  # C(3,2) possibilities all reachable


def test_random_attack_builds_no_generator_when_it_removes_nothing():
    # a seed default_rng would refuse shows whether a generator was built
    f, members = cover_fixture()
    nothing = attack_random(f, members, 0, rng_seed="not a seed")
    assert nothing.removed == frozenset() and nothing.surviving_value == 4.0
    assert attack_random(f, frozenset(), 2, rng_seed="not a seed").removed == frozenset()
    with pytest.raises(TypeError):
        attack_random(f, members, 1, rng_seed="not a seed")


def test_score_attack_zero_full_value_and_snap():
    assert score_attack(4.0, 3.0) == (3.0, 0.25)
    assert score_attack(4.0, 4.0) == (4.0, 0.0)
    assert score_attack(4.0, 0.0) == (0.0, 1.0)
    # nothing to lose: the rate is 0, not undefined
    assert score_attack(0.0, 0.0) == (0.0, 0.0)
    # a round-off inversion above the full value is snapped down to it
    assert score_attack(4.0, 4.0 + 1e-15) == (4.0, 0.0)
    assert score_attack(0.0, 1e-16) == (0.0, 0.0)


def test_attacker_registry():
    assert ATTACKER_NAMES == ("optimal", "greedy", "random", "none")
    f, members = cover_fixture()
    rng = np.random.default_rng(0)
    for name in ATTACKER_NAMES:
        result = get_attacker(name)(f, members, 1, rng)
        assert result.removed <= members
    with pytest.raises(ValueError):
        get_attacker("nuke")


def test_optimal_attack_call_count_is_exhaustive():
    f, members = cover_fixture()
    counting = helpers.CountingOracle(f)
    attack_optimal(counting, members, 1)
    assert counting.eval_count == 3  # C(3,1) survivors evaluated once each

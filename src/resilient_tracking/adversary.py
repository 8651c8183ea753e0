"""Attack models: remove up to alpha selected trajectories.

An attack removes trajectories from a selection; the attacked value is the
objective on the survivors.  ``attack_optimal`` is the exact worst case,
``attack_greedy`` a myopic approximation, ``attack_random`` a baseline.
Ties break lexicographically on sorted trajectory ids (for the exhaustive
search: combination order), first winner kept.  ``score_attack`` turns an
attack into the recorded attacked value and attack rate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .matroid import require_enumerable


@dataclass(frozen=True)
class AttackResult:
    """Removed trajectories and the objective value of the survivors."""

    removed: frozenset
    surviving_value: float


def attack_optimal(objective, members, alpha: int) -> AttackResult:
    """Exact minimizer of the surviving value over removal sets.

    Only removals of exactly min(alpha, |S|) elements are searched: for a
    monotone objective removing fewer never hurts more, so the optimum over
    every size up to alpha is unchanged.
    """
    if alpha < 0:
        raise ValueError(f"alpha must be nonnegative, got {alpha}")
    selected = frozenset(members)
    ordered = sorted(selected)
    k = min(alpha, len(ordered))
    require_enumerable("the removal sets", choose=(len(ordered), k))
    best_removed = None
    best_value = math.inf
    for combo in itertools.combinations(ordered, k):
        value = objective.evaluate(selected.difference(combo))
        if value < best_value:
            best_removed, best_value = frozenset(combo), value
    return AttackResult(removed=best_removed, surviving_value=float(best_value))


def attack_greedy(objective, members, alpha: int) -> AttackResult:
    """Myopic attack: repeatedly remove the single most damaging element."""
    if alpha < 0:
        raise ValueError(f"alpha must be nonnegative, got {alpha}")
    survivors = frozenset(members)
    removed = set()
    value = None
    for _ in range(min(alpha, len(survivors))):
        best = None
        best_value = math.inf
        for tid in sorted(survivors):
            candidate = objective.evaluate(survivors - {tid})
            if candidate < best_value:
                best, best_value = tid, candidate
        survivors = survivors - {best}
        removed.add(best)
        value = best_value
    if value is None:
        value = objective.evaluate(survivors)
    return AttackResult(removed=frozenset(removed), surviving_value=float(value))


def attack_random(objective, members, alpha: int, rng_seed) -> AttackResult:
    """Uniformly random removal of min(alpha, |S|) distinct elements."""
    if alpha < 0:
        raise ValueError(f"alpha must be nonnegative, got {alpha}")
    selected = frozenset(members)
    rng = np.random.default_rng(rng_seed)
    ordered = sorted(selected)
    k = min(alpha, len(ordered))
    removed = frozenset()
    if k:
        picks = rng.choice(len(ordered), size=k, replace=False)
        removed = frozenset(ordered[int(i)] for i in picks)
    value = objective.evaluate(selected - removed)
    return AttackResult(removed=removed, surviving_value=float(value))


def attack_none(objective, members) -> AttackResult:
    """No removal; surviving value is the full value."""
    return AttackResult(
        removed=frozenset(), surviving_value=float(objective.evaluate(frozenset(members)))
    )


def score_attack(f_full: float, surviving_value: float) -> tuple[float, float]:
    """Recorded ``(f_attacked, attack_rate)`` of an attack on a selection.

    ``f_attacked`` is the surviving value snapped to at most ``f_full``:
    monotonicity makes the inequality exact in real arithmetic, and the snap
    absorbs round-off inversions in the expected-detections sums.  The rate
    is the relative loss ``(f_full - f_attacked) / f_full``, and 0 when
    ``f_full`` is not positive.
    """
    f_attacked = min(float(surviving_value), f_full)
    rate = 0.0 if f_full <= 0 else (f_full - f_attacked) / f_full
    return f_attacked, rate


ATTACKER_NAMES = ("optimal", "greedy", "random", "none")


def get_attacker(name: str):
    """Uniform ``(objective, members, alpha, rng) -> AttackResult`` adapter."""
    if name == "optimal":
        return lambda objective, members, alpha, rng: attack_optimal(objective, members, alpha)
    if name == "greedy":
        return lambda objective, members, alpha, rng: attack_greedy(objective, members, alpha)
    if name == "random":
        return lambda objective, members, alpha, rng: attack_random(
            objective, members, alpha, rng
        )
    if name == "none":
        return lambda objective, members, alpha, rng: attack_none(objective, members)
    raise ValueError(f"unknown attacker {name!r}; expected one of {ATTACKER_NAMES}")

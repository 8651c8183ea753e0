"""Attack models: remove up to alpha selected trajectories.

An attack removes trajectories from a selection; the attacked value is the
objective on the survivors.  ``attack_optimal`` is the exact worst case,
``attack_greedy`` a myopic approximation, ``attack_random`` a baseline.
Ties break lexicographically on sorted trajectory ids (for the exhaustive
search: combination order), first winner kept.  The exact attack scores
its candidate removals with the objective's ``evaluate_all``; the greedy
attack asks its ``best_removal`` for each round's choice, the first
minimum over the survivors less one member in sorted order.  Either way the
surviving value is the chosen removal's score.  ``score_attack`` turns an
attack into the recorded attacked value and attack rate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import require_choice, require_int
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
    every size up to alpha is unchanged.  The removals are scored in
    combination order: their survivors are the complementary combinations
    in reverse order.
    """
    selected = frozenset(members)
    ordered = sorted(selected)
    k = min(require_int(alpha, "alpha", 0), len(ordered))
    require_enumerable("the removal sets", choose=(len(ordered), k))
    survivors = list(itertools.combinations(ordered, len(ordered) - k))[::-1]
    values = objective.evaluate_all(survivors)
    best = min(values)
    return AttackResult(
        removed=selected.difference(survivors[values.index(best)]), surviving_value=float(best)
    )


def attack_greedy(objective, members, alpha: int) -> AttackResult:
    """Myopic attack: repeatedly remove the single most damaging element.

    Each round is one ``objective.best_removal`` call on the survivors in
    sorted order, which removes the first member whose loss leaves the
    least.  A :class:`~.objectives.CoverageCount` answers it with prefix
    and suffix ORs, O(k) for k survivors, so an attack on a basis of n
    robots costs O(alpha * n) ORs; any other objective inherits
    :class:`~.objectives.Objective`'s rule, which scores every
    leave-one-out list with ``evaluate_all``.
    """
    survivors = sorted(frozenset(members))
    removed = []
    value = None
    for _ in range(min(require_int(alpha, "alpha", 0), len(survivors))):
        position, value = objective.best_removal(survivors)
        removed.append(survivors.pop(position))
    if value is None:
        value = objective.evaluate(frozenset(survivors))
    return AttackResult(removed=frozenset(removed), surviving_value=float(value))


def attack_random(objective, members, alpha: int, rng_seed) -> AttackResult:
    """Uniformly random removal of min(alpha, |S|) distinct elements."""
    selected = frozenset(members)
    ordered = sorted(selected)
    k = min(require_int(alpha, "alpha", 0), len(ordered))
    removed = frozenset()
    if k:
        # nothing is drawn at k = 0, so no generator is built then
        picks = np.random.default_rng(rng_seed).choice(len(ordered), size=k, replace=False)
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


# Uniform ``(objective, members, alpha, rng) -> AttackResult`` adapters in
# registry order, whose indices seed the attacker streams.  Each looks its
# attack up on this module when called, so a replaced one takes effect.
_ATTACKERS = {
    "optimal": lambda objective, members, alpha, rng: attack_optimal(objective, members, alpha),
    "greedy": lambda objective, members, alpha, rng: attack_greedy(objective, members, alpha),
    "random": lambda objective, members, alpha, rng: attack_random(objective, members, alpha, rng),
    "none": lambda objective, members, alpha, rng: attack_none(objective, members),
}
ATTACKER_NAMES = tuple(_ATTACKERS)


def get_attacker(name: str):
    """The uniform adapter of attacker ``name``."""
    return _ATTACKERS[require_choice(name, "attacker", ATTACKER_NAMES)]

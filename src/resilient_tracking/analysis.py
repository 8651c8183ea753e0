"""Guarantee analysis: constrained curvature, cardinality factor, bound check.

The suboptimality guarantee for the resilient planner is

    f(S \\ A*) >= max(1 - nu, h(n, alpha)) / 2 * f*

where nu is the constrained curvature of the objective over the bases of
the matroid, n the number of robots, h(n, alpha) = max(1/(1+alpha),
1/(n-alpha)) and f* the exhaustive max-min optimum.  ``nu`` measures how
far the objective is from additive over feasible selections: 0 means
additive (strongest guarantee), 1 means some selected element is fully
redundant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adversary import attack_optimal
from .errors import DegenerateObjective
from .matroid import PartitionMatroid, require_enumerable
from .objectives import basis_grid
from .planners import plan_bruteforce_maxmin, plan_resilient

BOUND_SLACK = 1e-9


@dataclass(frozen=True)
class CurvatureReport:
    """Constrained curvature value and the witness that attains it.

    The minimum runs over every basis.  Elements whose singleton value is
    zero are excluded from the inner minimum and listed in
    ``skipped_zero_elements``.
    """

    value: float
    witness_set: frozenset
    witness_element: str
    skipped_zero_elements: tuple[str, ...]


def constrained_curvature(matroid: PartitionMatroid, objective) -> CurvatureReport:
    """Curvature nu = 1 - min over bases S, s in S of (f(S)-f(S-s)) / f(s).

    Scores every basis at once on the basis grid (subject to the
    enumeration cap).  The witness is the first basis in enumeration order
    and, within it, the first robot in ground order that attains the
    minimum ratio; the reported value is evaluated on the witness through
    the objective.  Raises :class:`DegenerateObjective` when no nonzero
    singleton exists.

    The singletons and the witness are scored through ``objective.evaluate``
    on purpose, not through ``evaluate_all``: they are the only path by
    which a fault that perturbs ``evaluate`` (``bench/run.py --fault
    perturb``) reaches a bound report.  Adding 1e-6 to ``evaluate`` moves 25
    of the 100 reports of ``run_bound_suite(100, 1)``; routed through
    ``evaluate_all``, it moves none, and that negative control could no
    longer fail.
    """
    require_enumerable("the bases", map(len, matroid.blocks.values()))
    evaluate = objective.evaluate
    singleton = {tid: evaluate(frozenset({tid})) for tid in matroid.ground_set}
    skipped = tuple(
        tid for tid in matroid.ground_set if singleton[tid] == 0
    )
    if len(skipped) == len(matroid.ground_set):
        raise DegenerateObjective("every singleton value is zero")

    witness_set, witness_element = _grid_witness(matroid, objective, singleton)
    loss = evaluate(witness_set) - evaluate(witness_set - {witness_element})
    return CurvatureReport(
        value=1.0 - loss / singleton[witness_element],
        witness_set=witness_set,
        witness_element=witness_element,
        skipped_zero_elements=skipped,
    )


def _grid_witness(matroid, objective, singleton):
    """First (basis, element) with the smallest ratio, scored on the grid.

    Block by block, each basis's full value minus its value without each
    robot is divided by the singletons; a strict running minimum over
    robots keeps each basis's first minimal member, the first ``argmin``
    keeps the block's first minimal basis (C order is enumeration order),
    and a strict running minimum over the blocks in order keeps the first
    minimal basis of the grid.
    """
    menus = [matroid.blocks[robot] for robot in matroid.robots]
    witness = None
    for origin, block in basis_grid(objective, menus):
        full, without = block.leave_one_out()
        best = np.full(block.shape, np.inf)
        best_robot = np.zeros(block.shape, dtype=np.intp)
        for r, menu in enumerate(block.menus):
            loss = full - without[r]
            # a zero singleton is skipped: its NaN ratio never compares lower
            single = np.array([singleton[tid] or np.nan for tid in menu], dtype=float)
            ratio = loss / single.reshape([-1 if s == r else 1 for s in range(len(menus))])
            lower = ratio < best
            best = np.where(lower, ratio, best)
            best_robot = np.where(lower, r, best_robot)
        at = np.unravel_index(int(np.argmin(best)), best.shape)
        if witness is None or best[at] < witness[0]:
            witness = best[at], np.add(origin, at), int(best_robot[at])
    _, index, robot = witness
    basis = frozenset(menu[i] for menu, i in zip(menus, index))
    return basis, menus[robot][index[robot]]


def h_bound(n: int, alpha: int) -> float:
    """Cardinality factor h(n, alpha) = max(1/(1+alpha), 1/(n-alpha)).

    Defined for n >= 1 and 0 <= alpha <= n-1 (at alpha = n the second term
    divides by zero and the guarantee is vacuous anyway).
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if alpha < 0 or alpha > n - 1:
        raise ValueError(f"alpha must be in [0, {n - 1}], got {alpha}")
    return max(1.0 / (1 + alpha), 1.0 / (n - alpha))


@dataclass(frozen=True)
class BoundReport:
    """Everything the guarantee check measured, plus the verdict.

    ``degenerate`` flags f* = 0, where the bound holds trivially and the
    curvature and cardinality factor are not computed.
    """

    num_robots: int
    alpha: int
    selected: frozenset
    worst_removed: frozenset
    surviving_value: float
    optimal_value: float
    curvature: float | None
    cardinality_factor: float | None
    guarantee: float
    satisfied: bool
    degenerate: bool


def check_performance_bound(matroid: PartitionMatroid, objective, alpha: int) -> BoundReport:
    """Run the resilient planner and verify its guarantee on one instance.

    Plans, attacks the plan optimally, computes the exhaustive max-min
    optimum f*, the exact curvature and the cardinality factor, and checks
    the surviving value against max(1-nu, h)/2 * f* with additive slack
    ``BOUND_SLACK``.  With alpha = number of robots (everything removable)
    or f* = 0 the report is flagged degenerate and the check reduces to
    nonnegativity.
    """
    n = matroid.num_robots
    plan = plan_resilient(matroid, objective, alpha)
    worst = attack_optimal(objective, plan.selected, alpha)
    reference = plan_bruteforce_maxmin(matroid, objective, alpha)
    optimal_value = reference.maxmin_value

    degenerate = optimal_value == 0 or alpha == n
    curvature = factor = None
    guarantee = 0.0
    if not degenerate:
        curvature = constrained_curvature(matroid, objective).value
        factor = h_bound(n, alpha)
        guarantee = 0.5 * max(1.0 - curvature, factor) * optimal_value
    return BoundReport(
        num_robots=n,
        alpha=alpha,
        selected=plan.selected,
        worst_removed=worst.removed,
        surviving_value=worst.surviving_value,
        optimal_value=optimal_value,
        curvature=curvature,
        cardinality_factor=factor,
        guarantee=guarantee,
        satisfied=worst.surviving_value >= guarantee - BOUND_SLACK,
        degenerate=degenerate,
    )

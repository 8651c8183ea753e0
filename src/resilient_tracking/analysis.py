"""Guarantee analysis: constrained curvature, cardinality factor, bound check.

The suboptimality guarantee for the resilient planner is

    f(S \\ A*) >= max(1 - nu, h(n, alpha)) / 2 * f*

where nu is the constrained curvature of the objective over the bases of
the matroid, n the number of robots, h(n, alpha) = max(1/(1+alpha),
1/(n-alpha)) and f* the exhaustive max-min optimum.  ``nu`` measures how
far the objective is from additive over feasible selections: 0 means
additive (strongest guarantee), 1 means some selected element is fully
redundant.

``constrained_curvature`` scores every basis on the grid and reports the
first minimal pair in enumeration order.  The bound check needs only the
value: it asks the objective for ``curvature_sandwich``, a basis and member
certified in polynomial time to attain the minimum, and scores the grid
only when the objective has none.  A :class:`CoverageCount` certifies it
whenever its floor and attained ratios meet, as they did on every
bound-suite world with a nonzero singleton tried (3,000 over three seeds);
there the curvature costs O(T^2) mask operations rather than one per basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adversary import attack_optimal
from .errors import DegenerateObjective, require_int
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
    """
    require_enumerable("the bases", map(len, matroid.menus))
    return _curvature(matroid, objective, None)


def _curvature(matroid, objective, certified) -> CurvatureReport:
    """Score the singletons and the ratio of a minimal pair through ``evaluate``.

    The pair is ``certified``, a basis and member that
    ``objective.curvature_sandwich`` certified to attain the minimum ratio,
    or, when that is None, the grid's first minimal pair.  Both attain the
    same least ratio, of integers on a :class:`CoverageCount`, so the value
    is the same bit for bit; only the witness may differ.  Elements whose
    singleton is zero are skipped, and :class:`DegenerateObjective` is
    raised when every singleton is zero.

    The singletons and the witness are scored through ``objective.evaluate``
    on purpose, not through ``evaluate_all``: they are the only path by
    which a fault that perturbs ``evaluate`` (``bench/run.py --fault
    perturb``) reaches a bound report.  Adding 1e-6 to ``evaluate`` moves the
    curvature of 25 of the 100 reports of ``run_bound_suite(100, 1)``,
    whose witnesses come from the sandwich; routed through ``evaluate_all``,
    it would move none, and that negative control could no longer fail.
    """
    evaluate = objective.evaluate
    singleton = {tid: evaluate((tid,)) for tid in matroid.ground_set}
    skipped = tuple(
        tid for tid in matroid.ground_set if singleton[tid] == 0
    )
    if len(skipped) == len(matroid.ground_set):
        raise DegenerateObjective("every singleton value is zero")

    witness_set, witness_element = certified or _grid_witness(matroid, objective, singleton)
    loss = evaluate(witness_set) - evaluate(witness_set - {witness_element})
    return CurvatureReport(
        value=1.0 - loss / singleton[witness_element],
        witness_set=witness_set,
        witness_element=witness_element,
        skipped_zero_elements=skipped,
    )


def _grid_witness(matroid, objective, singleton):
    """First (basis, element) with the smallest ratio, scored on the grid.

    Block by block, each basis's full value minus its value without robot
    ``r``, divided by that robot's singleton, is robot ``r``'s ratio, +inf
    where the singleton is zero (an element that is skipped).  The block's
    singletons are one array in menu order, and robot ``r``'s are a view of
    its menu's run.  A running per-basis least ratio keeps, with a strict
    ``<``, the first robot that attains it, so the work space is a few
    arrays of the block's shape whatever the robot count.  The first
    ``argmin`` of the least ratios is the block's first minimal basis (C
    order is enumeration order), and the robot kept there its first minimal
    robot: the first pair in C order over (basis, robot).  A strict running
    minimum over the blocks in order keeps the first minimal basis of the
    grid.
    """
    n = matroid.num_robots
    witness = None
    for block in basis_grid(objective, matroid.menus):
        full, without = block.leave_one_out()
        best = np.full(block.shape, np.inf)
        first = np.zeros(block.shape, dtype=np.intp)
        ratio = np.empty(block.shape)
        singles = np.array([singleton[tid] for menu in block.menus for tid in menu], dtype=float)
        stop = 0
        for r, size in enumerate(block.shape):
            start, stop = stop, stop + size
            single = singles[start:stop].reshape((1,) * r + (size,) + (1,) * (n - r - 1))
            ratio.fill(np.inf)
            np.divide(full - without[r], single, out=ratio, where=single != 0)
            lower = ratio < best
            np.copyto(best, ratio, where=lower)
            np.copyto(first, r, where=lower)
        at = best.argmin()
        value = best.item(at)
        if witness is None or value < witness[0]:
            witness = value, block.basis(at, block.shape), first.item(at)
    _, ids, robot = witness
    return frozenset(ids), ids[robot]


def h_bound(n: int, alpha: int) -> float:
    """Cardinality factor h(n, alpha) = max(1/(1+alpha), 1/(n-alpha)).

    Defined for n >= 1 and 0 <= alpha <= n-1 (at alpha = n the second term
    divides by zero and the guarantee is vacuous anyway).
    """
    require_int(n, "n", 1)
    require_int(alpha, "alpha", 0, n - 1)
    # integer true division: correctly rounded for an n past the float range too
    return max(1 / (1 + alpha), 1 / (n - alpha))


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
    ``BOUND_SLACK``.  The curvature is certified by the objective's
    ``curvature_sandwich`` where it closes, and scored on the grid
    otherwise; either way it is ``constrained_curvature``'s value bit for
    bit.  With alpha = number of robots (everything removable)
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
        # the max-min has already held the bases to the enumeration cap, and
        # the bound check reads only the value, not the witness
        certified = objective.curvature_sandwich(matroid.menus)
        curvature = _curvature(matroid, objective, certified).value
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

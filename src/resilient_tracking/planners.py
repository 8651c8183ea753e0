"""Trajectory-selection planners.

Every planner returns one trajectory per robot (a basis of the partition
matroid).  Value ties are broken by canonical ground order (robot id, then
menu position), smallest first, so planning is reproducible bit for bit.

``plan_resilient`` hedges against worst-case removal of up to ``alpha``
selected trajectories in two phases: a bait phase that reserves the
``alpha`` individually most valuable, mutually independent trajectories
(the ones an optimal attacker goes for), then a greedy phase that fills the
remaining robots by marginal gain measured against the greedy picks alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import require_choice, require_int
from .matroid import PartitionMatroid, require_enumerable
from .objectives import basis_grid


@dataclass(frozen=True)
class AlgorithmTrace:
    """Which elements each phase admitted, in order."""

    bait: tuple
    greedy_fill: tuple


@dataclass(frozen=True)
class PlanResult:
    """Outcome of one planning call.

    ``oracle_calls`` counts objective evaluations made by this call only,
    one per set scored, whether one of the objective's batched methods
    (``evaluate_extensions``, ``evaluate_all``) or its ``best_extension``
    scored it with others or ``evaluate`` scored it alone.
    With every robot's menu of size ``m``, ground set ``T`` and ``k`` robots
    left open by the bait (all ``n`` for the greedy planner), the resilient
    and greedy planners make ``|T| + m * k(k-1)/2``: one per singleton, then
    the fill's rounds after its first, which reads the singletons.  For the
    exhaustive planner it is the logical count ``bases * C(n, alpha)`` of a
    per-basis optimal attack, not the grid evaluations it makes.
    ``maxmin_value`` is filled by the exhaustive planner (the worst-case
    surviving value of the returned basis) and None otherwise.
    """

    selected: frozenset
    trace: AlgorithmTrace | None
    oracle_calls: int
    maxmin_value: float | None = None


def _singletons(matroid: PartitionMatroid, objective) -> dict:
    """Every trajectory's own value: the extensions of the empty set, in one call."""
    ground = matroid.ground_set
    return dict(zip(ground, objective.evaluate_extensions((), ground)))


def _greedy_fill(matroid, objective, used_robots: set, singleton: dict):
    """Greedy phase: fill the robots the bait left open, by marginal gain.

    Each round asks the objective's ``best_extension`` for the first
    maximum of ``fill | {t}`` over every trajectory ``t`` of a robot that
    is still open, in canonical ground order, and admits it; the admitted
    robot's menu then leaves the candidates as one slice, and the fill
    stops when none is left.  The first round's sets are the singletons,
    so it reads ``singleton`` and evaluations start at the second round.
    Marginals are measured on the fill set only, not on bait + fill.  Only an open
    robot's trajectory keeps bait + fill independent, so this admits
    exactly what scanning all of T \\ bait and rejecting dependent
    elements would.  Returns (fill, evaluations made), one evaluation per
    candidate scored.

    A :class:`~.objectives.CoverageCount` answers a round with one union
    of the fill and then one OR and one bit count per candidate, so a plan
    over ``n`` robots does O(|T| n) of them, as plain greedy does.  Any
    other objective inherits :class:`~.objectives.Objective`'s first
    maximum of ``evaluate_extensions``, which scores each ``fill | {t}``
    whole unless the objective overrides it.
    """
    owner = matroid.owner
    candidates = [tid for tid in matroid.ground_set if owner[tid] not in used_robots]
    fill: list[str] = []
    calls = 0
    while candidates:
        if fill:
            position, _ = objective.best_extension(fill, candidates)
            calls += len(candidates)
        else:
            values = [singleton[tid] for tid in candidates]
            position = values.index(max(values))
        best = candidates[position]
        fill.append(best)
        # the ground set runs robot by robot and each round drops one whole
        # menu, so the admitted robot's menu is one run of the candidates
        menu = matroid.blocks[owner[best]]
        start = position - menu.index(best)
        del candidates[start : start + len(menu)]
    return tuple(fill), calls


def _two_phase(matroid: PartitionMatroid, objective, alpha: int) -> PlanResult:
    """Bait of up to ``alpha`` trajectories, then the greedy fill.

    The bait scans the ground set in descending singleton value and admits
    an element while the bait stays independent and no larger than
    ``alpha``; at alpha 0 there is no bait and no scan.
    """
    singleton = _singletons(matroid, objective)
    bait: list[str] = []
    used_robots: set[str] = set()
    # descending singleton value: the ground set is in ground order and a
    # reversed sort is still stable, so ties keep ground order
    ranked = sorted(matroid.ground_set, key=singleton.__getitem__, reverse=True) if alpha else ()
    for tid in ranked:
        robot = matroid.owner[tid]
        if robot not in used_robots:
            bait.append(tid)
            used_robots.add(robot)
            if len(bait) == alpha:
                break

    fill, fill_calls = _greedy_fill(matroid, objective, used_robots, singleton)
    selected = frozenset(bait) | set(fill)
    if not matroid.is_basis(selected):
        raise AssertionError("planner failed to assemble a basis")
    return PlanResult(
        selected=selected,
        trace=AlgorithmTrace(bait=tuple(bait), greedy_fill=fill),
        oracle_calls=len(singleton) + fill_calls,
    )


def plan_resilient(matroid: PartitionMatroid, objective, alpha: int) -> PlanResult:
    """Two-phase selection that withstands up to ``alpha`` removals.

    Phase 1 reserves as bait the ``alpha`` individually most valuable,
    mutually independent trajectories (singletons are evaluated once, and
    the fill's first round reads them).  Phase 2
    greedily fills the remaining robots; its marginal gains deliberately
    ignore the bait, which is what makes the bait expendable.

    ``alpha`` may be any value in [0, number of robots]; at the upper end
    every selection can be wiped out and the guarantee is vacuous.
    """
    require_int(alpha, "alpha", 0, matroid.num_robots)
    return _two_phase(matroid, objective, alpha)


def plan_greedy(matroid: PartitionMatroid, objective) -> PlanResult:
    """Standard matroid greedy: the two-phase body with no bait."""
    return _two_phase(matroid, objective, 0)


def plan_random(matroid: PartitionMatroid, rng_seed) -> PlanResult:
    """One uniform menu choice per robot; no objective evaluations."""
    rng = np.random.default_rng(rng_seed)
    selected = frozenset(
        matroid.blocks[robot][int(rng.integers(len(matroid.blocks[robot])))]
        for robot in matroid.robots
    )
    return PlanResult(selected=selected, trace=None, oracle_calls=0)


def plan_bruteforce_maxmin(matroid: PartitionMatroid, objective, alpha: int) -> PlanResult:
    """Exhaustive max-min reference: best basis under worst-case removal.

    Scores every basis by its optimally attacked value and keeps the first
    maximizer in enumeration order.  The product of basis count and attack
    subsets per basis must stay within ``ENUMERATION_CAP``.

    Every basis is scored at once on the basis grid (:func:`basis_grid`),
    block by block: each block's worst case under removal of ``alpha``
    robots comes from one keep/drop pass over the robots.  The grid's
    C order is enumeration order, so the first ``argmax`` of each block and
    a strict running maximum across the blocks give the first maximizer,
    and its grid value is the worst case an optimal attack on it leaves.
    A block's worst case may keep length-1 axes (all of them at ``alpha
    == n``); its first maximum is the first of its broadcast, and the
    block names that basis from the worst case's shape as built.
    """
    n = matroid.num_robots
    require_int(alpha, "alpha", 0, n)
    menus = matroid.menus
    work = require_enumerable("the max-min's attacked evaluations", map(len, menus), (n, alpha))
    best = selected = None
    for block in basis_grid(objective, menus):
        worst = block.worst_case(alpha)
        at = worst.argmax()
        value = worst.item(at)
        if best is None or value > best:
            best = value
            selected = block.basis(at, worst.shape)
    return PlanResult(
        selected=frozenset(selected),
        trace=None,
        oracle_calls=work,
        maxmin_value=float(best),
    )


# Uniform ``(matroid, objective, alpha, rng) -> PlanResult`` adapters in
# registry order, whose indices seed the planner streams.  Each looks its
# planner up on this module when called, so a replaced one takes effect.
_PLANNERS = {
    "resilient": lambda matroid, objective, alpha, rng: plan_resilient(matroid, objective, alpha),
    "greedy": lambda matroid, objective, alpha, rng: plan_greedy(matroid, objective),
    "random": lambda matroid, objective, alpha, rng: plan_random(matroid, rng),
    "brute-force": lambda matroid, objective, alpha, rng: plan_bruteforce_maxmin(
        matroid, objective, alpha
    ),
}
PLANNER_NAMES = tuple(_PLANNERS)


def get_planner(name: str):
    """The uniform adapter of planner ``name``."""
    return _PLANNERS[require_choice(name, "planner", PLANNER_NAMES)]

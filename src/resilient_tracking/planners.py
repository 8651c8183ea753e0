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

import itertools
from dataclasses import dataclass

import numpy as np

from .adversary import attack_optimal
from .matroid import PartitionMatroid, require_enumerable
from .objectives import basis_grid


@dataclass(frozen=True)
class AlgorithmTrace:
    """Which elements each phase admitted, in order, and the bait scan order."""

    bait: tuple
    greedy_fill: tuple
    scanned_bait: tuple


@dataclass(frozen=True)
class PlanResult:
    """Outcome of one planning call.

    ``oracle_calls`` counts objective evaluations made by this call only.
    With every robot's menu of size ``m``, ground set ``T`` and ``k`` robots
    left open by the bait (all ``n`` for the greedy planner), the resilient
    and greedy planners make ``|T| + m * k(k-1)/2``: one per singleton, then
    the fill's rounds after its first, which reads the singletons.  For the
    exhaustive planner it is the logical count ``bases * C(n, min(alpha,
    n))`` of a per-basis optimal attack, not the grid evaluations it makes.
    ``maxmin_value`` is filled by the exhaustive planner (the worst-case
    surviving value of the returned basis) and None otherwise.
    """

    selected: frozenset
    trace: AlgorithmTrace | None
    oracle_calls: int
    maxmin_value: float | None = None


def _check_alpha(matroid: PartitionMatroid, alpha: int) -> None:
    if not isinstance(alpha, (int, np.integer)):
        raise ValueError(f"alpha must be an integer, got {alpha!r}")
    if alpha < 0 or alpha > matroid.num_robots:
        raise ValueError(
            f"alpha must be in [0, {matroid.num_robots}], got {alpha}"
        )


def _greedy_fill(matroid, objective, bait: frozenset, singleton: dict):
    """Greedy phase: fill the robots the bait left open, by marginal gain.

    Each round scores ``fill | {t}`` for every trajectory ``t`` of a robot
    that is still open and admits the first maximum in canonical ground
    order; the admitted robot's other trajectories then leave the
    candidates.  The first round's sets are the singletons, so it reads
    ``singleton`` and evaluations start at the second round.  Marginals are
    measured on the fill set only, not on bait + fill.  Only an open
    robot's trajectory keeps bait + fill independent, so this admits
    exactly what scanning all of T \\ bait and rejecting dependent
    elements would.  Returns (fill, evaluations made).
    """
    used_robots = {matroid.robot_of(tid) for tid in bait}
    candidates = [tid for tid in matroid.ground_set if matroid.robot_of(tid) not in used_robots]
    values = [singleton[tid] for tid in candidates]
    fill: list[str] = []
    current = frozenset()
    calls = 0
    while candidates:
        best = candidates[values.index(max(values))]
        fill.append(best)
        current = current | {best}
        robot = matroid.robot_of(best)
        candidates = [tid for tid in candidates if matroid.robot_of(tid) != robot]
        values = [objective.evaluate(current | {tid}) for tid in candidates]
        calls += len(values)
    return tuple(fill), calls


def plan_resilient(matroid: PartitionMatroid, objective, alpha: int) -> PlanResult:
    """Two-phase selection that withstands up to ``alpha`` removals.

    Phase 1 scans the whole ground set in descending singleton value
    (singletons are evaluated once, and the fill's first round reads them)
    and admits an element while the bait set stays independent and no
    larger than ``alpha``.  Phase 2
    greedily fills the remaining robots; its marginal gains deliberately
    ignore the bait, which is what makes the bait expendable.

    ``alpha`` may be any value in [0, number of robots]; at the upper end
    every selection can be wiped out and the guarantee is vacuous.
    """
    _check_alpha(matroid, alpha)
    singleton = {tid: objective.evaluate(frozenset({tid})) for tid in matroid.ground_set}
    bait: list[str] = []
    used_robots: set[str] = set()
    scan_order = sorted(
        matroid.ground_set, key=lambda tid: (-singleton[tid], matroid.ground_index(tid))
    )
    for tid in scan_order:
        robot = matroid.robot_of(tid)
        if len(bait) < alpha and robot not in used_robots:
            bait.append(tid)
            used_robots.add(robot)

    fill, fill_calls = _greedy_fill(matroid, objective, frozenset(bait), singleton)
    selected = frozenset(bait) | set(fill)
    if not matroid.is_basis(selected):
        raise AssertionError("planner failed to assemble a basis")
    trace = AlgorithmTrace(
        bait=tuple(bait),
        greedy_fill=fill,
        scanned_bait=tuple(scan_order),
    )
    return PlanResult(
        selected=selected, trace=trace, oracle_calls=len(singleton) + fill_calls
    )


def plan_greedy(matroid: PartitionMatroid, objective) -> PlanResult:
    """Standard matroid greedy: largest marginal gain until a basis."""
    singleton = {tid: objective.evaluate(frozenset({tid})) for tid in matroid.ground_set}
    fill, calls = _greedy_fill(matroid, objective, frozenset(), singleton)
    trace = AlgorithmTrace(bait=(), greedy_fill=fill, scanned_bait=())
    return PlanResult(
        selected=frozenset(fill), trace=trace, oracle_calls=len(singleton) + calls
    )


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

    Every basis is scored at once on the basis grid (:func:`basis_grid`):
    for every set of ``min(alpha, n)`` removed robots the survivors' union
    values are taken over the grid, and a running minimum over the sets
    gives every basis's worst case.  The grid's C order is enumeration
    order, so the first ``argmax`` is the first maximizer.  ``maxmin_value``
    comes from the optimal attack on the chosen basis.
    """
    _check_alpha(matroid, alpha)
    n = matroid.num_robots
    menus = [matroid.blocks[robot] for robot in matroid.robots]
    work = require_enumerable(
        "the max-min's attacked evaluations", map(len, menus), (n, min(alpha, n))
    )
    union = basis_grid(objective, menus)
    worst = None
    for removed in itertools.combinations(range(n), min(alpha, n)):
        values = union([r for r in range(n) if r not in removed])
        worst = values if worst is None else np.minimum(worst, values)
    grid = np.broadcast_to(worst, tuple(len(menu) for menu in menus))
    index = np.unravel_index(int(np.argmax(grid)), grid.shape)
    best_set = frozenset(menu[i] for menu, i in zip(menus, index))
    return PlanResult(
        selected=best_set,
        trace=None,
        oracle_calls=work,
        maxmin_value=attack_optimal(objective, best_set, alpha).surviving_value,
    )


PLANNER_NAMES = ("resilient", "greedy", "random", "brute-force")


def get_planner(name: str):
    """Uniform ``(matroid, objective, alpha, rng) -> PlanResult`` adapter."""
    if name == "resilient":
        return lambda matroid, objective, alpha, rng: plan_resilient(matroid, objective, alpha)
    if name == "greedy":
        return lambda matroid, objective, alpha, rng: plan_greedy(matroid, objective)
    if name == "random":
        return lambda matroid, objective, alpha, rng: plan_random(matroid, rng)
    if name == "brute-force":
        return lambda matroid, objective, alpha, rng: plan_bruteforce_maxmin(
            matroid, objective, alpha
        )
    raise ValueError(f"unknown planner {name!r}; expected one of {PLANNER_NAMES}")

"""Hand-rolled reference oracles used to cross-check the library.

Everything here prefers the most literal possible enumeration over speed and
shares no code paths with the package under test beyond the objective
callables it is handed.  Blocks are plain {robot: [trajectory, ...]} dicts.
"""

import itertools
import math

import numpy as np


def all_bases(blocks):
    """Every one-per-robot selection, robots in sorted id order."""
    menus = [blocks[robot] for robot in sorted(blocks)]
    return [frozenset(combo) for combo in itertools.product(*menus)]


def attack_bruteforce(f, members, alpha):
    """Worst removal over every subset of size 0..alpha (literal definition)."""
    members = frozenset(members)
    ordered = sorted(members)
    best_value = math.inf
    best_removed = None
    for size in range(0, min(alpha, len(ordered)) + 1):
        for combo in itertools.combinations(ordered, size):
            value = f(members - frozenset(combo))
            if value < best_value:
                best_value = value
                best_removed = frozenset(combo)
    return best_value, best_removed


def maxmin_bruteforce(blocks, f, alpha):
    """max over bases of min over removals; nested exhaustive loops."""
    best_value = -math.inf
    best_basis = None
    for basis in all_bases(blocks):
        worst, _ = attack_bruteforce(f, basis, alpha)
        if worst > best_value:
            best_value = worst
            best_basis = basis
    return best_value, best_basis


def resilient_literal(blocks, f, alpha):
    """The two-phase resilient selection as stated, with no cache or pruning.

    Bait: scan every element by descending singleton value (ground order on
    ties) and admit it while the bait stays independent and no larger than
    ``alpha``.  Fill: every round re-evaluates f(fill + e) for each element
    e of T \\ bait not yet scanned, scans the first maximum in ground order
    (f(fill) is common to all, so this ranks by marginal gain against the
    fill alone) and admits it when bait + fill + e stays independent,
    rejecting it otherwise, until every element has been scanned.  Returns
    (bait, fill) as tuples; ``alpha = 0`` is the plain matroid greedy.
    """
    ground = [tid for robot in sorted(blocks) for tid in blocks[robot]]
    robot_of = {tid: robot for robot in blocks for tid in blocks[robot]}
    singleton = {tid: f(frozenset([tid])) for tid in ground}
    bait = []
    for tid in sorted(ground, key=lambda t: (-singleton[t], ground.index(t))):
        if len(bait) < alpha and robot_of[tid] not in {robot_of[b] for b in bait}:
            bait.append(tid)
    fill = []
    unscanned = [tid for tid in ground if tid not in bait]
    while unscanned:
        best = None
        for tid in unscanned:
            value = f(frozenset(fill + [tid]))
            if best is None or value > best_value:
                best, best_value = tid, value
        unscanned.remove(best)
        if robot_of[best] not in {robot_of[t] for t in bait + fill}:
            fill.append(best)
    return tuple(bait), tuple(fill)


def curvature_bruteforce(blocks, f):
    """1 - min over bases S and members s of (f(S) - f(S - s)) / f({s}).

    Members whose singleton value is zero are skipped.  Returns None when
    nothing is usable (the degenerate case).
    """
    best_ratio = math.inf
    for basis in all_bases(blocks):
        full = f(basis)
        for member in basis:
            single = f(frozenset([member]))
            if single == 0:
                continue
            ratio = (full - f(basis - {member})) / single
            if ratio < best_ratio:
                best_ratio = ratio
    if best_ratio is math.inf:
        return None
    return 1.0 - best_ratio


def _normal_cdf(z):
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def inclusion_exclusion_union_mass(beliefs, rects):
    """Sum over beliefs of P(position in the union of rects).

    Literal inclusion-exclusion: every nonempty subset of ``rects``
    contributes the Gaussian mass of its (closed) intersection with sign
    (-1)^(|subset| + 1); subsets whose intersection is empty contribute
    nothing.  ``beliefs`` need ``mean.x``, ``mean.y``, ``std_x``, ``std_y``.
    """
    boxes = [(r.x_min, r.x_max, r.y_min, r.y_max) for r in rects]
    total = 0.0
    for b in beliefs:
        for size in range(1, len(boxes) + 1):
            sign = 1.0 if size % 2 else -1.0
            for combo in itertools.combinations(boxes, size):
                x_lo = max(box[0] for box in combo)
                x_hi = min(box[1] for box in combo)
                y_lo = max(box[2] for box in combo)
                y_hi = min(box[3] for box in combo)
                if x_lo > x_hi or y_lo > y_hi:
                    continue
                px = _normal_cdf((x_hi - b.mean.x) / b.std_x) - _normal_cdf(
                    (x_lo - b.mean.x) / b.std_x
                )
                py = _normal_cdf((y_hi - b.mean.y) / b.std_y) - _normal_cdf(
                    (y_lo - b.mean.y) / b.std_y
                )
                total += sign * px * py
    return total


def mc_union_mass(rng, mean_x, mean_y, std_x, std_y, rects, samples):
    """Monte Carlo estimate of P(point in union) with its standard error.

    A sample counts when it lies in any of the closed ``rects``.
    """
    xs = rng.normal(mean_x, std_x, size=samples)
    ys = rng.normal(mean_y, std_y, size=samples)
    inside = np.zeros(samples, dtype=bool)
    for r in rects:
        inside |= (r.x_min <= xs) & (xs <= r.x_max) & (r.y_min <= ys) & (ys <= r.y_max)
    p_hat = int(inside.sum()) / samples
    se = math.sqrt(p_hat * (1.0 - p_hat) / samples)
    return p_hat, se


def riccati_posteriors(p0, q, r, steps):
    """Posterior variance sequence of the scalar filter, recursed directly."""
    out = []
    p = p0
    for _ in range(steps):
        prior = p + q
        p = prior * r / (prior + r) if prior + r > 0 else 0.0
        out.append(p)
    return out


def riccati_fixed_point(q, r):
    """Positive root of p**2 + q*p - q*r = 0 (steady-state posterior)."""
    return (-q + math.sqrt(q * q + 4.0 * q * r)) / 2.0

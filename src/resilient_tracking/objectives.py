"""Tracking objectives over sets of trajectories, plus property checkers.

Two set functions are provided, both normalized (f(empty) = 0), monotone
nondecreasing and submodular:

- :class:`CoverageCount`: number of targets inside the union of the
  selected trajectories' coverage rectangles (closed rectangles, integer
  valued).
- :class:`ExpectedDetections`: sum over targets of the probability that the
  target lies in the union, under independent axis-aligned Gaussian
  position beliefs.  The union mass is exact on the coordinate-compressed
  grid of all menu rectangle edges (at most 2R lines per axis for R
  rectangles): each grid cell's mass is a product of two 1D normal CDF
  differences, the beliefs fold into one weight per cell at construction,
  and evaluation is one dot product of the covered-cell mask with those
  weights, linear in the grid size whatever the set size.

Both are built from arrays: the trajectory ids in ground order, their
coverage rectangles as one ``(T, 4)`` array of ``(x_min, x_max, y_min,
y_max)`` rows, and the targets (or the belief means and standard
deviations) as ``(m, 2)`` arrays.

Objective protocol
------------------
An objective is any object with ``evaluate(members) -> float``; planners,
attacks, the analysis and the property checkers call that method and
nothing else.  The objective classes are deliberately not callable: the
benchmark's tracer and its ``--fault perturb`` control replace
``evaluate`` on the class, so an evaluation that bypassed the method would
go unseen by both.

``check_monotone`` and ``check_submodular`` are seeded sampling drivers that
hunt for violations of the two properties over the whole power set of the
ground set; they return the violations found (empty list = clean run).

``basis_grid`` lays an objective out on the grid of all bases, one axis
per robot menu, so the exact max-min and the exact curvature score every
basis at once.  It is the one place that depends on the objective: a
:class:`CoverageCount` ORs and counts its packed masks there
(``menu_tables`` and ``grid_union_counts``), and any other objective is
evaluated once per combination of the listed robots' menus.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import MissingCoverageRect

# Absolute slack for the monotonicity / submodularity checks.
PROPERTY_TOLERANCE = 1e-9

_SQRT2 = math.sqrt(2.0)


def normal_cdf(z):
    """Standard normal CDF via the complementary error function.

    Accepts scalars or numpy arrays; absolute error is far below 1e-12 over
    the |z| <= 8 range the rectangle masses ever see.  scipy is imported on
    first use: it is most of the package's import time, and only
    :class:`ExpectedDetections` needs it.
    """
    from scipy.special import erfc

    return 0.5 * erfc(-z / _SQRT2)


def _bounds(ids: Sequence[str], bounds) -> np.ndarray:
    """``bounds`` as a ``(T, 4)`` array with one row per id."""
    bounds = np.asarray(bounds, dtype=float).reshape(-1, 4)
    if len(bounds) != len(ids):
        raise ValueError(f"{len(ids)} trajectory ids but {len(bounds)} coverage rectangles")
    return bounds


class CoverageCount:
    """Number of targets covered by the union of selected rectangles.

    Deterministic and integer valued; precomputes one coverage bitmask per
    trajectory so evaluation is O(|S|) regardless of the target count.
    ``menu_tables`` packs the same bitmasks into ``uint64`` words for the
    batched exact enumerations.  ``targets`` is ``(m, 2)``, and ``bounds``
    holds the rectangle ``(x_min, x_max, y_min, y_max)`` of ``ids[g]`` in
    row ``g``.
    """

    def __init__(self, targets, ids: Sequence[str], bounds):
        x, y = np.asarray(targets, dtype=float).reshape(-1, 2).T
        x_min, x_max, y_min, y_max = _bounds(ids, bounds).T[:, :, None]
        # (rects, targets): closed rectangles, boundary points covered
        inside = (x_min <= x) & (x <= x_max) & (y_min <= y) & (y <= y_max)
        packed = np.packbits(inside, axis=1, bitorder="little").tolist()
        self._words = max(1, -(-len(x) // 64))
        self._masks = {
            tid: int.from_bytes(bytes(row), "little") for tid, row in zip(ids, packed)
        }

    def evaluate(self, members: Iterable[str]) -> int:
        union = 0
        for tid in members:
            try:
                union |= self._masks[tid]
            except KeyError:
                raise MissingCoverageRect(
                    f"no coverage rectangle for trajectory {tid!r}"
                ) from None
        return union.bit_count()

    def menu_tables(self, menus: Sequence[Sequence[str]]) -> list[np.ndarray]:
        """Packed coverage masks of each menu, laid out on the basis grid.

        The grid has one axis per menu, so a grid point is one basis and
        C order over the grid is ``PartitionMatroid.enumerate_bases`` order.
        Menu ``r``'s table has shape ``(1,)*r + (len(menus[r]),) +
        (1,)*(n-r-1) + (W,)``: ``W = ceil(m / 64)`` ``uint64`` words per
        trajectory, target ``j`` in bit ``j % 64`` of word ``j // 64``.
        """
        words = self._words
        tables = []
        for r, menu in enumerate(menus):
            packed = b"".join(
                self._mask(tid).to_bytes(8 * words, "little") for tid in menu
            )
            shape = (1,) * r + (len(menu),) + (1,) * (len(menus) - r - 1) + (words,)
            tables.append(np.frombuffer(packed, dtype="<u8").reshape(shape))
        return tables

    def _mask(self, tid: str) -> int:
        try:
            return self._masks[tid]
        except KeyError:
            raise MissingCoverageRect(
                f"no coverage rectangle for trajectory {tid!r}"
            ) from None


def grid_union_counts(tables: Sequence[np.ndarray], ndim: int) -> np.ndarray:
    """Covered-target count of the union of ``tables`` at every grid point.

    ``tables`` is a subset of one :meth:`CoverageCount.menu_tables` result
    on an ``ndim``-axis grid.  The counts broadcast over the grid: an axis
    whose menu is not in ``tables`` has size 1 (every axis when ``tables``
    is empty, where the count is 0).  Words are OR-ed and counted one at a
    time, so the work space is one word per grid point whatever ``W`` is.
    """
    counts = np.zeros((1,) * ndim, dtype=np.int64)
    if not tables:
        return counts
    for w in range(tables[0].shape[-1]):
        union = tables[0][..., w]
        for table in tables[1:]:
            union = union | table[..., w]
        counts = counts + np.bitwise_count(union)
    return counts


def basis_grid(objective, menus: Sequence[Sequence[str]]):
    """``union(robots)``: the objective on the union of the listed robots' picks.

    ``menus`` are the robot menus in robot order, so a point of the grid
    (one axis per menu) is one basis and C order over the grid is
    ``PartitionMatroid.enumerate_bases`` order.  ``union`` takes robot
    indices in increasing order and returns the objective's value for every
    combination of their menus, broadcast over the grid: the listed robots'
    axes have their menu sizes, every other axis size 1.  No robots gives
    ``f(empty)`` at every point.
    """
    ndim = len(menus)
    if isinstance(objective, CoverageCount):
        tables = objective.menu_tables(menus)
        return lambda robots: grid_union_counts([tables[r] for r in robots], ndim)

    def union(robots):
        shape = [1] * ndim
        for r in robots:
            shape[r] = len(menus[r])
        values = [
            objective.evaluate(frozenset(combo))
            for combo in itertools.product(*(menus[r] for r in robots))
        ]
        return np.array(values, dtype=float).reshape(shape)

    return union


class ExpectedDetections:
    """Expected number of targets inside the union of selected rectangles.

    The union mass is exact on a coordinate-compressed grid.  Every menu
    rectangle edge is a grid line, so each grid cell lies wholly inside or
    wholly outside any union of menu rectangles, and a cell's mass under an
    axis-aligned Gaussian belief is the product of its two per-axis CDF
    differences.  Construction sums those products over the beliefs into
    one weight per cell; evaluation paints the selected rectangles' cell
    spans into a boolean grid and takes its dot product with the weights.

    The dot product always runs over every cell, so a set's value depends
    only on which cells it covers, never on how many: a trajectory that
    adds no new cell leaves the value bit for bit unchanged.

    ``means`` and ``stds`` are ``(m, 2)``: one belief per row, its mean and
    standard deviation per axis.  ``bounds`` holds the coverage rectangle of
    ``ids[g]`` in row ``g``.
    """

    def __init__(self, means, stds, ids: Sequence[str], bounds):
        means = np.asarray(means, dtype=float).reshape(-1, 2)
        stds = np.asarray(stds, dtype=float).reshape(-1, 2)
        if not (np.isfinite(means).all() and ((0 < stds) & (stds < np.inf)).all()):
            raise ValueError(
                "belief means must be finite and standard deviations positive and finite"
            )
        edges = _bounds(ids, bounds)
        xs = np.unique(edges[:, :2])
        ys = np.unique(edges[:, 2:])
        # cell (i, j) is [xs[i], xs[i+1]] x [ys[j], ys[j+1]]
        x_spans = np.searchsorted(xs, edges[:, :2]).tolist()
        y_spans = np.searchsorted(ys, edges[:, 2:]).tolist()
        self._spans = {
            tid: (slice(*x_span), slice(*y_span))
            for tid, x_span, y_span in zip(ids, x_spans, y_spans)
        }
        mu_x, mu_y = means.T[:, :, None]
        sd_x, sd_y = stds.T[:, :, None]
        # per-belief CDF differences across each axis' cells: (beliefs, cells)
        dpx = np.diff(normal_cdf((xs - mu_x) / sd_x), axis=1)
        dpy = np.diff(normal_cdf((ys - mu_y) / sd_y), axis=1)
        self._shape = (dpx.shape[1], dpy.shape[1])
        self._weights = (dpx.T @ dpy).ravel()

    def evaluate(self, members: Iterable[str]) -> float:
        covered = np.zeros(self._shape, dtype=bool)
        for tid in members:
            try:
                covered[self._spans[tid]] = True
            except KeyError:
                raise MissingCoverageRect(
                    f"no coverage rectangle for trajectory {tid!r}"
                ) from None
        return float(np.dot(covered.ravel(), self._weights))


@dataclass(frozen=True)
class PropertyViolation:
    """One counterexample found by a property checker."""

    kind: str  # "monotone" or "submodular"
    smaller: frozenset
    larger: frozenset
    element: str | None
    lhs: float
    rhs: float


def _nested_pair(rng, ground):
    """A strictly nested pair (S, S') with S a proper subset of S'."""
    n = len(ground)
    outer_size = int(rng.integers(1, n + 1))
    outer_idx = rng.choice(n, size=outer_size, replace=False)
    inner_size = int(rng.integers(0, outer_size))
    inner_idx = rng.choice(outer_idx, size=inner_size, replace=False)
    outer = frozenset(ground[i] for i in outer_idx)
    inner = frozenset(ground[i] for i in inner_idx)
    return inner, outer


def check_monotone(objective, matroid, trials: int, rng_seed: int) -> list[PropertyViolation]:
    """Sample strictly nested pairs S < S' and flag any f(S) > f(S').

    A clean run returns []; for a deliberately decreasing function every
    trial is a violation because the pairs are strictly nested.
    """
    f = objective.evaluate
    ground = list(matroid.ground_set)
    rng = np.random.default_rng(rng_seed)
    violations = []
    for _ in range(trials):
        inner, outer = _nested_pair(rng, ground)
        lo, hi = f(inner), f(outer)
        if lo > hi + PROPERTY_TOLERANCE:
            violations.append(
                PropertyViolation("monotone", inner, outer, None, float(lo), float(hi))
            )
    return violations


def check_submodular(objective, matroid, trials: int, rng_seed: int) -> list[PropertyViolation]:
    """Sample S < S' and s outside S'; flag any diminishing-returns failure.

    Checks f(S + s) - f(S) >= f(S' + s) - f(S') within tolerance.
    """
    f = objective.evaluate
    ground = list(matroid.ground_set)
    if len(ground) < 2:
        raise ValueError("submodularity sampling needs at least two elements")
    rng = np.random.default_rng(rng_seed)
    violations = []
    for _ in range(trials):
        extra_pos = int(rng.integers(len(ground)))
        extra = ground[extra_pos]
        rest = ground[:extra_pos] + ground[extra_pos + 1 :]
        inner, outer = _nested_pair(rng, rest)
        gain_small = f(inner | {extra}) - f(inner)
        gain_large = f(outer | {extra}) - f(outer)
        if gain_small < gain_large - PROPERTY_TOLERANCE:
            violations.append(
                PropertyViolation(
                    "submodular", inner, outer, extra, float(gain_small), float(gain_large)
                )
            )
    return violations

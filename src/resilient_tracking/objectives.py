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

``CoverageCount.menu_tables`` and ``grid_union_counts`` lay the coverage
masks out on the grid of all bases, one axis per robot menu, so the exact
enumerations in the planners and the analysis can score every basis at once
instead of calling ``evaluate`` per basis.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

from .errors import MissingCoverageRect
from .geometry import Point2, Rect

# Absolute slack for the monotonicity / submodularity checks.
PROPERTY_TOLERANCE = 1e-9

_SQRT2 = math.sqrt(2.0)


def normal_cdf(z):
    """Standard normal CDF via the complementary error function.

    Accepts scalars or numpy arrays; absolute error is far below 1e-12 over
    the |z| <= 8 range the rectangle masses ever see.
    """
    return 0.5 * erfc(-z / _SQRT2)


class CoverageCount:
    """Number of targets covered by the union of selected rectangles.

    Deterministic and integer valued; precomputes one coverage bitmask per
    trajectory so evaluation is O(|S|) regardless of the target count.
    ``menu_tables`` packs the same bitmasks into ``uint64`` words for the
    batched exact enumerations.
    """

    def __init__(self, targets: Sequence[Point2], rects: Mapping[str, Rect]):
        self.targets = tuple(targets)
        x = np.array([p.x for p in self.targets], dtype=float)
        y = np.array([p.y for p in self.targets], dtype=float)
        bounds = np.array(
            [(r.x_min, r.x_max, r.y_min, r.y_max) for r in rects.values()], dtype=float
        )
        x_min, x_max, y_min, y_max = bounds.reshape(-1, 4, 1).transpose(1, 0, 2)
        # (rects, targets): the closed-rectangle test of Rect.contains
        inside = (x_min <= x) & (x <= x_max) & (y_min <= y) & (y <= y_max)
        packed = np.packbits(inside, axis=1, bitorder="little").tolist()
        self._masks = {
            tid: int.from_bytes(bytes(row), "little") for tid, row in zip(rects, packed)
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
        words = max(1, -(-len(self.targets) // 64))
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


@dataclass(frozen=True)
class GaussianTargetBelief:
    """Axis-aligned Gaussian position belief for one target."""

    target_id: str
    mean: Point2
    std_x: float
    std_y: float

    def __post_init__(self):
        if not (self.std_x > 0 and math.isfinite(self.std_x)):
            raise ValueError(f"std_x must be positive, got {self.std_x}")
        if not (self.std_y > 0 and math.isfinite(self.std_y)):
            raise ValueError(f"std_y must be positive, got {self.std_y}")


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
    adds no new cell leaves the value bit for bit unchanged.  Evaluations
    are memoized per trajectory set; the memo never changes observable
    values because the function is deterministic for fixed beliefs and
    rectangles.
    """

    def __init__(self, beliefs: Sequence[GaussianTargetBelief], rects: Mapping[str, Rect]):
        self.beliefs = tuple(beliefs)
        edges = np.array(
            [(r.x_min, r.x_max, r.y_min, r.y_max) for r in rects.values()], dtype=float
        ).reshape(-1, 4)
        xs = np.unique(edges[:, :2])
        ys = np.unique(edges[:, 2:])
        # cell (i, j) is [xs[i], xs[i+1]] x [ys[j], ys[j+1]]
        x_spans = np.searchsorted(xs, edges[:, :2]).tolist()
        y_spans = np.searchsorted(ys, edges[:, 2:]).tolist()
        self._spans = {
            tid: (slice(*x_span), slice(*y_span))
            for tid, x_span, y_span in zip(rects, x_spans, y_spans)
        }
        moments = np.array(
            [(b.mean.x, b.mean.y, b.std_x, b.std_y) for b in self.beliefs], dtype=float
        ).reshape(-1, 4)
        mu_x, mu_y, sd_x, sd_y = moments.T[:, :, None]
        # per-belief CDF differences across each axis' cells: (beliefs, cells)
        dpx = np.diff(normal_cdf((xs - mu_x) / sd_x), axis=1)
        dpy = np.diff(normal_cdf((ys - mu_y) / sd_y), axis=1)
        self._shape = (dpx.shape[1], dpy.shape[1])
        self._weights = (dpx.T @ dpy).ravel()
        self._cache: dict[frozenset, float] = {}

    def evaluate(self, members: Iterable[str]) -> float:
        selected = frozenset(members)
        hit = self._cache.get(selected)
        if hit is not None:
            return hit
        covered = np.zeros(self._shape, dtype=bool)
        for tid in selected:
            try:
                covered[self._spans[tid]] = True
            except KeyError:
                raise MissingCoverageRect(
                    f"no coverage rectangle for trajectory {tid!r}"
                ) from None
        value = float(np.dot(covered.ravel(), self._weights))
        self._cache[selected] = value
        return value


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

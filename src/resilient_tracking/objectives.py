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
  weights, linear in the grid size whatever the set size.  Construction
  makes one pass: the grid lines are the sorted distinct edges, each
  rectangle's cell span is two dict lookups, and one normal CDF call over
  both axes' lines gives every belief's per-axis differences by slicing.
  The weights are bit-identical to the literal construction
  (``np.unique``, ``searchsorted``, one CDF pass per axis, ``np.diff``)
  kept in ``tests/oracles.py``.

Both are built from arrays: the trajectory ids in ground order, their
coverage rectangles as one ``(T, 4)`` array of ``(x_min, x_max, y_min,
y_max)`` rows, and the targets (or the belief means and standard
deviations) as ``(m, 2)`` arrays.

Objective protocol
------------------
An objective is any object with ``evaluate(members) -> float``.  Choices
are scored with :func:`evaluate_all`, which takes a list of sets and
returns their values in order: the planners' singleton pass and fill
rounds, the attacks' candidate removals (an attack's surviving value is
its chosen set's score) and the exhaustive enumerations of any objective
but :class:`CoverageCount`.  An object with an ``evaluate_all`` method
scores the sets itself; any other object is evaluated one set at a time
through ``evaluate``.

Each objective class has one scoring implementation, its ``evaluate_all``
method, and its ``evaluate`` is the one-set case of it, so a set's value
is the same bit for bit however it is asked for.  ``evaluate`` serves the
values reported on their own: a selection's full value, the curvature,
the property checks.  The objective classes are deliberately not
callable: the benchmark's tracer and its ``--fault perturb`` control
replace ``evaluate`` on the class, so a value that bypassed the method
would go unseen by both.  They therefore see reported values only, not
the scoring of choices.

``check_monotone`` and ``check_submodular`` are seeded sampling drivers that
hunt for violations of the two properties over the whole power set of the
ground set; they return the violations found (empty list = clean run).

``basis_grid`` lays an objective out on the grid of all bases, one axis
per robot menu, so the exact max-min and the exact curvature score every
basis at once.  It is the one place that depends on the objective: a
:class:`CoverageCount` ORs and counts its packed masks there
(``menu_tables`` and ``grid_union_counts``), and any other objective
scores every combination of the listed robots' menus with
:func:`evaluate_all`.
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

# Cells painted at once by ExpectedDetections.evaluate_all (2 MiB of
# float64): 400 singletons on a 100-robot grid would otherwise take 509 MB.
BLOCK_CELLS = 1 << 18

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


def _missing_rect(tid: str) -> MissingCoverageRect:
    return MissingCoverageRect(f"no coverage rectangle for trajectory {tid!r}")


def _bounds(ids: Sequence[str], bounds) -> np.ndarray:
    """``bounds`` as a ``(T, 4)`` array with one row per id.

    Infinite edges are allowed; a NaN edge is refused, naming its trajectory.
    """
    bounds = np.asarray(bounds, dtype=float).reshape(-1, 4)
    if len(bounds) != len(ids):
        raise ValueError(f"{len(ids)} trajectory ids but {len(bounds)} coverage rectangles")
    nan = np.isnan(bounds)
    if nan.any():
        tid = ids[int(nan.any(axis=1).argmax())]
        raise ValueError(f"coverage rectangle of trajectory {tid!r} has a NaN bound")
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
        return self.evaluate_all((members,))[0]

    def evaluate_all(self, sets: Iterable[Iterable[str]]) -> list[int]:
        """The covered-target count of each of ``sets``, in order."""
        masks = self._masks
        values = []
        try:
            for members in sets:
                union = 0
                for tid in members:
                    union |= masks[tid]
                values.append(union.bit_count())
        except KeyError as missing:
            raise _missing_rect(missing.args[0]) from None
        return values

    def menu_tables(self, menus: Sequence[Sequence[str]]) -> list[np.ndarray]:
        """Packed coverage masks of each menu, laid out on the basis grid.

        The grid has one axis per menu, so a grid point is one basis and
        C order over the grid is ``PartitionMatroid.enumerate_bases`` order.
        Menu ``r``'s table has shape ``(1,)*r + (len(menus[r]),) +
        (1,)*(n-r-1) + (W,)``: ``W = ceil(m / 64)`` ``uint64`` words per
        trajectory, target ``j`` in bit ``j % 64`` of word ``j // 64``.
        """
        words, masks = self._words, self._masks
        tables = []
        for r, menu in enumerate(menus):
            try:
                packed = b"".join(masks[tid].to_bytes(8 * words, "little") for tid in menu)
            except KeyError as missing:
                raise _missing_rect(missing.args[0]) from None
            shape = (1,) * r + (len(menu),) + (1,) * (len(menus) - r - 1) + (words,)
            tables.append(np.frombuffer(packed, dtype="<u8").reshape(shape))
        return tables


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
        values = evaluate_all(objective, itertools.product(*(menus[r] for r in robots)))
        return np.array(values, dtype=float).reshape(shape)

    return union


def evaluate_all(objective, sets: Iterable[Iterable[str]]) -> list:
    """The objective on each of ``sets``, in order, bit for bit ``evaluate``'s.

    An objective with an ``evaluate_all`` method scores the sets itself;
    any other object gets one ``evaluate`` call per set, on a ``frozenset``
    of it.  Values come back in the order of ``sets``, so a caller that
    keeps the first maximum or minimum breaks ties as a loop over
    ``evaluate`` would.
    """
    batched = getattr(objective, "evaluate_all", None)
    if batched is not None:
        return batched(sets)
    return [objective.evaluate(frozenset(members)) for members in sets]


class ExpectedDetections:
    """Expected number of targets inside the union of selected rectangles.

    The union mass is exact on a coordinate-compressed grid.  Every menu
    rectangle edge is a grid line, so each grid cell lies wholly inside or
    wholly outside any union of menu rectangles, and a cell's mass under an
    axis-aligned Gaussian belief is the product of its two per-axis CDF
    differences.  Construction sums those products over the beliefs into
    one weight per cell; evaluation paints the selected rectangles' cell
    spans with 1.0 into a zero grid and takes its dot product with the
    weights.

    Construction is one pass.  The grid lines of an axis are its sorted
    distinct edge values, and a rectangle's cell span is the positions of
    its edges among them, looked up in a dict.  One normal CDF call covers
    every belief at every line of both axes, an ``(m, nx + ny)`` array,
    and each axis' cell differences are slices of it.  Every weight is bit
    for bit the one the literal construction in ``tests/oracles.py``
    (``np.unique``, ``searchsorted``, a CDF pass per axis and ``np.diff``)
    gives: the same CDF values, the same differences and the same matrix
    product.

    The dot product always runs over every cell, so a set's value depends
    only on which cells it covers, never on how many: a trajectory that
    adds no new cell leaves the value bit for bit unchanged.
    ``evaluate_all`` paints each set into its own row of a zero block and
    takes the rows' dot products with ``np.vecdot``, whose float64 loop
    makes the same BLAS call per row that ``ndarray.dot`` makes on the row
    alone, so a set's value does not depend on the block it was scored in
    (a matrix product ``block @ weights`` would not promise that).
    ``evaluate`` is the one-set case of ``evaluate_all``.

    ``means`` and ``stds`` are ``(m, 2)``: one belief per row, its mean and
    standard deviation per axis.  ``bounds`` holds the coverage rectangle of
    ``ids[g]`` in row ``g``; its edges may be infinite but not NaN.
    """

    def __init__(self, means, stds, ids: Sequence[str], bounds):
        means = np.asarray(means, dtype=float).reshape(-1, 2)
        stds = np.asarray(stds, dtype=float).reshape(-1, 2)
        if not (np.isfinite(means).all() and ((0 < stds) & (stds < np.inf)).all()):
            raise ValueError(
                "belief means must be finite and standard deviations positive and finite"
            )
        x_min, x_max, y_min, y_max = _bounds(ids, bounds).T.tolist()
        # grid lines: each axis' distinct edges, ascending; cell (i, j) is
        # [xs[i], xs[i+1]] x [ys[j], ys[j+1]]
        xs = sorted({*x_min, *x_max})
        ys = sorted({*y_min, *y_max})
        x_line = dict(zip(xs, range(len(xs))))
        y_line = dict(zip(ys, range(len(ys))))
        self._spans = {
            tid: (slice(x_line[x0], x_line[x1]), slice(y_line[y0], y_line[y1]))
            for tid, x0, x1, y0, y1 in zip(ids, x_min, x_max, y_min, y_max)
        }
        # every belief's CDF at every line of both axes: (beliefs, nx + ny)
        nx = len(xs)
        axes = (nx, len(ys))
        lines = np.array(xs + ys)
        cdf = normal_cdf((lines - np.repeat(means, axes, axis=1)) / np.repeat(stds, axes, axis=1))
        # per-belief CDF differences across each axis' cells: (beliefs, cells)
        dpx = cdf[:, 1:nx] - cdf[:, : nx - 1]
        dpy = cdf[:, nx + 1 :] - cdf[:, nx:-1]
        self._shape = (dpx.shape[1], dpy.shape[1])
        self._weights = (dpx.T @ dpy).ravel()

    def evaluate(self, members: Iterable[str]) -> float:
        return self.evaluate_all((members,))[0]

    def evaluate_all(self, sets: Iterable[Iterable[str]]) -> list[float]:
        """The expected detections of each of ``sets``, in order, one row per set.

        The sets are taken and painted in blocks of at most ``BLOCK_CELLS``
        cells, so the work space stays bounded whatever the number of sets.
        """
        sets = iter(sets)
        spans, weights = self._spans, self._weights
        rows = max(1, BLOCK_CELLS // max(1, weights.size))
        values = []
        while block := list(itertools.islice(sets, rows)):
            covered = np.zeros((len(block), *self._shape))
            try:
                for row, members in enumerate(block):
                    for tid in members:
                        span_x, span_y = spans[tid]
                        covered[row, span_x, span_y] = 1.0
            except KeyError as missing:
                raise _missing_rect(missing.args[0]) from None
            values += np.vecdot(covered.reshape(len(block), weights.size), weights).tolist()
        return values


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

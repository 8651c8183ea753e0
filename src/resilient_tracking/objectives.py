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
An objective subclasses :class:`Objective` and defines ``evaluate(members)
-> float``.  Every other question is a method of the base with a generic
answer from ``evaluate``, and a subclass may override any of them with a
faster rule that returns the same values:

- ``evaluate_all(sets)``, the value of each set in order: the optimal
  attack's candidate removals and the exhaustive enumerations of any
  objective but :class:`CoverageCount`;
- ``evaluate_extensions(base, candidates)``, ``base`` plus each candidate
  in order: the planners' singleton pass;
- ``best_extension(base, candidates)`` and ``best_removal(members)``, the
  ``(position, value)`` of the first maximum over ``base`` plus each
  candidate (a greedy-fill round) and of the first minimum over the
  members less one member (a greedy-attack round).  No candidate or member
  raises ValueError, as ``max()`` and ``min()`` of nothing do;
- ``curvature_sandwich(menus)``, a basis and a member certified in
  polynomial time to attain the least curvature ratio, or None: the bound
  check's curvature, which scores every basis on the grid on None.  The
  base answers None, since ``evaluate`` alone certifies nothing, and an
  override may answer None where its bounds do not meet.

Each objective class has one union rule, so a set's value is the same bit
for bit however it is asked for.  :class:`CoverageCount` counts the bits
of the OR of its members' masks and overrides all five:
``evaluate_extensions`` and ``best_extension`` take the base's union once
and OR each candidate into it; ``best_removal`` ORs the suffixes once from
the back and grows a prefix, so it costs O(k) ORs for k members where
scoring every leave-one-out set costs k(k-1); ``curvature_sandwich``
encloses the least ratio between two bounds on the masks, O(T^2) ANDs for
T trajectories.  :class:`ExpectedDetections` paints its members' cells in
``evaluate_all``, its ``evaluate`` is the one-set case of it, and it
inherits the other four (a sandwich like :class:`CoverageCount`'s seldom
closes on it: Gaussian tails make every pair of rectangles overlap).
``evaluate`` serves the values reported on their own: a selection's full
value, the curvature, the property checks.  The objective classes are
deliberately not callable: the benchmark's tracer and its ``--fault
perturb`` control replace ``evaluate`` on the class, so a value that
bypassed the method would go unseen by both.  They therefore see reported
values only, not the scoring of choices.

``check_monotone`` and ``check_submodular`` are seeded sampling drivers that
hunt for violations of the two properties over the whole power set of the
ground set; they return the violations found (empty list = clean run).

``basis_grid`` lays an objective out on the grid of all bases, one axis
per robot menu, so the exact max-min and the exact curvature score every
basis at once.  It is the one place that depends on the objective.  It
yields the grid in C-order blocks of at most about ``BLOCK_CELLS`` words,
and each block gives two things: every basis's worst case under removal
of a fixed number of robots (one keep/drop recursion over the robots),
and every basis's full and leave-one-out values (prefix and suffix
unions).  The worst case is the keep/drop grid as built, not broadcast:
it has the block's shape unless every robot is removed, is a size-1 grid
only then, and its first ``argmax`` is the first of its broadcast.  A
:class:`CoverageCount` ORs and counts its packed masks there
(``menu_tables``), sharing each OR among all the unions that contain it;
any other objective scores every combination of the listed robots' menus
with its ``evaluate_all``.  A :class:`CoverageCount` also keeps its last
grid that fits in one block, keyed by the block cap and the menus, with
the suffix unions built on it so far, read-only: one world's max-min at
every alpha and its curvature share one layout, and the kept grid is no
larger than one call's peak and lives as long as the objective.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import MissingCoverageRect

# Absolute slack for the monotonicity / submodularity checks.
PROPERTY_TOLERANCE = 1e-9

# Cells painted at once by ExpectedDetections.evaluate_all (2 MiB of
# float64): 400 singletons on a 100-robot grid would otherwise take 509 MB.
# Also the words (uint64 or float64) per basis_grid block: 4**9 bases of
# 16-word masks would otherwise take 32 MiB per array.
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

    A repeated id is refused, naming the first one, since each objective
    keeps one rectangle per id.  Infinite edges are allowed; a NaN edge is
    refused, naming its trajectory.
    """
    bounds = np.asarray(bounds, dtype=float).reshape(-1, 4)
    if len(bounds) != len(ids):
        raise ValueError(f"{len(ids)} trajectory ids but {len(bounds)} coverage rectangles")
    if len(set(ids)) < len(ids):
        tid = next(tid for i, tid in enumerate(ids) if tid in ids[:i])
        raise ValueError(f"trajectory id {tid!r} is repeated")
    nan = np.isnan(bounds)
    if nan.any():
        tid = ids[int(nan.any(axis=1).argmax())]
        raise ValueError(f"coverage rectangle of trajectory {tid!r} has a NaN bound")
    return bounds


def _union(masks: dict, members: Iterable[str]) -> int:
    """The OR of the coverage masks of ``members``; an unknown id raises KeyError.

    :class:`CoverageCount`'s one union rule: a set's value is the bit count
    of this union, whichever method scores it.
    """
    union = 0
    for tid in members:
        union |= masks[tid]
    return union


class Objective:
    """A set function on trajectory ids, asked every question through ``evaluate``.

    A subclass defines ``evaluate(members)``.  Each other method answers
    from ``evaluate`` of exactly the sets it names, in order, and a
    subclass may override it with a faster rule that returns the same
    values, so a caller keeping the first optimum breaks ties alike.
    """

    def evaluate(self, members: Iterable[str]) -> float:
        raise NotImplementedError

    def evaluate_all(self, sets: Iterable[Iterable[str]]) -> list:
        """The value of each of ``sets``, in order: one ``evaluate`` per set, on a frozenset."""
        return [self.evaluate(frozenset(members)) for members in sets]

    def evaluate_extensions(self, base: Sequence[str], candidates: Iterable[str]) -> list:
        """The value of ``base`` plus each of ``candidates``: ``evaluate_all`` of ``(*base, t)``."""
        return self.evaluate_all([(*base, tid) for tid in candidates])

    def best_extension(self, base: Sequence[str], candidates: Iterable[str]) -> tuple:
        """``(position, value)`` of the first maximum of ``evaluate_extensions``."""
        values = self.evaluate_extensions(base, candidates)
        best = max(values)
        return values.index(best), best

    def best_removal(self, members: Iterable[str]) -> tuple:
        """``(position, value)`` of the first minimum over ``members`` less one member.

        The values are ``evaluate_all``'s on the leave-one-out lists in
        member order.
        """
        members = list(members)
        values = self.evaluate_all([members[:i] + members[i + 1 :] for i in range(len(members))])
        best = min(values)
        return values.index(best), best

    def curvature_sandwich(self, menus: Sequence[Sequence[str]]) -> tuple[frozenset, str] | None:
        """A basis and member certified to attain the least curvature ratio, or None.

        None says that the objective has no polynomial certificate, so the
        caller scores every basis on the grid.
        """
        return None


class CoverageCount(Objective):
    """Number of targets covered by the union of selected rectangles.

    Deterministic and integer valued; precomputes one coverage bitmask per
    trajectory so evaluation is O(|S|) regardless of the target count:
    ``evaluate`` counts the bits of one union of its members' masks
    directly, the rule every other method applies to its sets.
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
        # basis_grid's last one-block grid: {(block cap, menus): block}
        self._grids = {}

    def evaluate(self, members: Iterable[str]) -> int:
        """The covered-target count of ``members``: the bit count of their union."""
        try:
            return _union(self._masks, members).bit_count()
        except KeyError as missing:
            raise _missing_rect(missing.args[0]) from None

    def evaluate_all(self, sets: Iterable[Iterable[str]]) -> list[int]:
        """The covered-target count of each of ``sets``, in order."""
        masks = self._masks
        try:
            return [_union(masks, members).bit_count() for members in sets]
        except KeyError as missing:
            raise _missing_rect(missing.args[0]) from None

    def evaluate_extensions(self, base: Iterable[str], candidates: Iterable[str]) -> list[int]:
        """The covered-target count of ``base`` plus each of ``candidates``, in order.

        The base is ORed once and each candidate's mask joins it, so a
        round costs one union of ``base`` and then one OR and one count per
        candidate.  OR is associative, so each value is bit for bit
        ``evaluate_all``'s on ``(*base, t)``.
        """
        masks = self._masks
        try:
            union = _union(masks, base)
            return [(union | masks[tid]).bit_count() for tid in candidates]
        except KeyError as missing:
            raise _missing_rect(missing.args[0]) from None

    def best_extension(self, base: Iterable[str], candidates: Iterable[str]) -> tuple[int, int]:
        """``(position, value)`` of the first maximum of ``evaluate_extensions``.

        The base is ORed once, and a candidate replaces the kept one only
        when its count is strictly larger, so the first maximum wins.  No
        candidate raises ValueError, as ``max()`` of nothing does.
        """
        masks = self._masks
        position, best = -1, -1
        try:
            union = _union(masks, base)
            for i, tid in enumerate(candidates):
                value = (union | masks[tid]).bit_count()
                if value > best:
                    position, best = i, value
        except KeyError as missing:
            raise _missing_rect(missing.args[0]) from None
        if position < 0:
            raise ValueError("best_extension() of no candidates")
        return position, best

    def best_removal(self, members: Iterable[str]) -> tuple[int, int]:
        """``(position, value)`` of the first minimum over ``members`` less one member.

        Member ``i``'s leave-one-out value is the count of the OR of the
        members before it (a prefix, grown one member per step) and those
        after it (a suffix, all built once from the back), so a call costs
        O(k) ORs for k members.  A member replaces the kept one only when
        its value is strictly smaller, so the first minimum wins.  No member
        raises ValueError, as ``min()`` of nothing does.
        """
        try:
            held = [self._masks[tid] for tid in members]
        except KeyError as missing:
            raise _missing_rect(missing.args[0]) from None
        if not held:
            raise ValueError("best_removal() of no members")
        # suffixes[j] is the OR of the last j members
        suffixes = list(itertools.accumulate(reversed(held), operator.or_, initial=0))
        last = len(held) - 1
        position, best, prefix = 0, suffixes[last].bit_count(), held[0]
        for i in range(1, len(held)):
            value = (prefix | suffixes[last - i]).bit_count()
            if value < best:
                position, best = i, value
            prefix |= held[i]
        return position, best

    def curvature_sandwich(self, menus: Sequence[Sequence[str]]) -> tuple[frozenset, str] | None:
        """``(B_s, s)`` attaining the least ``(f(S) - f(S - s)) / f(s)`` over the bases, or None.

        ``menus`` are the robots' menus in robot order.  For each member s of
        robot r with ``f(s) > 0``, two bounds enclose its least gain
        ``f(S) - f(S - s)`` over the bases S that hold it:

        - a floor, ``max(|s - U|, |s| - sum over r' != r of the largest
          |s & t| for t in menu(r'))``, where U is the union of every other
          robot's menu: every ``S - s`` lies inside U, and covers at most the
          sum of its members' overlaps with s (the total curvature of
          Conforti and Cornuejols, 1984, restricted to the partition);
        - an attained gain ``|s - union(B_s - s)|`` on a real basis ``B_s``,
          where each other robot flies its first trajectory of largest
          overlap with s.

        The least floor ratio is at most the least ratio over every basis and
        the least attained ratio at least it.  When the two are equal, the
        member ``s`` first in ground order whose attained ratio is that
        minimum is returned with its basis; otherwise None.  The ratios are
        compared as integers by cross-multiplication, never as floats.  It
        costs O(T^2) mask ANDs for T trajectories, however many bases there
        are.
        """
        masks = self._masks
        try:
            held = [[(masks[tid], tid) for tid in menu] for menu in menus]
        except KeyError as missing:
            raise _missing_rect(missing.args[0]) from None
        unions = [_union(masks, menu) for menu in menus]
        # suffixes[j] is the union of the last j robots' menus
        suffixes = list(itertools.accumulate(reversed(unions), operator.or_, initial=0))
        last = len(held) - 1
        floor = attained = witness = None  # (gain, f(s)) pairs, and [s, *(B_s - s)]
        prefix = 0
        for r, menu in enumerate(held):
            others = prefix | suffixes[last - r]
            prefix |= unions[r]
            rivals = held[:r] + held[r + 1 :]
            for s, sid in menu:
                single = s.bit_count()
                if not single:
                    continue
                shared = rest = 0
                basis = [sid]
                for rival in rivals:
                    most = -1
                    for t, tid in rival:
                        overlap = (s & t).bit_count()
                        if overlap > most:
                            most, pick, picked = overlap, t, tid
                    shared += most
                    rest |= pick
                    basis.append(picked)
                low = max((s & ~others).bit_count(), single - shared)
                gain = (s & ~rest).bit_count()
                if floor is None or low * floor[1] < floor[0] * single:
                    floor = low, single
                if attained is None or gain * attained[1] < attained[0] * single:
                    attained, witness = (gain, single), basis
        if attained is None or floor[0] * attained[1] != attained[0] * floor[1]:
            return None
        return frozenset(witness), witness[0]

    def menu_tables(self, menus: Sequence[Sequence[str]]) -> list[np.ndarray]:
        """Packed coverage masks of each menu, laid out on the basis grid.

        The grid has one axis per menu, so a grid point is one basis and
        C order over the grid is ``PartitionMatroid.enumerate_bases`` order.
        The word axis comes first: menu ``r``'s table has shape ``(W,) +
        (1,)*r + (len(menus[r]),) + (1,)*(n-r-1)``, ``W = ceil(m / 64)``
        ``uint64`` words per trajectory, target ``j`` in bit ``j % 64`` of
        word ``j // 64``.  So a union of tables broadcasts to the grid
        points of its robots with the words outermost, and no operation's
        innermost axis is the word axis.  The tables are read-only views
        of one array.
        """
        words, masks = self._words, self._masks
        try:
            packed = b"".join(
                masks[tid].to_bytes(8 * words, "little") for menu in menus for tid in menu
            )
        except KeyError as missing:
            raise _missing_rect(missing.args[0]) from None
        # (W, trajectories), one C-contiguous copy when there is more than one word
        rows = np.ascontiguousarray(np.frombuffer(packed, dtype="<u8").reshape(-1, words).T)
        rows.flags.writeable = False
        tables, stop = [], 0
        for r, menu in enumerate(menus):
            start, stop = stop, stop + len(menu)
            shape = (words,) + (1,) * r + (len(menu),) + (1,) * (len(menus) - r - 1)
            tables.append(rows[:, start:stop].reshape(shape))
        return tables


def _count(union: np.ndarray) -> np.ndarray:
    """Covered targets at every grid point of a word-first ``union``.

    The per-word counts are summed in the narrowest unsigned type that
    holds ``64 * W``, so the counts are exact and as small as they can be.
    """
    counts = np.bitwise_count(union)
    words = len(counts)
    if words == 1:
        return counts[0]
    return counts.sum(axis=0, dtype=np.min_scalar_type(64 * words))


def _keep_or_drop(block, robot: int, prefix, removals: int):
    """The least value of ``prefix`` joined by robots ``robot..n-1`` less ``removals`` of them.

    Keeping ``robot`` extends the prefix, dropping it spends a removal, and
    the node's value is the elementwise minimum of the two branches, so
    each prefix is built once for every removal set that shares it and a
    minimum below a drop runs on a grid without the dropped robot's axis.
    With no removals left the remaining robots are all kept; when every
    remaining robot must go, the prefix is all that is left.  A module
    function rather than a nested one, which would be a reference cycle
    holding the tables until the cyclic collector runs.
    """
    n = len(block.menus)
    if removals == n - robot:
        return block.finish(prefix, n)
    if removals == 0:
        return block.finish(prefix, robot)
    keep = _keep_or_drop(block, robot + 1, block.keep(prefix, robot), removals)
    drop = _keep_or_drop(block, robot + 1, prefix, removals - 1)
    return np.minimum(keep, drop)


class _GridBlock:
    """One C-order block of the basis grid: the bases of ``menus``.

    A subclass defines ``empty`` (the union of no robots), ``keep(prefix,
    r)`` (the prefix with robot ``r`` added) and ``finish(prefix, r)`` (the
    objective on the prefix together with robots ``r..n-1``, broadcast over
    the block: the axes of the robots in it have their menu sizes, every
    other axis size 1).
    """

    empty = None

    def __init__(self, menus: Sequence[Sequence[str]]):
        self.menus = menus
        self.shape = tuple(map(len, menus))

    def worst_case(self, removals: int) -> np.ndarray:
        """Every basis's least value once any ``removals`` robots are removed.

        The keep/drop grid as built, not broadcast: below ``removals == n``
        some branch keeps each robot, so the grid has the block's shape;
        at ``removals == n`` every robot is dropped and it is the value of
        no robots on a grid of size 1.  Either way its first ``argmax`` is
        the first maximum of its broadcast over the block, since a
        length-1 axis repeats one value.
        """
        return _keep_or_drop(self, 0, self.empty, removals)

    def leave_one_out(self) -> tuple[np.ndarray, list[np.ndarray]]:
        """Every basis's value, and its value without robot ``r`` for each ``r``.

        The value without ``r`` is the union of robots ``0..r-1`` (a
        prefix) and ``r+1..n-1`` (a suffix), and the full value is robot
        0 with the first suffix, so each prefix and suffix is built once.
        """
        n = len(self.menus)
        full = self.finish(self.keep(self.empty, 0), 1)
        prefix, without = self.empty, []
        for r in range(n):
            without.append(self.finish(prefix, r + 1))
            if r + 1 < n:
                prefix = self.keep(prefix, r)
        return full, without


class _CoverageBlock(_GridBlock):
    """A prefix is the OR of its robots' tables (None for no robots).

    ``finish`` ORs the prefix with the suffix ``tables[r:]``; the suffixes
    are built from the last robot back, once, as far as they are asked for.
    Tables and suffixes are read-only, since ``basis_grid`` may hand one
    block to many calls.
    """

    def __init__(self, objective: CoverageCount, menus):
        super().__init__(menus)
        self.tables = objective.menu_tables(menus)
        # _suffixes[j] is the OR of tables[n-1-j:]
        self._suffixes = [self.tables[-1]]

    def keep(self, prefix, r):
        table = self.tables[r]
        return table if prefix is None else prefix | table

    def finish(self, prefix, r):
        n, suffixes = len(self.tables), self._suffixes
        if r == 0:
            # the union of every robot, which only no removals asks for, so
            # no suffix is kept: one-trajectory menus first (they add no
            # axis), then from the last robot back, so that every OR runs
            # along the trailing axes its union already has
            order = sorted(reversed(self.tables), key=lambda table: table.size > len(table))
            return _count(functools.reduce(np.bitwise_or, order))
        if r == n:
            if prefix is None:
                return np.zeros((1,) * n, dtype=np.uint8)
            return _count(prefix)
        while len(suffixes) < n - r:
            suffix = self.tables[n - 1 - len(suffixes)] | suffixes[-1]
            suffix.flags.writeable = False
            suffixes.append(suffix)
        suffix = suffixes[n - 1 - r]
        return _count(suffix if prefix is None else prefix | suffix)


class _SetBlock(_GridBlock):
    """A prefix is a tuple of robots; ``finish`` scores every combination."""

    empty = ()

    def __init__(self, objective, menus):
        super().__init__(menus)
        self.objective = objective

    def keep(self, prefix, r):
        return (*prefix, r)

    def finish(self, prefix, r):
        robots = (*prefix, *range(r, len(self.menus)))
        shape = [1] * len(self.menus)
        for q in robots:
            shape[q] = self.shape[q]
        values = self.objective.evaluate_all(itertools.product(*(self.menus[q] for q in robots)))
        return np.array(values, dtype=float).reshape(shape)


def _block_menus(menus: Sequence[Sequence[str]], cap: int):
    """C-order blocks of the basis grid of ``menus``, as ``(origin, menus)``.

    A block fixes the leading robots' picks, takes a run of the next
    robot's menu and all of every later robot's, so it is a contiguous run
    of C order with at most ``cap`` bases (or one when ``cap`` is smaller);
    ``origin`` is its first basis's grid index.
    """
    n = len(menus)
    split, tail = n, 1
    while split > 0 and tail * len(menus[split - 1]) <= cap:
        split -= 1
        tail *= len(menus[split])
    if split == 0:
        yield (0,) * n, menus
        return
    axis = split - 1
    step = max(1, cap // tail)
    rest = list(menus[split:])
    for lead in itertools.product(*(range(len(menu)) for menu in menus[:axis])):
        fixed = [menu[i : i + 1] for menu, i in zip(menus, lead)]
        for start in range(0, len(menus[axis]), step):
            origin = (*lead, start) + (0,) * len(rest)
            yield origin, fixed + [menus[axis][start : start + step]] + rest


def basis_grid(objective, menus: Sequence[Sequence[str]]):
    """The basis grid of ``menus``, in C-order blocks of bounded size.

    ``menus`` are the robot menus in robot order, so a point of the grid
    (one axis per menu) is one basis and C order over the grid is
    ``PartitionMatroid.enumerate_bases`` order.  Yields ``(origin, block)``
    in C order: ``block.menus`` are the menu runs whose bases the block
    holds, its first basis sits at grid index ``origin``, and
    ``block.worst_case(removals)`` and ``block.leave_one_out()`` score its
    bases.  The worst case comes as built: the block's shape, or a size-1
    grid when every robot is removed; a caller reads its first maximum,
    which is its broadcast's, and adds that position to ``origin``.  A
    block holds at most about ``BLOCK_CELLS`` words: bases times the
    packed words per mask for a :class:`CoverageCount`, bases for any
    other objective.  A caller that keeps a strict running maximum or
    minimum over the blocks in order breaks ties as one pass over the whole
    grid would, by the first basis in C order.

    A :class:`CoverageCount` keeps the grid when it fits in one block, keyed
    by ``(block cap, menus as tuples)``, and hands the same block to every
    later call with that key, so the max-min at each alpha and the
    curvature of one world lay its tables out once, and the suffix unions
    one call built serve the next.  Only the last such grid is kept: the
    cache holds no more than one call holds at its peak, and it lives as
    long as the objective.  Its tables and suffixes are read-only, and no
    block refers back to the objective.  The kept block adds suffixes as
    calls ask for them, so two threads must not enumerate on one objective
    at once.  A grid of several blocks, and any other objective's grid, is
    built anew on every call.
    """
    if isinstance(objective, CoverageCount):
        kind, cap = _CoverageBlock, BLOCK_CELLS // objective._words
        if math.prod(map(len, menus)) <= cap:
            key = (cap, tuple(map(tuple, menus)))
            grids = objective._grids
            if key not in grids:
                grids.clear()
                grids[key] = _CoverageBlock(objective, key[1])
            yield (0,) * len(menus), grids[key]
            return
    else:
        kind, cap = _SetBlock, BLOCK_CELLS
    for origin, run in _block_menus(menus, cap):
        yield origin, kind(objective, run)


class ExpectedDetections(Objective):
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

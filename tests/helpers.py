"""Shared fixtures for the test suite: tiny controlled worlds and objectives."""

import itertools

import numpy as np
from hypothesis import strategies as st

from resilient_tracking.geometry import Rect
from resilient_tracking.matroid import PartitionMatroid
from resilient_tracking.objectives import CoverageCount, ExpectedDetections, Objective

ARENA = Rect(0.0, 10.0, 0.0, 10.0)


def rect_table(rects):
    """The ids and ``(T, 4)`` bounds of a ``{trajectory id: Rect}`` mapping.

    Every test that states rectangles as ``Rect`` objects reaches the
    array-built objectives through here.
    """
    bounds = [(r.x_min, r.x_max, r.y_min, r.y_max) for r in rects.values()]
    return list(rects), np.array(bounds, dtype=float).reshape(-1, 4)


def coverage(targets, rects):
    """``CoverageCount`` of ``(x, y)`` targets over ``{id: Rect}``."""
    return CoverageCount(np.array(targets, dtype=float).reshape(-1, 2), *rect_table(rects))


def expected(beliefs, rects):
    """``ExpectedDetections`` of ``(x, y, std_x, std_y)`` beliefs over ``{id: Rect}``."""
    moments = np.array(beliefs, dtype=float).reshape(-1, 4)
    return ExpectedDetections(moments[:, :2], moments[:, 2:], *rect_table(rects))


def rects_of(instance):
    """A world's coverage rectangles as ``{trajectory id: Rect}``."""
    return {tid: Rect(*row) for tid, row in zip(instance.ids, instance.bounds.tolist())}


def contains(rect, point) -> bool:
    """Whether ``(x, y)`` lies in the closed rectangle (boundary included)."""
    x, y = point
    return rect.x_min <= x <= rect.x_max and rect.y_min <= y <= rect.y_max


def area(rect) -> float:
    return (rect.x_max - rect.x_min) * (rect.y_max - rect.y_min)


def intersection(a, b):
    """Closed intersection of two rectangles, or None when empty.

    Shared edges and corners are nonempty (possibly zero-area)
    intersections because the rectangles are closed.
    """
    x_lo = max(a.x_min, b.x_min)
    x_hi = min(a.x_max, b.x_max)
    y_lo = max(a.y_min, b.y_min)
    y_hi = min(a.y_max, b.y_max)
    if x_lo > x_hi or y_lo > y_hi:
        return None
    return Rect(x_lo, x_hi, y_lo, y_hi)


def record_dict(record) -> dict:
    """A ``RoundRecord`` as JSON-ready plain data."""
    return {
        "round_index": record.round_index,
        "selected": list(record.selected),
        "removed": list(record.removed),
        "f_full": record.f_full,
        "f_attacked": record.f_attacked,
        "attack_rate": record.attack_rate,
        "oracle_calls": record.oracle_calls,
    }


class SetCover(Objective):
    """Test-local coverage objective over explicit per-trajectory target sets.

    Independent of the package's CoverageCount: no rectangles, no bitmasks,
    just set unions.  Useful for hand-designed planning instances.
    """

    def __init__(self, cover):
        self.cover = {tid: frozenset(targets) for tid, targets in cover.items()}

    def evaluate(self, members):
        covered = set()
        for tid in members:
            covered |= self.cover[tid]
        return len(covered)


class SetFunction(Objective):
    """A bare ``set -> value`` function as an ``Objective`` that overrides nothing."""

    def __init__(self, fn):
        self.evaluate = fn


class CountingOracle(Objective):
    """Wraps an objective and counts evaluations.

    An audit counter independent of the planners' own ``oracle_calls``
    tally: ``eval_count`` increments by exactly one per ``evaluate`` call,
    and ``evaluated`` lists the sets in call order.  It inherits every
    other question from ``Objective`` rather than forwarding it to the
    wrapped objective, so each set scored, however it was asked for, is
    one ``evaluate`` call here.
    """

    def __init__(self, objective):
        self._objective = objective
        self.eval_count = 0
        self.evaluated = []

    def evaluate(self, members):
        self.eval_count += 1
        self.evaluated.append(frozenset(members))
        return self._objective.evaluate(self.evaluated[-1])


class Draws:
    """``st.data()`` in an ``@example``: each ``draw`` returns the next of ``values``.

    The values repeat in a cycle, so a test that draws them all gets the
    same ones however often the example runs.
    """

    def __init__(self, *values):
        self._values = itertools.cycle(values)

    def draw(self, strategy, label=None):
        return next(self._values)


# Edges on a half-unit lattice make shared edges, nesting, duplicates and
# zero-width rectangles common.
lattice = st.integers(0, 8).map(lambda k: 0.5 * k)


@st.composite
def boxes(draw):
    x0, x1 = sorted((draw(lattice), draw(lattice)))
    y0, y1 = sorted((draw(lattice), draw(lattice)))
    return Rect(x0, x1, y0, y1)


def bait_trace_instance():
    """Two robots, menus {a, b}: the a's overlap fully (value 3 each), the b's
    are worth 1 each and disjoint from everything.

    Hand trace for alpha=1, worked through the two phases by hand:
    phase 1 scans singletons (3, 3, 1, 1), admits the lexicographically
    first a (r0:a) and nothing else (size cap alpha=1); phase 2 measures
    marginals against the fill alone, so r1:a still gains 3 versus b's 1
    and wins robot r1.  Selection {r0:a, r1:a}, value 3.
    """
    cover = {
        "r0:a": {"x1", "x2", "x3"},
        "r1:a": {"x1", "x2", "x3"},
        "r0:b": {"y0"},
        "r1:b": {"y1"},
    }
    blocks = {"r0": ["r0:a", "r0:b"], "r1": ["r1:a", "r1:b"]}
    expected = {
        "bait": {"r0:a"},
        "selected": frozenset({"r0:a", "r1:a"}),
        "value": 3,
    }
    return PartitionMatroid(blocks), SetCover(cover), expected

"""Shared fixtures for the test suite: tiny controlled worlds and objectives."""

from hypothesis import strategies as st

from resilient_tracking.geometry import Point2, Rect, RobotSpec
from resilient_tracking.matroid import PartitionMatroid
from resilient_tracking.worlds import build_instance

ARENA = Rect(0.0, 10.0, 0.0, 10.0)


class SetCover:
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


class SetFunction:
    """A bare ``set -> value`` function given the objective protocol."""

    def __init__(self, fn):
        self.evaluate = fn


class CountingOracle:
    """Wraps an objective and counts evaluations.

    An audit counter independent of the planners' own ``oracle_calls``
    tally: ``eval_count`` increments by exactly one per ``evaluate`` call.
    """

    def __init__(self, objective):
        self._objective = objective
        self.eval_count = 0

    def evaluate(self, members):
        self.eval_count += 1
        return self._objective.evaluate(frozenset(members))


# Edges on a half-unit lattice make shared edges, nesting, duplicates and
# zero-width rectangles common.
lattice = st.integers(0, 8).map(lambda k: 0.5 * k)


@st.composite
def boxes(draw):
    x0, x1 = sorted((draw(lattice), draw(lattice)))
    y0, y1 = sorted((draw(lattice), draw(lattice)))
    return Rect(x0, x1, y0, y1)


def grid_world(num_robots, targets, fov=3.0, fly=7.0, spacing=2.0):
    """Robots on a horizontal line at the given spacing, explicit targets."""
    robots = [
        RobotSpec(f"r{i:02d}", Point2(i * spacing, 5.0), fov, fly)
        for i in range(num_robots)
    ]
    return build_instance(robots, [Point2(x, y) for x, y in targets])


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

"""Partition matroid over per-robot trajectory menus.

The ground set is the disjoint union of per-robot blocks.  A set of
trajectory ids is independent when it uses at most one trajectory per robot
and is a basis when it uses exactly one per robot.  Robots are ordered by
their (sortable) ids and trajectories by menu position; that canonical
element order drives deterministic tie-breaking and basis enumeration
everywhere in the package.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Mapping, Sequence

from .errors import EnumerationCapExceeded

# Most bases, removal sets or attacked evaluations any exact enumeration
# may visit.
ENUMERATION_CAP = 10**6


def require_enumerable(
    what: str, sizes: Iterable[int] = (), choose: tuple[int, int] = (0, 0)
) -> int:
    """The count ``prod(sizes) * C(n, k)`` of ``what``, for ``choose = (n, k)``.

    Raises :class:`EnumerationCapExceeded` once the count passes
    ``ENUMERATION_CAP``.  A count far past the cap is never formed, and the
    error names ``what`` and the cap, not the count.
    """
    n, k = choose
    k = min(int(k), n - k)
    count = 1
    # no factor is below 1, so stop at the first count past the cap; after
    # the i-th binomial factor the count is prod(sizes) * C(n-k+i, i)
    for size in sizes:
        if count > ENUMERATION_CAP:
            break
        count *= size
    for i in range(1, k + 1):
        if count > ENUMERATION_CAP:
            break
        count = count * (n - k + i) // i
    if count > ENUMERATION_CAP:
        raise EnumerationCapExceeded(f"{what} exceed the enumeration cap of {ENUMERATION_CAP}")
    return count


class PartitionMatroid:
    """Independence structure "at most one trajectory per robot".

    Parameters
    ----------
    blocks:
        Mapping from robot id to that robot's trajectory menu (a non-empty
        sequence of unique trajectory ids).  Blocks must be disjoint.

    ``owner`` maps each trajectory id to its robot and ``index`` to its
    canonical rank, for callers whose ids come from this matroid;
    ``robot_of`` makes the owner lookup and refuses an unknown id.  Like
    ``blocks``, neither changes after construction.
    """

    def __init__(self, blocks: Mapping[str, Sequence[str]]):
        if not blocks:
            raise ValueError("at least one robot block is required")
        robots = tuple(sorted(blocks))
        cleaned: dict[str, tuple[str, ...]] = {}
        robot_of: dict[str, str] = {}
        for robot in robots:
            menu = tuple(blocks[robot])
            if not menu:
                raise ValueError(f"robot {robot!r} has an empty trajectory menu")
            if len(set(menu)) != len(menu):
                raise ValueError(f"robot {robot!r} menu repeats a trajectory id")
            for tid in menu:
                if tid in robot_of:
                    raise ValueError(f"trajectory {tid!r} appears in two blocks")
                robot_of[tid] = robot
            cleaned[robot] = menu
        self.blocks = cleaned
        self.robots = robots
        self.ground_set: tuple[str, ...] = tuple(
            tid for robot in robots for tid in cleaned[robot]
        )
        self.owner: dict[str, str] = robot_of
        self.index = {tid: i for i, tid in enumerate(self.ground_set)}

    @property
    def num_robots(self) -> int:
        return len(self.robots)

    def robot_of(self, trajectory_id: str) -> str:
        try:
            return self.owner[trajectory_id]
        except KeyError:
            raise ValueError(f"unknown trajectory id {trajectory_id!r}") from None

    def is_independent(self, members: Iterable[str]) -> bool:
        """True when ``members`` uses at most one trajectory per robot."""
        seen = set()
        for tid in members:
            robot = self.robot_of(tid)
            if robot in seen:
                return False
            seen.add(robot)
        return True

    def is_basis(self, members: Iterable[str]) -> bool:
        """True when ``members`` uses exactly one trajectory per robot."""
        members = set(members)
        return len(members) == self.num_robots and self.is_independent(members)

    def enumerate_bases(self) -> Iterator[frozenset]:
        """Yield every basis, lexicographically by (robot order, menu order).

        Raises :class:`EnumerationCapExceeded` up front when the basis count
        is beyond ``ENUMERATION_CAP``.
        """
        menus = [self.blocks[r] for r in self.robots]
        require_enumerable("the bases", map(len, menus))

        def generate() -> Iterator[frozenset]:
            for combo in itertools.product(*menus):
                yield frozenset(combo)

        return generate()

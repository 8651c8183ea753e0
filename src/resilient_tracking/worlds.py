"""World builders: four-direction menus, coverage bounds, random worlds.

A world is held in arrays.  Robot positions and targets are ``(k, 2)``
arrays of (x, y) rows, and every candidate trajectory's coverage rectangle
is one row ``(x_min, x_max, y_min, y_max)`` of a ``(T, 4)`` array in
canonical ground order (robots by id, then menu order).  Robot ``i`` has id
``r{i:02d}`` and its trajectory flying direction ``d`` has id
``r{i:02d}:{d}``; ids appear only where planners and results name
trajectories.

Coverage geometry: a robot carries a square field of view of side
``fov_side`` centered on its position.  Flying ``fly_length`` along one of
the four axis directions sweeps that square into a closed axis-aligned
rectangle, ``fly_length + fov_side`` long along the travel axis and
``fov_side`` wide across it.  The starting square is the trailing end and
the final field of view the leading end.  Inputs are validated once at the
boundary (``spec_from_dict``, ``SimConfig``), not here.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .geometry import Direction, Rect, UNIT_STEP
from .matroid import PartitionMatroid

# Menu order; also the trajectory index order used for tie-breaking.
DIRECTION_ORDER = (
    Direction.FORWARD,
    Direction.BACKWARD,
    Direction.LEFT,
    Direction.RIGHT,
)

# Unit step of each direction, one row per menu position.
MENU_STEPS = np.array([UNIT_STEP[d] for d in DIRECTION_ORDER])


def robot_id(index: int) -> str:
    return f"r{index:02d}"


@dataclass(frozen=True)
class WorldInstance:
    """One planning problem.

    ``ids`` is the matroid's ground set, and row ``g`` of ``bounds`` is the
    coverage rectangle of ``ids[g]``.  ``targets`` is ``(m, 2)``.
    """

    ids: tuple[str, ...]
    bounds: np.ndarray
    matroid: PartitionMatroid
    targets: np.ndarray


@functools.lru_cache(maxsize=64)
def _layout(num_robots: int, menus, fly_length: float):
    """The matroid, each trajectory's robot and its flight's bound offsets.

    Everything here depends on the menus and ``fly_length`` only, never on
    positions, so a closed loop builds it once and each round only moves
    the bounds.  A trajectory's offsets are ``min(0, step)`` and ``max(0,
    step)`` per axis, with ``step`` its direction's unit step times
    ``fly_length``.  The cached results are shared by every world with
    these menus and this flight: the arrays are read-only, and nothing
    changes a matroid after construction.
    """
    names = [robot_id(i) for i in range(num_robots)]
    blocks = {}
    robots: list[int] = []
    directions: list[int] = []
    for i in sorted(range(num_robots), key=names.__getitem__):
        menu = DIRECTION_ORDER if menus is None else menus[i]
        blocks[names[i]] = [f"{names[i]}:{d.value}" for d in menu]
        robots += [i] * len(menu)
        directions += [DIRECTION_ORDER.index(d) for d in menu]
    rows = np.array(robots, dtype=np.intp)
    step = MENU_STEPS[directions] * fly_length
    low, high = np.minimum(0.0, step), np.maximum(0.0, step)
    rows.flags.writeable = low.flags.writeable = high.flags.writeable = False
    return PartitionMatroid(blocks), rows, low, high


def build_instance(
    positions,
    targets,
    fov_side: float,
    fly_length: float,
    menus=None,
) -> WorldInstance:
    """Menus, coverage bounds and the matroid for robots at ``positions``.

    ``menus[i]``, when given, lists robot ``i``'s directions in menu order;
    by default every robot gets all four.  Each bound is computed as
    ``position - half + min(0, step)`` and ``position + half + max(0,
    step)`` per axis, with ``step`` the direction's unit step times
    ``fly_length``; the two offsets come cached with the layout.
    """
    positions = np.asarray(positions, dtype=float).reshape(-1, 2)
    key = None if menus is None else tuple(map(tuple, menus))
    matroid, rows, low_offset, high_offset = _layout(len(positions), key, fly_length)
    at = positions[rows]
    half = fov_side / 2.0
    low = at - half + low_offset
    high = at + half + high_offset
    return WorldInstance(
        ids=matroid.ground_set,
        bounds=np.stack((low, high), axis=-1).reshape(-1, 4),
        matroid=matroid,
        targets=np.asarray(targets, dtype=float).reshape(-1, 2),
    )


def sample_instance(
    rng: np.random.Generator,
    num_robots: int,
    num_targets: int,
    fov_side: float,
    fly_length: float,
    arena: Rect,
    menu_sizes: tuple[int, ...] = (4,),
) -> WorldInstance:
    """Random world: robots and targets uniform in the arena.

    ``menu_sizes`` holds the allowed per-robot menu sizes (1 to 4); each
    robot draws a size and keeps that many directions in menu order.  Each
    robot draws its x, its y, its size and then (below four) its directions;
    the targets follow as x, y pairs.
    """
    if any(size < 1 or size > len(DIRECTION_ORDER) for size in menu_sizes):
        raise ValueError(f"menu sizes must be within 1..4, got {menu_sizes}")
    positions = np.empty((num_robots, 2))
    menus = []
    for i in range(num_robots):
        positions[i] = (
            rng.uniform(arena.x_min, arena.x_max),
            rng.uniform(arena.y_min, arena.y_max),
        )
        size = menu_sizes[int(rng.integers(len(menu_sizes)))]
        if size == len(DIRECTION_ORDER):
            menus.append(DIRECTION_ORDER)
        else:
            keep = sorted(rng.choice(len(DIRECTION_ORDER), size=size, replace=False))
            menus.append(tuple(DIRECTION_ORDER[int(k)] for k in keep))
    targets = rng.uniform(
        (arena.x_min, arena.y_min), (arena.x_max, arena.y_max), size=(num_targets, 2)
    )
    return build_instance(positions, targets, fov_side, fly_length, menus)

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
import math
from dataclasses import dataclass

import numpy as np

from .errors import SpecError, require_int, shown
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


# Column of a position's x (0) or y (1) that each bound column starts from.
_BOUND_AXIS = np.array([0, 0, 1, 1], dtype=np.intp)


@functools.lru_cache(maxsize=1024)
def _robot_piece(index: int, menu, fly_length: float):
    """Robot ``index``'s id, block of trajectory ids and bound rows.

    Row ``k`` of the two ``(len(menu), 4)`` arrays belongs to the robot's
    ``k``-th trajectory: where in the flattened ``(n, 2)`` positions each
    bound column reads its coordinate, and the offset added to it,
    ``(min(0, step_x), max(0, step_x), min(0, step_y), max(0, step_y))``
    with ``step`` the direction's unit step times ``fly_length``.  A piece
    depends on its three arguments only, so worlds that miss
    :func:`_layout`'s cache share their robots' pieces.
    """
    name = robot_id(index)
    step = MENU_STEPS[[DIRECTION_ORDER.index(d) for d in menu]] * fly_length
    offsets = np.stack((np.minimum(0.0, step), np.maximum(0.0, step)), axis=-1).reshape(-1, 4)
    coords = np.tile(2 * index + _BOUND_AXIS, (len(menu), 1))
    coords.flags.writeable = offsets.flags.writeable = False
    return name, tuple(f"{name}:{d.value}" for d in menu), coords, offsets


@functools.lru_cache(maxsize=64)
def _layout(num_robots: int, menus, fly_length: float):
    """The matroid and every trajectory's bound rows (see :func:`_robot_piece`).

    Everything here depends on the menus and ``fly_length`` only, never on
    positions, so a closed loop builds it once and each round only moves
    the bounds.  The cached results are shared by every world with these
    menus and this flight: the arrays are read-only, and nothing changes a
    matroid after construction.  The closed loop and the one-step sweep
    give every robot all four directions and hit this cache; sampled
    worlds with partial menus mostly miss it (192 of the bound suite's 200
    worlds do), and a miss assembles its layout from the robots' cached
    pieces.
    """
    pieces = [
        _robot_piece(i, DIRECTION_ORDER if menus is None else menus[i], fly_length)
        for i in sorted(range(num_robots), key=robot_id)
    ]
    # built first: it refuses a world without robots
    matroid = PartitionMatroid({name: ids for name, ids, _, _ in pieces})
    coords = np.concatenate([piece[2] for piece in pieces])
    offsets = np.concatenate([piece[3] for piece in pieces])
    coords.flags.writeable = offsets.flags.writeable = False
    return matroid, coords, offsets


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
    ``fly_length``; the offsets come cached with the layout, and adding
    ``-half`` is subtracting ``half`` bit for bit.
    """
    positions = np.asarray(positions, dtype=float).reshape(-1, 2)
    key = None if menus is None else tuple(map(tuple, menus))
    matroid, coords, offsets = _layout(len(positions), key, fly_length)
    half = fov_side / 2.0
    return WorldInstance(
        ids=matroid.ground_set,
        bounds=positions.ravel().take(coords) + np.array((-half, half, -half, half)) + offsets,
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
    robot draws its x, its y, its size (when more than one is allowed) and
    then (below four) its directions; the targets follow as x, y pairs.  A
    draw from one size would leave the stream as it is, so it is skipped.

    A coordinate is ``low + (high - low) * rng.random()``, which is what
    ``rng.uniform(low, high)`` computes from the same draw, bit for bit,
    without its per-call argument handling; the targets are one
    ``rng.random((m, 2))`` scaled the same way.  Like ``uniform``, an arena
    whose width or height overflows is refused with ``OverflowError``.
    """
    if len(menu_sizes) == 0:
        raise SpecError(f"field 'menu_sizes': expected a size, got {shown(menu_sizes)}")
    for size in menu_sizes:
        require_int(size, "menu_sizes", 1, len(DIRECTION_ORDER))
    # in doubles, as uniform takes them
    x_min, y_min = float(arena.x_min), float(arena.y_min)
    width, height = float(arena.x_max) - x_min, float(arena.y_max) - y_min
    if not math.isfinite(width) or not math.isfinite(height):
        raise OverflowError("high - low range exceeds valid bounds")
    random = rng.random
    positions, menus = [], []
    for _ in range(num_robots):
        positions.append((x_min + width * random(), y_min + height * random()))
        size = menu_sizes[0]
        if len(menu_sizes) > 1:
            size = menu_sizes[int(rng.integers(len(menu_sizes)))]
        if size == len(DIRECTION_ORDER):
            menus.append(DIRECTION_ORDER)
        else:
            keep = sorted(rng.choice(len(DIRECTION_ORDER), size=size, replace=False).tolist())
            menus.append(tuple(DIRECTION_ORDER[k] for k in keep))
    targets = np.array((x_min, y_min)) + np.array((width, height)) * random((num_targets, 2))
    return build_instance(positions, targets, fov_side, fly_length, menus)

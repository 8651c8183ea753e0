"""Multi-round closed-loop tracking simulation.

Targets move as single integrators (position += velocity per round, constant
speed, reflecting at the arena boundary).  Every round every target is
measured with isotropic Gaussian noise and each target's belief is updated
by two independent scalar Kalman filters (one per axis) with an identity
observation model; the velocity estimate used in the predict step is the
finite difference of the last two raw measurements.

The loop's state is held in arrays, one row per target or robot, and every
step acts on all targets at once with the same elementwise arithmetic, in
the same order, as a per-target loop: :class:`TargetState` holds the truth
and the beliefs as ``(m, 2)`` arrays, and the robot positions are one
``(n, 2)`` array.

Each round builds the robots' four-direction menus and coverage bounds from
their current positions, plans once on the expected-detections objective
over current beliefs, and scores every configured attacker against that plan
(an attacked trajectory contributes no coverage this round; the robot still
flies it), advances every robot ``fly_length`` along its selected direction,
and steps the targets.

Time is normalized: one round is one time unit and all rates are per round.
Randomness comes from five named child streams of ``rng_seed`` (world
initialization, target motion, measurements, planner, attacker) so target
trajectories and measurement noise are identical across planner choices
under a shared seed; each attacker draws from its own copy of the attacker
stream, as it would in a run of its own.  :class:`SimConfig` refuses a
scenario whose arithmetic would leave the finite floats or round the belief
variance to zero within its rounds.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .adversary import ATTACKER_NAMES, get_attacker, score_attack
from .geometry import Rect
from .objectives import ExpectedDetections
from .planners import PLANNER_NAMES, get_planner
from .worlds import DIRECTION_ORDER, MENU_STEPS, build_instance, robot_id

DEFAULT_ARENA = Rect(0.0, 10.0, 0.0, 10.0)

# No standard normal draw of numpy's ziggurat sampler exceeds this in
# magnitude: its tail draw r + x (r = 3.6542) needs x**2 < 2 * 53 * log(2).
NORMAL_DRAW_BOUND = 12.3


@dataclass(frozen=True)
class SimConfig:
    """Closed-loop scenario parameters.

    Defaults model four robots tracking thirty targets in a 10 x 10 arena
    with two tolerated failures.  Where the scenario source is silent
    (arena size, target speed, noise levels) the defaults are documented
    assumptions, not derived values.
    """

    num_robots: int = 4
    num_targets: int = 30
    alpha: int = 2
    fov_side: float = 3.0
    fly_length: float = 3.0
    arena: Rect = DEFAULT_ARENA
    rounds: int = 50
    measurement_noise_std: float = 0.1
    process_noise: float = 0.01
    initial_variance: float = 1.0
    target_speed: float = 0.3
    velocity_jitter_std: float = 0.0
    planner: str = "resilient"
    attackers: tuple[str, ...] = ("optimal",)
    rng_seed: int = 0

    def __post_init__(self):
        if self.num_robots < 1:
            raise ValueError(f"num_robots must be at least 1, got {self.num_robots}")
        if self.num_targets < 1:
            raise ValueError(f"num_targets must be at least 1, got {self.num_targets}")
        if not 0 <= self.alpha <= self.num_robots:
            raise ValueError(
                f"alpha must be in [0, {self.num_robots}], got {self.alpha}"
            )
        if not (self.arena.x_min < self.arena.x_max and self.arena.y_min < self.arena.y_max):
            raise ValueError(f"arena must have positive width and height, got {self.arena}")
        if self.fov_side <= 0 or self.fly_length < 0:
            raise ValueError("fov_side must be positive and fly_length nonnegative")
        if self.rounds < 1:
            raise ValueError(f"rounds must be at least 1, got {self.rounds}")
        if not self.measurement_noise_std > 0:
            # a noiseless update drives the belief variance to 0, which no
            # Gaussian belief can carry into the next round's plan
            raise ValueError(
                f"measurement_noise_std must be positive, got {self.measurement_noise_std}"
            )
        if self.process_noise < 0:
            raise ValueError(f"process_noise must be nonnegative, got {self.process_noise}")
        if self.initial_variance <= 0:
            raise ValueError(f"initial_variance must be positive, got {self.initial_variance}")
        if self.target_speed < 0 or self.velocity_jitter_std < 0:
            raise ValueError("target speed and jitter must be nonnegative")
        if self.planner not in PLANNER_NAMES:
            raise ValueError(f"unknown planner {self.planner!r}; expected one of {PLANNER_NAMES}")
        if not self.attackers or not set(self.attackers) <= set(ATTACKER_NAMES):
            raise ValueError(
                f"attackers must be a non-empty tuple of {ATTACKER_NAMES}, got {self.attackers}"
            )
        problem = _arithmetic_problem(self)
        if problem is not None:
            raise ValueError(problem)


def _largest(terms: dict[str, float]) -> str:
    return max(terms, key=lambda k: terms[k] if not math.isnan(terms[k]) else math.inf)


def _arithmetic_problem(c: SimConfig) -> str | None:
    """Why the closed loop's arithmetic would fail within ``c.rounds``, or None.

    The first three checks bound the magnitude of a group of quantities the
    loop computes by a sum of terms, one per field, and refuse when twice
    that sum (headroom for the loop's own round-off) is not finite:

    - coverage bounds: robots start in the arena, fly ``fly_length`` per
      round, and a bound adds half the field of view;
    - target motion: the velocity gains at most one jitter draw per round,
      and folding a position back into the arena works within seven arena
      reaches;
    - measurements and means: a measurement is a position plus one noise
      draw, the velocity estimate a difference of two measurements one
      round apart, and each round's predict step can move the mean by at
      most that difference.

    The belief variance never exceeds its predicted peak
    ``max(initial_variance, r) + process_noise`` with
    ``r = measurement_noise_std**2``.  Where ``r`` is at most half an ulp of
    that peak, the gain rounds to 1 and the posterior variance to 0; with no
    process noise the variance decays to about ``r / (rounds + 1)``, which
    must stay a normal float.  The message names the field of the largest
    term.
    """
    reach = max(abs(c.arena.x_min), abs(c.arena.x_max), abs(c.arena.y_min), abs(c.arena.y_max))
    rounds = float(c.rounds) if c.rounds < 2**1023 else math.inf
    spread = 2.0 * rounds + 4.0
    noise = c.measurement_noise_std * NORMAL_DRAW_BOUND
    for quantity, terms in (
        (
            "coverage rectangles",
            {"arena": reach, "fly_length": rounds * c.fly_length, "fov_side": c.fov_side / 2.0},
        ),
        (
            "target motion",
            {
                "arena": 7.0 * reach,
                "target_speed": c.target_speed,
                "velocity_jitter_std": rounds * c.velocity_jitter_std * NORMAL_DRAW_BOUND,
            },
        ),
        (
            "measurements and belief means",
            {"arena": spread * reach, "measurement_noise_std": spread * noise},
        ),
    ):
        if not math.isfinite(2.0 * sum(terms.values())):
            return (
                f"field {_largest(terms)!r}: {quantity} would leave the float range "
                f"within {c.rounds} rounds"
            )
    try:
        r = c.measurement_noise_std**2
    except OverflowError:
        r = math.inf
    terms = {
        "initial_variance": c.initial_variance,
        "measurement_noise_std": r,
        "process_noise": c.process_noise,
    }
    peak = max(c.initial_variance, r) + c.process_noise
    # the gain's denominator is at most the peak plus r
    if not math.isfinite(peak + r):
        return f"field {_largest(terms)!r}: the belief variance would leave the float range"
    if not r > math.ulp(peak) / 2.0:
        fields = sorted({_largest(terms), "measurement_noise_std"})
        return (
            f"field{'s' * (len(fields) - 1)} {' and '.join(map(repr, fields))}: "
            f"measurement_noise_std**2 = {r:g} is at most half an ulp of the peak "
            f"predicted variance {peak:g}, so the Kalman gain rounds to 1 and the "
            "belief variance to 0"
        )
    if r / (rounds + 1.0) < sys.float_info.min:
        return (
            f"field 'measurement_noise_std': measurement_noise_std**2 = {r:g} lets the "
            f"belief variance underflow within {c.rounds} rounds"
        )
    return None


@dataclass
class TargetState:
    """Ground truth plus the tracker's beliefs, one ``(m, 2)`` row per target.

    ``position`` and ``velocity`` are the truth; ``mean``, ``variance`` and
    ``velocity_estimate`` the per-axis beliefs.  ``last_measurement`` is
    the previous round's measurement of every target.
    """

    position: np.ndarray
    velocity: np.ndarray
    mean: np.ndarray
    variance: np.ndarray
    velocity_estimate: np.ndarray
    last_measurement: np.ndarray


def _reflect(values, lo, hi):
    """Fold coordinates back into [lo, hi]; returns (positions, sign flips).

    Needs ``lo < hi`` (arrays that broadcast against ``values``).  When no
    coordinate is outside, ``values`` come back as they are.  Otherwise only
    the coordinates outside (one or two in a typical round) are folded, one
    at a time, and written into a copy.  A coordinate more than a period
    ``2 * (hi - lo)`` outside first drops whole periods, which flip the sign
    an even number of times; folding a huge value directly can cycle forever
    in floating point.
    """
    outside = (values < lo) | (values > hi)
    flip = np.ones_like(values)
    if not outside.any():
        return values, flip
    at = outside.nonzero()
    # flip is still all ones, so flip * lo is lo at every coordinate
    folded, signs = [], []
    for x, a, b in zip(values[at].tolist(), (flip * lo)[at].tolist(), (flip * hi)[at].tolist()):
        period = 2.0 * (b - a)
        if x < a - period or x > b + period:
            x = a + float(np.fmod(x - a, period))
        sign = 1.0
        # small per-round steps need at most a couple of folds
        while x < a or x > b:
            x = 2 * a - x if x < a else 2 * b - x
            sign = -sign
        folded.append(x)
        signs.append(sign)
    values = values.copy()
    values[at] = folded
    flip[at] = signs
    return values, flip


def step_targets(state: TargetState, config: SimConfig, rng: np.random.Generator):
    """Advance every target one round, reflecting at the arena boundary.

    With jitter, each target's velocity draws one normal per axis, target
    by target.
    """
    velocity = state.velocity
    if config.velocity_jitter_std > 0:
        velocity = velocity + rng.normal(0.0, config.velocity_jitter_std, size=velocity.shape)
    arena = config.arena
    state.position, flip = _reflect(
        state.position + velocity,
        np.array((arena.x_min, arena.y_min)),
        np.array((arena.x_max, arena.y_max)),
    )
    state.velocity = velocity * flip
    return state


def measure(state: TargetState, noise_std: float, rng: np.random.Generator) -> np.ndarray:
    """Noisy position measurement of every target (all targets, every round)."""
    return state.position + noise_std * rng.normal(0.0, 1.0, size=state.position.shape)


def kalman_update(state: TargetState, z: np.ndarray, config: SimConfig):
    """Per-axis Kalman predict/update plus finite-difference velocity refresh.

    Every target is measured every round, so the velocity estimate is the
    difference of two consecutive measurements.
    """
    r = config.measurement_noise_std**2
    mean = state.mean + state.velocity_estimate
    variance = state.variance + config.process_noise
    gain = variance / (variance + r)
    state.mean = mean + gain * (z - mean)
    state.variance = (1.0 - gain) * variance
    state.velocity_estimate = z - state.last_measurement
    state.last_measurement = z
    return state


@dataclass(frozen=True)
class RoundRecord:
    """Scores for one planning round under one attacker.

    ``f_full``/``f_attacked`` are expected detections on beliefs (the
    planning objective).  ``attack_rate`` is the relative loss under the
    attacker (0 when nothing was removed or the full value is zero).
    """

    round_index: int
    selected: tuple[str, ...]
    removed: tuple[str, ...]
    f_full: float
    f_attacked: float
    attack_rate: float
    oracle_calls: int


def init_tracks(config: SimConfig, rng: np.random.Generator) -> TargetState:
    """Targets uniform in the arena, random heading, noisy initial estimate.

    Each target draws its x, its y, its heading and then two measurement
    noises.  The initial estimate counts as the round-0 measurement, so the
    velocity estimate turns on after the first in-loop measurement.
    """
    arena = config.arena
    draws = np.empty((config.num_targets, 5))
    for row in draws:
        row[0] = rng.uniform(arena.x_min, arena.x_max)
        row[1] = rng.uniform(arena.y_min, arena.y_max)
        row[2] = rng.uniform(0.0, 2.0 * math.pi)
        row[3:] = rng.normal(0.0, 1.0, size=2)
    position = draws[:, :2]
    speed = config.target_speed
    velocity = np.array([(speed * math.cos(h), speed * math.sin(h)) for h in draws[:, 2].tolist()])
    first = position + config.measurement_noise_std * draws[:, 3:]
    return TargetState(
        position=position,
        velocity=velocity,
        mean=first,
        variance=np.full_like(first, config.initial_variance),
        velocity_estimate=np.zeros_like(first),
        last_measurement=first,
    )


def init_robots(config: SimConfig, rng: np.random.Generator) -> np.ndarray:
    """Robot positions uniform in the arena, one x, y pair per robot."""
    arena = config.arena
    return rng.uniform(
        (arena.x_min, arena.y_min), (arena.x_max, arena.y_max), size=(config.num_robots, 2)
    )


def run_rounds(config: SimConfig) -> dict[str, list[RoundRecord]]:
    """Run the closed loop; one record per round for each attacker, by name.

    Fixed ``rng_seed`` gives a byte-identical record stream across runs.
    """
    root = np.random.SeedSequence(config.rng_seed)
    *streams, attacker_stream = root.spawn(5)
    init_rng, motion_rng, measure_rng, planner_rng = map(np.random.default_rng, streams)
    positions = init_robots(config, init_rng)
    state = init_tracks(config, init_rng)
    plan = get_planner(config.planner)
    attacks = {
        name: (get_attacker(name), np.random.default_rng(attacker_stream))
        for name in config.attackers
    }
    names = [robot_id(i) for i in range(config.num_robots)]
    flights = MENU_STEPS * config.fly_length

    records = {name: [] for name in attacks}
    for round_index in range(1, config.rounds + 1):
        instance = build_instance(positions, state.position, config.fov_side, config.fly_length)
        matroid = instance.matroid
        objective = ExpectedDetections(
            state.mean, np.sqrt(state.variance), instance.ids, instance.bounds
        )
        result = plan(matroid, objective, config.alpha, planner_rng)
        f_full = float(objective.evaluate(result.selected))
        selected = tuple(sorted(result.selected))
        for name, (attack, attacker_rng) in attacks.items():
            attacked = attack(objective, result.selected, config.alpha, attacker_rng)
            f_att, rate = score_attack(f_full, attacked.surviving_value)
            records[name].append(
                RoundRecord(
                    round_index=round_index,
                    selected=selected,
                    removed=tuple(sorted(attacked.removed)),
                    f_full=f_full,
                    f_attacked=f_att,
                    attack_rate=rate,
                    oracle_calls=result.oracle_calls,
                )
            )

        # every menu is full, so a trajectory's menu position is its
        # ground index modulo the menu length; the ground set is ordered by
        # robot id, not by row (r100 sorts before r11), so map back by name
        owner, index = matroid.owner, matroid.index
        flown = {owner[tid]: index[tid] % len(DIRECTION_ORDER) for tid in result.selected}
        positions = positions + flights[[flown[name] for name in names]]

        step_targets(state, config, motion_rng)
        z = measure(state, config.measurement_noise_std, measure_rng)
        kalman_update(state, z, config)
    return records

"""Multi-round closed-loop tracking simulation.

Targets move as single integrators (position += velocity per round, constant
speed, reflecting at the arena boundary).  Every round every target is
measured with isotropic Gaussian noise and each target's belief is updated
by two independent scalar Kalman filters (one per axis) with an identity
observation model; the velocity estimate used in the predict step is the
finite difference of the last two raw measurements (zero until two exist).

Each round the robots rebuild their four-direction menus from their current
positions, plan on the expected-detections objective over current beliefs,
suffer the configured attack (an attacked trajectory contributes no coverage
this round; the robot still flies it), get scored, advance ``fly_length``
along their selected direction, and the targets step.

Time is normalized: one round is one time unit and all rates are per round.
Randomness comes from five named child streams of ``rng_seed`` (world
initialization, target motion, measurements, planner, attacker) so target
trajectories and measurement noise are identical across planner choices
under a shared seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .adversary import ATTACKER_NAMES, get_attacker, score_attack
from .geometry import Point2, Rect, RobotSpec, UNIT_STEP
from .objectives import CoverageCount, ExpectedDetections, GaussianTargetBelief
from .planners import PLANNER_NAMES, get_planner
from .worlds import build_instance

DEFAULT_ARENA = Rect(0.0, 10.0, 0.0, 10.0)


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
    round_duration: float = 1.0
    measurement_noise_std: float = 0.1
    process_noise: float = 0.01
    initial_variance: float = 1.0
    target_speed: float = 0.3
    velocity_jitter_std: float = 0.0
    planner: str = "resilient"
    attacker: str = "optimal"
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
        if self.round_duration <= 0:
            raise ValueError(f"round_duration must be positive, got {self.round_duration}")
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
        if self.attacker not in ATTACKER_NAMES:
            raise ValueError(f"unknown attacker {self.attacker!r}; expected one of {ATTACKER_NAMES}")


@dataclass
class TargetTrack:
    """Ground truth plus the tracker's belief for one target."""

    target_id: str
    true_position: Point2
    true_velocity: tuple[float, float]
    estimate_mean: Point2
    estimate_var_x: float
    estimate_var_y: float
    velocity_estimate: tuple[float, float] = (0.0, 0.0)
    # (round index, raw measurement); only the last two are kept
    recent_measurements: list = field(default_factory=list)

    def belief(self) -> GaussianTargetBelief:
        return GaussianTargetBelief(
            target_id=self.target_id,
            mean=self.estimate_mean,
            std_x=math.sqrt(self.estimate_var_x),
            std_y=math.sqrt(self.estimate_var_y),
        )


def _reflect(value: float, lo: float, hi: float) -> tuple[float, int]:
    """Fold a coordinate back into [lo, hi]; returns (position, sign flip).

    Needs ``lo < hi``.  A coordinate more than a period ``2 * (hi - lo)``
    outside first drops whole periods, which flip the sign an even number
    of times; folding a huge value directly can cycle forever in floating
    point.
    """
    flip = 1
    period = 2.0 * (hi - lo)
    if not lo - period <= value <= hi + period:
        value = lo + math.fmod(value - lo, period)
    # small per-round steps need at most a couple of folds
    while value < lo or value > hi:
        if value < lo:
            value = 2 * lo - value
        else:
            value = 2 * hi - value
        flip = -flip
    return value, flip


def step_targets(tracks, config: SimConfig, rng: np.random.Generator):
    """Advance every target one round, reflecting at the arena boundary."""
    dt = config.round_duration
    for track in tracks:
        vx, vy = track.true_velocity
        if config.velocity_jitter_std > 0:
            vx += float(rng.normal(0.0, config.velocity_jitter_std))
            vy += float(rng.normal(0.0, config.velocity_jitter_std))
        x = track.true_position.x + vx * dt
        y = track.true_position.y + vy * dt
        x, fx = _reflect(x, config.arena.x_min, config.arena.x_max)
        y, fy = _reflect(y, config.arena.y_min, config.arena.y_max)
        track.true_position = Point2(x, y)
        track.true_velocity = (vx * fx, vy * fy)
    return tracks


def measure(tracks, noise_std: float, rng: np.random.Generator) -> dict[str, Point2]:
    """Noisy position measurement of every target (all targets, every round)."""
    out = {}
    for track in tracks:
        noise = rng.normal(0.0, 1.0, size=2)
        out[track.target_id] = Point2(
            track.true_position.x + noise_std * float(noise[0]),
            track.true_position.y + noise_std * float(noise[1]),
        )
    return out


def _scalar_update(mean, var, velocity, z, dt, q, r):
    """One predict + update step of a scalar Kalman filter."""
    mean = mean + velocity * dt
    var = var + q * dt
    denom = var + r
    gain = 1.0 if denom == 0 else var / denom
    mean = mean + gain * (z - mean)
    var = (1.0 - gain) * var
    return mean, var


def kalman_update(track: TargetTrack, z: Point2, round_index: int, config: SimConfig):
    """Per-axis Kalman predict/update plus finite-difference velocity refresh."""
    dt = config.round_duration
    q = config.process_noise
    r = config.measurement_noise_std**2
    mx, vx = _scalar_update(
        track.estimate_mean.x, track.estimate_var_x, track.velocity_estimate[0], z.x, dt, q, r
    )
    my, vy = _scalar_update(
        track.estimate_mean.y, track.estimate_var_y, track.velocity_estimate[1], z.y, dt, q, r
    )
    track.estimate_mean = Point2(mx, my)
    track.estimate_var_x = vx
    track.estimate_var_y = vy
    track.recent_measurements.append((round_index, z))
    if len(track.recent_measurements) > 2:
        del track.recent_measurements[0]
    if len(track.recent_measurements) == 2:
        (k0, z0), (k1, z1) = track.recent_measurements
        span = (k1 - k0) * dt
        track.velocity_estimate = ((z1.x - z0.x) / span, (z1.y - z0.y) / span)
    return track


@dataclass(frozen=True)
class RoundRecord:
    """Scores for one planning round.

    ``f_full``/``f_attacked`` are expected detections on beliefs (the
    planning objective); ``coverage_full``/``coverage_attacked`` count
    ground-truth targets inside the same selections.  ``attack_rate`` is
    the relative loss under the configured attacker (0 when nothing was
    removed or the full value is zero).
    """

    round_index: int
    selected: tuple[str, ...]
    removed: tuple[str, ...]
    f_full: float
    f_attacked: float
    attack_rate: float
    coverage_full: int
    coverage_attacked: int
    oracle_calls: int

    def to_dict(self) -> dict:
        return {
            "round_index": self.round_index,
            "selected": list(self.selected),
            "removed": list(self.removed),
            "f_full": self.f_full,
            "f_attacked": self.f_attacked,
            "attack_rate": self.attack_rate,
            "coverage_full": self.coverage_full,
            "coverage_attacked": self.coverage_attacked,
            "oracle_calls": self.oracle_calls,
        }


def init_tracks(config: SimConfig, rng: np.random.Generator) -> list[TargetTrack]:
    """Targets uniform in the arena, random heading, noisy initial estimate.

    The initial estimate counts as the round-0 measurement, so the velocity
    estimate turns on after the first in-loop measurement.
    """
    tracks = []
    for j in range(config.num_targets):
        x = float(rng.uniform(config.arena.x_min, config.arena.x_max))
        y = float(rng.uniform(config.arena.y_min, config.arena.y_max))
        heading = float(rng.uniform(0.0, 2.0 * math.pi))
        velocity = (
            config.target_speed * math.cos(heading),
            config.target_speed * math.sin(heading),
        )
        noise = rng.normal(0.0, 1.0, size=2)
        first = Point2(
            x + config.measurement_noise_std * float(noise[0]),
            y + config.measurement_noise_std * float(noise[1]),
        )
        tracks.append(
            TargetTrack(
                target_id=f"t{j:03d}",
                true_position=Point2(x, y),
                true_velocity=velocity,
                estimate_mean=first,
                estimate_var_x=config.initial_variance,
                estimate_var_y=config.initial_variance,
                recent_measurements=[(0, first)],
            )
        )
    return tracks


def init_robots(config: SimConfig, rng: np.random.Generator) -> list[RobotSpec]:
    robots = []
    for i in range(config.num_robots):
        robots.append(
            RobotSpec(
                robot_id=f"r{i:02d}",
                position=Point2(
                    float(rng.uniform(config.arena.x_min, config.arena.x_max)),
                    float(rng.uniform(config.arena.y_min, config.arena.y_max)),
                ),
                fov_side=config.fov_side,
                fly_length=config.fly_length,
            )
        )
    return robots


def run_rounds(config: SimConfig) -> list[RoundRecord]:
    """Run the closed loop and return one record per round.

    Fixed ``rng_seed`` gives a byte-identical record stream across runs.
    """
    root = np.random.SeedSequence(config.rng_seed)
    init_rng, motion_rng, measure_rng, planner_rng, attacker_rng = (
        np.random.default_rng(child) for child in root.spawn(5)
    )
    robots = init_robots(config, init_rng)
    tracks = init_tracks(config, init_rng)
    plan = get_planner(config.planner)
    attack = get_attacker(config.attacker)

    records = []
    for round_index in range(1, config.rounds + 1):
        instance = build_instance(robots, [t.true_position for t in tracks])
        beliefs = [t.belief() for t in tracks]
        objective = ExpectedDetections(beliefs, instance.rects)
        result = plan(instance.matroid, objective, config.alpha, planner_rng)
        attacked = attack(objective, result.selected, config.alpha, attacker_rng)

        f_full = float(objective.evaluate(result.selected))
        f_att, rate = score_attack(f_full, attacked.surviving_value)
        truth = CoverageCount(
            instance.targets, {tid: instance.rects[tid] for tid in result.selected}
        )
        survivors = result.selected - attacked.removed
        records.append(
            RoundRecord(
                round_index=round_index,
                selected=tuple(sorted(result.selected)),
                removed=tuple(sorted(attacked.removed)),
                f_full=f_full,
                f_attacked=f_att,
                attack_rate=rate,
                coverage_full=int(truth.evaluate(result.selected)),
                coverage_attacked=int(truth.evaluate(survivors)),
                oracle_calls=result.oracle_calls,
            )
        )

        direction_of = {t.trajectory_id: t.direction for t in instance.trajectories}
        by_robot = {instance.matroid.robot_of(tid): tid for tid in result.selected}
        moved = []
        for robot in robots:
            dx, dy = UNIT_STEP[direction_of[by_robot[robot.robot_id]]]
            moved.append(
                RobotSpec(
                    robot_id=robot.robot_id,
                    position=Point2(
                        robot.position.x + dx * config.fly_length,
                        robot.position.y + dy * config.fly_length,
                    ),
                    fov_side=robot.fov_side,
                    fly_length=robot.fly_length,
                )
            )
        robots = moved

        step_targets(tracks, config, motion_rng)
        measurements = measure(tracks, config.measurement_noise_std, measure_rng)
        for track in tracks:
            kalman_update(track, measurements[track.target_id], round_index, config)
    return records

"""Hand-rolled reference oracles used to cross-check the library.

Everything here prefers the most literal possible enumeration over speed and
shares no code paths with the package under test beyond the objective
callables it is handed.  Blocks are plain {robot: [trajectory, ...]} dicts.
There are three exceptions.  The literal expected-detections construction
calls the package's ``normal_cdf``, since it pins the grid's weights bit
for bit, not the CDF.  The literal closed loop at the end keeps its own
per-object state and geometry but plans, attacks and scores with the
package's planners, attackers and objectives.  The literal one-step schedule
keeps only its loop order and its seeding; it samples worlds, plans, attacks
and scores with the package.  The world builders ``layout_reference``,
``build_instance_reference`` and ``sample_instance_reference`` are the
package's builders as they were before sampled worlds were assembled from
cached per-robot pieces: one loop over the robots per world, one row
assignment per drawn position.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from resilient_tracking.adversary import ATTACKER_NAMES, get_attacker, score_attack
from resilient_tracking.experiments import RecordRow
from resilient_tracking.geometry import UNIT_STEP, Direction
from resilient_tracking.matroid import PartitionMatroid
from resilient_tracking.objectives import CoverageCount, ExpectedDetections, normal_cdf
from resilient_tracking.planners import PLANNER_NAMES, get_planner
from resilient_tracking.simulation import RoundRecord
from resilient_tracking.worlds import (
    DIRECTION_ORDER,
    MENU_STEPS,
    WorldInstance,
    robot_id,
    sample_instance,
)


def all_bases(blocks):
    """Every one-per-robot selection, robots in sorted id order."""
    menus = [blocks[robot] for robot in sorted(blocks)]
    return [frozenset(combo) for combo in itertools.product(*menus)]


def attack_bruteforce(f, members, alpha):
    """Worst removal over every subset of size 0..alpha (literal definition)."""
    members = frozenset(members)
    ordered = sorted(members)
    best_value = math.inf
    best_removed = None
    for size in range(0, min(alpha, len(ordered)) + 1):
        for combo in itertools.combinations(ordered, size):
            value = f(members - frozenset(combo))
            if value < best_value:
                best_value = value
                best_removed = frozenset(combo)
    return best_value, best_removed


def attack_optimal_literal(f, members, alpha):
    """Worst removal of exactly min(alpha, |S|) members, first in combination order."""
    members = frozenset(members)
    best_value = math.inf
    best_removed = None
    for combo in itertools.combinations(sorted(members), min(alpha, len(members))):
        value = f(members - frozenset(combo))
        if value < best_value:
            best_value = value
            best_removed = frozenset(combo)
    return best_value, best_removed


def attack_greedy_literal(f, members, alpha):
    """Remove the most damaging member, first in id order, min(alpha, |S|) times."""
    survivors = frozenset(members)
    removed = set()
    value = f(survivors)
    for _ in range(min(alpha, len(survivors))):
        best = None
        best_value = math.inf
        for tid in sorted(survivors):
            candidate = f(survivors - {tid})
            if candidate < best_value:
                best, best_value = tid, candidate
        survivors = survivors - {best}
        removed.add(best)
        value = best_value
    return value, frozenset(removed)


def maxmin_bruteforce(blocks, f, alpha):
    """max over bases of min over removals; nested exhaustive loops."""
    best_value = -math.inf
    best_basis = None
    for basis in all_bases(blocks):
        worst, _ = attack_bruteforce(f, basis, alpha)
        if worst > best_value:
            best_value = worst
            best_basis = basis
    return best_value, best_basis


def resilient_literal(blocks, f, alpha):
    """The two-phase resilient selection as stated, with no cache or pruning.

    Bait: scan every element by descending singleton value (ground order on
    ties) and admit it while the bait stays independent and no larger than
    ``alpha``.  Fill: every round re-evaluates f(fill + e) for each element
    e of T \\ bait not yet scanned, scans the first maximum in ground order
    (f(fill) is common to all, so this ranks by marginal gain against the
    fill alone) and admits it when bait + fill + e stays independent,
    rejecting it otherwise, until every element has been scanned.  Returns
    (bait, fill) as tuples; ``alpha = 0`` is the plain matroid greedy.
    """
    ground = [tid for robot in sorted(blocks) for tid in blocks[robot]]
    robot_of = {tid: robot for robot in blocks for tid in blocks[robot]}
    singleton = {tid: f(frozenset([tid])) for tid in ground}
    bait = []
    for tid in sorted(ground, key=lambda t: (-singleton[t], ground.index(t))):
        if len(bait) < alpha and robot_of[tid] not in {robot_of[b] for b in bait}:
            bait.append(tid)
    fill = []
    unscanned = [tid for tid in ground if tid not in bait]
    while unscanned:
        best = None
        for tid in unscanned:
            value = f(frozenset(fill + [tid]))
            if best is None or value > best_value:
                best, best_value = tid, value
        unscanned.remove(best)
        if robot_of[best] not in {robot_of[t] for t in bait + fill}:
            fill.append(best)
    return tuple(bait), tuple(fill)


def curvature_witness_bruteforce(blocks, f):
    """First (basis, member) with the smallest (f(S) - f(S - s)) / f({s}).

    Bases in ``all_bases`` order, members of each basis in robot order, and
    a later pair wins only with a strictly smaller ratio.  Members whose
    singleton value is zero are skipped.  Returns ``(ratio, basis,
    member)``, or None when nothing is usable (the degenerate case).
    """
    witness = None
    for basis in all_bases(blocks):
        full = f(basis)
        for robot in sorted(blocks):
            (member,) = basis.intersection(blocks[robot])
            single = f(frozenset([member]))
            if single == 0:
                continue
            ratio = (full - f(basis - {member})) / single
            if witness is None or ratio < witness[0]:
                witness = (ratio, basis, member)
    return witness


def curvature_bruteforce(blocks, f):
    """1 - min over bases S and members s of (f(S) - f(S - s)) / f({s}).

    Members whose singleton value is zero are skipped.  Returns None when
    nothing is usable (the degenerate case).
    """
    witness = curvature_witness_bruteforce(blocks, f)
    return None if witness is None else 1.0 - witness[0]


def _normal_cdf(z):
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def inclusion_exclusion_union_mass(beliefs, rects):
    """Sum over beliefs of P(position in the union of rects).

    Literal inclusion-exclusion: every nonempty subset of ``rects``
    contributes the Gaussian mass of its (closed) intersection with sign
    (-1)^(|subset| + 1); subsets whose intersection is empty contribute
    nothing.  ``beliefs`` are ``(mean_x, mean_y, std_x, std_y)`` tuples.
    """
    boxes = [(r.x_min, r.x_max, r.y_min, r.y_max) for r in rects]
    total = 0.0
    for mean_x, mean_y, std_x, std_y in beliefs:
        for size in range(1, len(boxes) + 1):
            sign = 1.0 if size % 2 else -1.0
            for combo in itertools.combinations(boxes, size):
                x_lo = max(box[0] for box in combo)
                x_hi = min(box[1] for box in combo)
                y_lo = max(box[2] for box in combo)
                y_hi = min(box[3] for box in combo)
                if x_lo > x_hi or y_lo > y_hi:
                    continue
                px = _normal_cdf((x_hi - mean_x) / std_x) - _normal_cdf(
                    (x_lo - mean_x) / std_x
                )
                py = _normal_cdf((y_hi - mean_y) / std_y) - _normal_cdf(
                    (y_lo - mean_y) / std_y
                )
                total += sign * px * py
    return total


class LiteralExpectedDetections:
    """Expected detections on the compressed grid, built the literal way.

    ``np.unique`` gives each axis' grid lines, ``searchsorted`` each
    rectangle's cell span, one normal CDF pass per axis and ``np.diff`` the
    per-belief cell masses, and evaluation paints a boolean grid.  The
    package's one-pass ``ExpectedDetections`` must give the same value bit
    for bit; the two share only ``normal_cdf``.
    """

    def __init__(self, means, stds, ids, bounds):
        edges = np.asarray(bounds, dtype=float).reshape(-1, 4)
        xs = np.unique(edges[:, :2])
        ys = np.unique(edges[:, 2:])
        x_spans = np.searchsorted(xs, edges[:, :2]).tolist()
        y_spans = np.searchsorted(ys, edges[:, 2:]).tolist()
        self.spans = {
            tid: (slice(*x_span), slice(*y_span))
            for tid, x_span, y_span in zip(ids, x_spans, y_spans)
        }
        mu_x, mu_y = np.asarray(means, dtype=float).reshape(-1, 2).T[:, :, None]
        sd_x, sd_y = np.asarray(stds, dtype=float).reshape(-1, 2).T[:, :, None]
        dpx = np.diff(normal_cdf((xs - mu_x) / sd_x), axis=1)
        dpy = np.diff(normal_cdf((ys - mu_y) / sd_y), axis=1)
        self.shape = (dpx.shape[1], dpy.shape[1])
        self.weights = (dpx.T @ dpy).ravel()

    def evaluate(self, members):
        covered = np.zeros(self.shape, dtype=bool)
        for tid in members:
            covered[self.spans[tid]] = True
        return float(np.dot(covered.ravel(), self.weights))


def mc_union_mass(rng, mean_x, mean_y, std_x, std_y, rects, samples):
    """Monte Carlo estimate of P(point in union) with its standard error.

    A sample counts when it lies in any of the closed ``rects``.
    """
    xs = rng.normal(mean_x, std_x, size=samples)
    ys = rng.normal(mean_y, std_y, size=samples)
    inside = np.zeros(samples, dtype=bool)
    for r in rects:
        inside |= (r.x_min <= xs) & (xs <= r.x_max) & (r.y_min <= ys) & (ys <= r.y_max)
    p_hat = int(inside.sum()) / samples
    se = math.sqrt(p_hat * (1.0 - p_hat) / samples)
    return p_hat, se


def riccati_posteriors(p0, q, r, steps):
    """Posterior variance sequence of the scalar filter, recursed directly."""
    out = []
    p = p0
    for _ in range(steps):
        prior = p + q
        p = prior * r / (prior + r) if prior + r > 0 else 0.0
        out.append(p)
    return out


def riccati_fixed_point(q, r):
    """Positive root of p**2 + q*p - q*r = 0 (steady-state posterior)."""
    return (-q + math.sqrt(q * q + 4.0 * q * r)) / 2.0


# ---- the closed loop, one target and one robot at a time ------------------
#
# The per-object loop the array simulation replaced, kept literally: scalar
# Kalman filters and reflections, tuples for points, one coverage rectangle
# per (robot, direction), draws in the same order.  Planning, attacks and
# the objectives are the package's; everything they are fed is built here.

MENU = (Direction.FORWARD, Direction.BACKWARD, Direction.LEFT, Direction.RIGHT)


@dataclass
class TargetTrack:
    """Ground truth plus the tracker's belief for one target."""

    target_id: str
    true_position: tuple
    true_velocity: tuple
    estimate_mean: tuple
    estimate_var_x: float
    estimate_var_y: float
    velocity_estimate: tuple = (0.0, 0.0)
    # (round index, raw measurement); only the last two are kept
    recent_measurements: list = field(default_factory=list)


def reflect(value, lo, hi):
    """Fold a coordinate back into [lo, hi]; returns (position, sign flip)."""
    flip = 1
    period = 2.0 * (hi - lo)
    if not lo - period <= value <= hi + period:
        value = lo + math.fmod(value - lo, period)
    while value < lo or value > hi:
        if value < lo:
            value = 2 * lo - value
        else:
            value = 2 * hi - value
        flip = -flip
    return value, flip


def step_targets(tracks, config, rng):
    dt = 1.0  # one round is one time unit
    for track in tracks:
        vx, vy = track.true_velocity
        if config.velocity_jitter_std > 0:
            vx += float(rng.normal(0.0, config.velocity_jitter_std))
            vy += float(rng.normal(0.0, config.velocity_jitter_std))
        x = track.true_position[0] + vx * dt
        y = track.true_position[1] + vy * dt
        x, fx = reflect(x, config.arena.x_min, config.arena.x_max)
        y, fy = reflect(y, config.arena.y_min, config.arena.y_max)
        track.true_position = (x, y)
        track.true_velocity = (vx * fx, vy * fy)


def measure(tracks, noise_std, rng):
    out = {}
    for track in tracks:
        noise = rng.normal(0.0, 1.0, size=2)
        out[track.target_id] = (
            track.true_position[0] + noise_std * float(noise[0]),
            track.true_position[1] + noise_std * float(noise[1]),
        )
    return out


def _scalar_update(mean, var, velocity, z, dt, q, r):
    mean = mean + velocity * dt
    var = var + q * dt
    denom = var + r
    gain = 1.0 if denom == 0 else var / denom
    mean = mean + gain * (z - mean)
    var = (1.0 - gain) * var
    return mean, var


def kalman_update(track, z, round_index, config):
    dt = 1.0
    q = config.process_noise
    r = config.measurement_noise_std**2
    mx, vx = _scalar_update(
        track.estimate_mean[0], track.estimate_var_x, track.velocity_estimate[0], z[0], dt, q, r
    )
    my, vy = _scalar_update(
        track.estimate_mean[1], track.estimate_var_y, track.velocity_estimate[1], z[1], dt, q, r
    )
    track.estimate_mean = (mx, my)
    track.estimate_var_x = vx
    track.estimate_var_y = vy
    track.recent_measurements.append((round_index, z))
    if len(track.recent_measurements) > 2:
        del track.recent_measurements[0]
    if len(track.recent_measurements) == 2:
        (k0, z0), (k1, z1) = track.recent_measurements
        span = (k1 - k0) * dt
        track.velocity_estimate = ((z1[0] - z0[0]) / span, (z1[1] - z0[1]) / span)


def init_tracks(config, rng):
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
        first = (
            x + config.measurement_noise_std * float(noise[0]),
            y + config.measurement_noise_std * float(noise[1]),
        )
        tracks.append(
            TargetTrack(
                target_id=f"t{j:03d}",
                true_position=(x, y),
                true_velocity=velocity,
                estimate_mean=first,
                estimate_var_x=config.initial_variance,
                estimate_var_y=config.initial_variance,
                recent_measurements=[(0, first)],
            )
        )
    return tracks


def coverage_rect(x, y, fov_side, fly_length, direction):
    """(x_min, x_max, y_min, y_max) swept flying ``direction`` from (x, y)."""
    half = fov_side / 2.0
    dx, dy = UNIT_STEP[direction]
    sx = dx * fly_length
    sy = dy * fly_length
    return (
        x - half + min(0.0, sx),
        x + half + max(0.0, sx),
        y - half + min(0.0, sy),
        y + half + max(0.0, sy),
    )


def run_rounds_literal(config, attacker):
    """The closed loop under one attacker with per-object state; one
    ``RoundRecord`` per round.  ``config.attackers`` is not read."""
    root = np.random.SeedSequence(config.rng_seed)
    init_rng, motion_rng, measure_rng, planner_rng, attacker_rng = (
        np.random.default_rng(child) for child in root.spawn(5)
    )
    robots = {}
    for i in range(config.num_robots):
        robots[f"r{i:02d}"] = (
            float(init_rng.uniform(config.arena.x_min, config.arena.x_max)),
            float(init_rng.uniform(config.arena.y_min, config.arena.y_max)),
        )
    tracks = init_tracks(config, init_rng)
    plan = get_planner(config.planner)
    attack = get_attacker(attacker)
    records = []
    for round_index in range(1, config.rounds + 1):
        rects, blocks, direction_of = {}, {}, {}
        for rid, (x, y) in robots.items():
            blocks[rid] = []
            for d in MENU:
                tid = f"{rid}:{d.value}"
                blocks[rid].append(tid)
                direction_of[tid] = d
                rects[tid] = coverage_rect(x, y, config.fov_side, config.fly_length, d)
        matroid = PartitionMatroid(blocks)
        means = [t.estimate_mean for t in tracks]
        stds = [(math.sqrt(t.estimate_var_x), math.sqrt(t.estimate_var_y)) for t in tracks]
        objective = ExpectedDetections(means, stds, list(rects), list(rects.values()))
        result = plan(matroid, objective, config.alpha, planner_rng)
        attacked = attack(objective, result.selected, config.alpha, attacker_rng)
        f_full = float(objective.evaluate(result.selected))
        f_att, rate = score_attack(f_full, attacked.surviving_value)
        records.append(
            RoundRecord(
                round_index=round_index,
                selected=tuple(sorted(result.selected)),
                removed=tuple(sorted(attacked.removed)),
                f_full=f_full,
                f_attacked=f_att,
                attack_rate=rate,
                oracle_calls=result.oracle_calls,
            )
        )
        for tid in result.selected:
            rid = matroid.robot_of(tid)
            dx, dy = UNIT_STEP[direction_of[tid]]
            x, y = robots[rid]
            robots[rid] = (x + dx * config.fly_length, y + dy * config.fly_length)
        step_targets(tracks, config, motion_rng)
        measurements = measure(tracks, config.measurement_noise_std, measure_rng)
        for track in tracks:
            kalman_update(track, measurements[track.target_id], round_index, config)
    return records


def one_step_rows_literal(spec):
    """The one-step protocol cell by cell: per (m, alpha, trial), in that
    nesting, a fresh world, every planner and every attacker.  Rows carry a
    ``wall_time_micros`` of 0."""
    rows = []
    for m in spec.num_targets:
        for alpha in spec.alphas:
            for trial in range(spec.trials):
                root = np.random.SeedSequence([spec.master_seed, trial])
                trial_seed = int(root.generate_state(1, np.uint64)[0])
                instance = sample_instance(
                    np.random.default_rng(np.random.SeedSequence([trial_seed, 0])),
                    num_robots=spec.num_robots,
                    num_targets=m,
                    fov_side=spec.fov_side,
                    fly_length=spec.fly_length,
                    arena=spec.arena,
                )
                objective = CoverageCount(instance.targets, instance.ids, instance.bounds)
                for planner in spec.planners:
                    pcode = PLANNER_NAMES.index(planner)
                    planner_rng = np.random.default_rng(
                        np.random.SeedSequence([trial_seed, 1, pcode])
                    )
                    result = get_planner(planner)(
                        instance.matroid, objective, alpha, planner_rng
                    )
                    f_full = float(objective.evaluate(result.selected))
                    for attacker in spec.attackers:
                        acode = ATTACKER_NAMES.index(attacker)
                        attacker_rng = np.random.default_rng(
                            np.random.SeedSequence([trial_seed, 2, pcode, acode])
                        )
                        attacked = get_attacker(attacker)(
                            objective, result.selected, alpha, attacker_rng
                        )
                        f_att, rate = score_attack(f_full, attacked.surviving_value)
                        rows.append(
                            RecordRow(
                                trial=trial,
                                round=1,
                                planner=planner,
                                attacker=attacker,
                                m=m,
                                alpha=alpha,
                                f_full=f_full,
                                f_attacked=f_att,
                                attack_rate=rate,
                                oracle_calls=result.oracle_calls,
                                wall_time_micros=0,
                                seed=trial_seed,
                            )
                        )
    return rows


def layout_reference(num_robots, menus, fly_length):
    """The matroid, each trajectory's robot and its bound offsets, built in one pass."""
    names = [robot_id(i) for i in range(num_robots)]
    blocks = {}
    robots = []
    directions = []
    for i in sorted(range(num_robots), key=names.__getitem__):
        menu = DIRECTION_ORDER if menus is None else menus[i]
        blocks[names[i]] = [f"{names[i]}:{d.value}" for d in menu]
        robots += [i] * len(menu)
        directions += [DIRECTION_ORDER.index(d) for d in menu]
    rows = np.array(robots, dtype=np.intp)
    step = MENU_STEPS[directions] * fly_length
    return PartitionMatroid(blocks), rows, np.minimum(0.0, step), np.maximum(0.0, step)


def build_instance_reference(positions, targets, fov_side, fly_length, menus=None):
    positions = np.asarray(positions, dtype=float).reshape(-1, 2)
    key = None if menus is None else tuple(map(tuple, menus))
    matroid, rows, low_offset, high_offset = layout_reference(len(positions), key, fly_length)
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


def sample_instance_reference(
    rng, num_robots, num_targets, fov_side, fly_length, arena, menu_sizes=(4,)
):
    """Robot by robot x, y, menu size and (below four) directions; then targets."""
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
    return build_instance_reference(positions, targets, fov_side, fly_length, menus)

"""Target motion, measurement, per-axis Kalman tracking, closed-loop rounds."""

import json
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import oracles
from resilient_tracking.adversary import ATTACKER_NAMES
from resilient_tracking.errors import SpecError
from resilient_tracking.geometry import Rect
from resilient_tracking.planners import PLANNER_NAMES
from resilient_tracking.simulation import (
    SimConfig,
    TargetState,
    _reflect,
    kalman_update,
    measure,
    run_rounds,
    step_targets,
)


def make_state(*targets, var=1.0):
    """One row per ``(x, y, vx, vy)`` target, its estimate on the truth."""
    rows = np.array(targets, dtype=float).reshape(-1, 4)
    position = rows[:, :2].copy()
    return TargetState(
        position=position,
        velocity=rows[:, 2:].copy(),
        mean=position.copy(),
        variance=np.full_like(position, var),
        velocity_estimate=np.zeros_like(position),
        last_measurement=position.copy(),
    )


def reflect1(value, lo, hi):
    values, flips = _reflect(np.array([value]), lo, hi)
    return float(values[0]), int(flips[0])


def test_reflect_inside_is_identity():
    for v in (0.0, 3.7, 10.0):
        assert reflect1(v, 0.0, 10.0) == (v, 1)


def test_reflect_folds_and_flips():
    assert reflect1(-1.0, 0.0, 10.0) == (1.0, -1)
    assert reflect1(11.5, 0.0, 10.0) == (8.5, -1)
    value, flip = reflect1(21.0, 0.0, 10.0)  # over twice the width
    assert 0.0 <= value <= 10.0
    assert flip == 1  # two folds cancel


def test_reflect_far_outside_terminates_with_the_literal_fold_parity():
    # the literal loop folds 95 nine times (95, -75, 75, ..., 15, 5) and
    # -95 once more, since its first fold lands on 95
    assert reflect1(95.0, 0.0, 10.0) == (5.0, -1)
    assert reflect1(-95.0, 0.0, 10.0) == (5.0, 1)
    # folding 1e300 directly cycles between +-1e300 in floating point
    for far in (1e300, -1e300, 1e17):
        value, flip = reflect1(far, 0.0, 10.0)
        assert 0.0 <= value <= 10.0 and flip in (1, -1)


def test_array_reflect_matches_the_scalar_fold():
    # both axes at once, each against its own bounds: values on the
    # boundary, just past it, one and two periods outside, and far away
    lo, hi = np.array([0.0, -3.0]), np.array([10.0, 2.5])
    period = 2.0 * (hi - lo)
    offsets = [0.0, 1e-12, 0.5, 1.0, 3.0]
    columns = []
    for axis in range(2):
        a, b, p = lo[axis], hi[axis], period[axis]
        picks = [a, b, a - p, b + p, a - 2 * p, b + 2 * p, 1e300, -1e300, 1e17, -1e17]
        picks += [a - d for d in offsets] + [b + d for d in offsets]
        picks += [a - p - d for d in offsets] + [b + p + d for d in offsets]
        columns.append(picks)
    values = np.array(columns).T
    got, flips = _reflect(values, lo, hi)
    for row, got_row, flip_row in zip(values, got, flips):
        for axis in range(2):
            want = oracles.reflect(float(row[axis]), lo[axis], hi[axis])
            assert (float(got_row[axis]), int(flip_row[axis])) == want


def test_huge_target_speed_run_completes():
    records = run_rounds(SimConfig(num_targets=5, rounds=2, target_speed=1e300, rng_seed=3))
    assert len(records["optimal"]) == 2


def test_step_targets_stays_in_arena_and_keeps_speed():
    config = SimConfig(target_speed=0.9, rng_seed=4)
    rng = np.random.default_rng(0)
    state = make_state(*[(9.8, 0.1, 0.9 * math.cos(a), 0.9 * math.sin(a)) for a in np.linspace(0, 6, 7)])
    for _ in range(200):
        step_targets(state, config, rng)
        for position, velocity in zip(state.position, state.velocity):
            assert helpers.contains(config.arena, position)
            speed = math.hypot(*velocity)
            assert speed == pytest.approx(0.9, abs=1e-9)


def test_measure_exact_when_noise_free():
    state = make_state((2.5, 7.5, 0.0, 0.0))
    rng = np.random.default_rng(1)
    z = measure(state, 0.0, rng)[0]
    assert tuple(z) == (2.5, 7.5)


def test_measure_noise_scale():
    state = make_state((5.0, 5.0, 0.0, 0.0))
    rng = np.random.default_rng(2)
    xs = [measure(state, 0.25, rng)[0, 0] for _ in range(4000)]
    assert np.std(xs) == pytest.approx(0.25, rel=0.08)
    assert np.mean(xs) == pytest.approx(5.0, abs=0.02)


def test_kalman_variance_follows_riccati_recursion():
    config = SimConfig(measurement_noise_std=0.5, process_noise=0.04, initial_variance=2.0)
    state = make_state((5.0, 5.0, 0.0, 0.0), var=2.0)
    rng = np.random.default_rng(3)
    want = oracles.riccati_posteriors(2.0, 0.04, 0.25, 40)
    got = []
    for _ in range(40):
        z = measure(state, config.measurement_noise_std, rng)
        kalman_update(state, z, config)
        got.append(state.variance[0, 0])
    assert got == pytest.approx(want, rel=1e-12)
    fixed = oracles.riccati_fixed_point(0.04, 0.25)
    assert got[-1] == pytest.approx(fixed, rel=1e-6)
    assert all(v > 0 for v in got)


def test_kalman_posterior_never_exceeds_predicted_variance():
    config = SimConfig(measurement_noise_std=0.3, process_noise=0.01)
    state = make_state((5.0, 5.0, 0.0, 0.0), var=1.0)
    rng = np.random.default_rng(5)
    prior = state.variance[0, 0]
    for _ in range(29):
        z = measure(state, 0.3, rng)
        kalman_update(state, z, config)
        assert state.variance[0, 0] <= prior + config.process_noise + 1e-15
        prior = state.variance[0, 0]


def test_kalman_zero_noise_locks_onto_constant_velocity_target():
    # r=0 makes the gain one, so the mean rides the exact measurements and
    # the finite-difference velocity becomes exact after two of them.
    # SimConfig refuses r=0 for the closed loop, so the filter gets the
    # two fields it reads directly; the process noise keeps the predicted
    # variance positive, since a gain of 0/0 is undefined.
    config = SimpleNamespace(process_noise=0.01, measurement_noise_std=0.0)
    state = make_state((1.0, 1.0, 0.2, 0.1))
    rng = np.random.default_rng(6)
    motion = SimConfig(target_speed=0.2, rng_seed=0)
    for _ in range(5):
        step_targets(state, motion, rng)
        z = measure(state, 0.0, rng)
        kalman_update(state, z, config)
    assert state.mean[0, 0] == pytest.approx(state.position[0, 0], abs=1e-12)
    assert state.velocity_estimate[0, 0] == pytest.approx(0.2, abs=1e-12)
    assert state.velocity_estimate[0, 1] == pytest.approx(0.1, abs=1e-12)
    assert state.variance[0, 0] == 0.0
    # one more predict step lands exactly on the next true position
    predicted = state.mean[0, 0] + state.velocity_estimate[0, 0]
    step_targets(state, motion, rng)
    assert predicted == pytest.approx(state.position[0, 0], abs=1e-12)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    planner=st.sampled_from(PLANNER_NAMES),
    attackers=st.lists(st.sampled_from(ATTACKER_NAMES), min_size=1, unique=True),
    num_robots=st.integers(1, 5),
    num_targets=st.integers(1, 40),
    alpha_share=st.floats(0.0, 1.0),
    jitter=st.sampled_from([0.0, 0.05, 2.0]),
    speed=st.sampled_from([0.0, 0.3, 27.0, 65.0, 1e300]),
    rounds=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_array_loop_matches_the_literal_per_target_loop(
    planner, attackers, num_robots, num_targets, alpha_share, jitter, speed, rounds, seed
):
    # speeds of 27 and 65 cross the 10-wide arena several times per round
    if planner == "brute-force":
        num_robots = min(num_robots, 4)
    config = SimConfig(
        num_robots=num_robots,
        num_targets=num_targets,
        alpha=round(alpha_share * num_robots),
        rounds=rounds,
        target_speed=speed,
        velocity_jitter_std=jitter,
        planner=planner,
        attackers=tuple(attackers),
        rng_seed=seed,
    )
    # every attacker scored inside one run gets the records of a run with
    # that attacker alone
    records = run_rounds(config)
    assert list(records) == attackers
    for attacker in attackers:
        alone = run_rounds(replace(config, attackers=(attacker,)))
        assert records[attacker] == alone[attacker] == oracles.run_rounds_literal(config, attacker)


def test_array_loop_moves_the_right_robots_past_a_hundred():
    # the ground set orders robots by id, so r100 sorts between r10 and r11;
    # each robot must still fly its own trajectory
    config = SimConfig(
        num_robots=101,
        num_targets=6,
        alpha=0,
        rounds=3,
        planner="random",
        attackers=("none",),
        rng_seed=8,
    )
    assert run_rounds(config)["none"] == oracles.run_rounds_literal(config, "none")


def test_run_rounds_shape_and_invariants():
    config = SimConfig(num_robots=3, num_targets=8, alpha=1, rounds=12, rng_seed=21)
    records = run_rounds(config)["optimal"]
    assert [r.round_index for r in records] == list(range(1, 13))
    n = 4 * config.num_robots
    for r in records:
        assert len(r.selected) == config.num_robots
        assert set(r.removed) <= set(r.selected)
        assert len(r.removed) == min(config.alpha, config.num_robots)
        assert 0.0 <= r.f_attacked <= r.f_full + 1e-12
        assert 0.0 <= r.attack_rate <= 1.0
        assert r.oracle_calls <= 2 * n * n + n


def test_run_rounds_alpha_zero_never_loses_value():
    config = SimConfig(num_robots=3, num_targets=10, alpha=0, rounds=8, rng_seed=9)
    for r in run_rounds(config)["optimal"]:
        assert r.removed == ()
        assert r.f_attacked == r.f_full
        assert r.attack_rate == 0.0


def test_run_rounds_byte_determinism():
    config = SimConfig(num_robots=3, num_targets=6, alpha=1, rounds=10, rng_seed=1234)

    def dump(config):
        records = run_rounds(config)["optimal"]
        return json.dumps([helpers.record_dict(r) for r in records], sort_keys=True)

    assert dump(config) == dump(config)
    assert dump(config) != dump(replace(config, rng_seed=1235))


def test_attack_does_not_steer_the_robots():
    # camera-off semantics: removal changes scoring, never the flight plan,
    # so one run scores the attacked and the unattacked robots on the same
    # per-round selections
    config = SimConfig(
        num_robots=3, num_targets=8, alpha=2, rounds=10, attackers=("optimal", "none"), rng_seed=77
    )
    records = run_rounds(config)
    attacked, unattacked = records["optimal"], records["none"]
    assert [r.selected for r in attacked] == [r.selected for r in unattacked]
    assert [r.f_full for r in attacked] == pytest.approx([r.f_full for r in unattacked])
    for r in unattacked:
        assert r.removed == ()
        assert r.attack_rate == 0.0


def test_world_streams_are_planner_independent():
    base = dict(num_robots=3, num_targets=8, alpha=1, rounds=6, rng_seed=55)
    greedy = run_rounds(SimConfig(planner="greedy", **base))["optimal"]
    random = run_rounds(SimConfig(planner="random", **base))["optimal"]
    # same worlds, different plans: greedy plans with the same menus can
    # never score below random ones on the planning objective
    assert all(g.f_full >= r.f_full - 1e-9 for g, r in zip(greedy, random))


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(num_robots=0)
    with pytest.raises(ValueError):
        SimConfig(alpha=5, num_robots=4)
    with pytest.raises(ValueError):
        SimConfig(rounds=0)
    with pytest.raises(ValueError):
        SimConfig(measurement_noise_std=-0.1)
    with pytest.raises(ValueError, match="measurement_noise_std"):
        SimConfig(measurement_noise_std=0.0)
    with pytest.raises(ValueError):
        SimConfig(initial_variance=0.0)
    with pytest.raises(ValueError):
        SimConfig(planner="telepathy")
    with pytest.raises(ValueError, match="emp"):
        SimConfig(attackers=("optimal", "emp"))
    with pytest.raises(ValueError, match="attackers"):
        SimConfig(attackers=())
    for flat in (Rect(0.0, 0.0, 0.0, 10.0), Rect(0.0, 10.0, 3.0, 3.0)):
        with pytest.raises(ValueError, match="arena"):
            SimConfig(arena=flat)
    # not a Rect: used to end in an AttributeError on 'x_min'
    for not_rect in ((0, 10, 0, 10), [0, 10, 0, 10], None):
        with pytest.raises(SpecError, match="^field 'arena': expected a Rect"):
            SimConfig(arena=not_rect)
    with pytest.raises(ValueError):
        SimConfig(fov_side=0.0)
    with pytest.raises(ValueError):
        SimConfig(fly_length=-0.5)



def test_sim_config_holds_each_float_field_as_a_float():
    # as a spec held its fields: an integer given for a float field is stored
    # as the float its rule returns
    config = SimConfig(fov_side=3, fly_length=7, target_speed=1)
    assert [type(v) for v in (config.fov_side, config.fly_length, config.target_speed)] == [float] * 3
    assert (config.fov_side, config.fly_length, config.target_speed) == (3.0, 7.0, 1.0)
    assert type(config.num_robots) is int


def test_sim_config_refuses_an_unhashable_planner_or_attacker_name():
    # a dict lookup of an unhashable name would raise TypeError, not KeyError
    with pytest.raises(ValueError, match="^field 'planner': expected one of"):
        SimConfig(planner=["resilient"])
    with pytest.raises(ValueError, match="^field 'attacker': expected one of"):
        SimConfig(attackers=(["optimal"],))

@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"fly_length": 1e308}, "fly_length"),
        ({"fov_side": float("nan")}, "fov_side"),
        ({"arena": Rect(-1e308, 1e308, 0.0, 10.0)}, "arena"),
        ({"velocity_jitter_std": 1e308}, "velocity_jitter_std"),
        ({"target_speed": float("inf")}, "target_speed"),
        ({"measurement_noise_std": 1e308}, "measurement_noise_std"),
        ({"initial_variance": 1e17}, "initial_variance"),
        ({"process_noise": 1e308}, "process_noise"),
        ({"measurement_noise_std": 1e-8}, "measurement_noise_std"),
        # no process noise: the variance decays below the normal floats
        (
            {"measurement_noise_std": 1e-160, "initial_variance": 1e-320, "process_noise": 0.0},
            "measurement_noise_std",
        ),
        # rounds past 2**1023 count as inf: a zero rate adds 0, not inf * 0.0 = nan,
        # so the check that really overflows is named
        ({"fly_length": 0.0, "rounds": 10**400}, "^field 'arena': measurements and belief"),
    ],
)
def test_sim_config_refuses_arithmetic_past_the_float_limits(overrides, field):
    with pytest.raises(ValueError, match=field):
        SimConfig(**{"num_robots": 3, "num_targets": 8, "rounds": 3, **overrides})


def test_runs_just_inside_the_arithmetic_limits():
    # r = 1e-14 is still above half an ulp of the peak predicted variance
    # 1.01, so the gain stays below 1 and the belief variance positive
    for overrides in ({"measurement_noise_std": 1e-7}, {"fly_length": 1e300, "rounds": 3}):
        config = SimConfig(num_robots=3, num_targets=8, **{"rounds": 5, **overrides})
        records = run_rounds(config)["optimal"]
        assert len(records) == config.rounds
        assert all(math.isfinite(r.f_full) for r in records)

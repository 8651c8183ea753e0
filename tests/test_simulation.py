"""Target motion, measurement, per-axis Kalman tracking, closed-loop rounds."""

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from resilient_tracking.geometry import Point2, Rect
from resilient_tracking.simulation import (
    SimConfig,
    TargetTrack,
    _reflect,
    kalman_update,
    measure,
    run_rounds,
    step_targets,
)


def make_track(x=5.0, y=5.0, vx=0.0, vy=0.0, var=1.0):
    return TargetTrack(
        target_id="t000",
        true_position=Point2(x, y),
        true_velocity=(vx, vy),
        estimate_mean=Point2(x, y),
        estimate_var_x=var,
        estimate_var_y=var,
        recent_measurements=[(0, Point2(x, y))],
    )


def test_reflect_inside_is_identity():
    for v in (0.0, 3.7, 10.0):
        assert _reflect(v, 0.0, 10.0) == (v, 1)


def test_reflect_folds_and_flips():
    assert _reflect(-1.0, 0.0, 10.0) == (1.0, -1)
    assert _reflect(11.5, 0.0, 10.0) == (8.5, -1)
    value, flip = _reflect(21.0, 0.0, 10.0)  # over twice the width
    assert 0.0 <= value <= 10.0
    assert flip == 1  # two folds cancel


def test_reflect_far_outside_terminates_with_the_literal_fold_parity():
    # the literal loop folds 95 nine times (95, -75, 75, ..., 15, 5) and
    # -95 once more, since its first fold lands on 95
    assert _reflect(95.0, 0.0, 10.0) == (5.0, -1)
    assert _reflect(-95.0, 0.0, 10.0) == (5.0, 1)
    # folding 1e300 directly cycles between +-1e300 in floating point
    for far in (1e300, -1e300, 1e17):
        value, flip = _reflect(far, 0.0, 10.0)
        assert 0.0 <= value <= 10.0 and flip in (1, -1)


def test_huge_target_speed_run_completes():
    records = run_rounds(SimConfig(num_targets=5, rounds=2, target_speed=1e300, rng_seed=3))
    assert len(records) == 2


def test_step_targets_stays_in_arena_and_keeps_speed():
    config = SimConfig(target_speed=0.9, rng_seed=4)
    rng = np.random.default_rng(0)
    tracks = [make_track(9.8, 0.1, 0.9 * math.cos(a), 0.9 * math.sin(a)) for a in np.linspace(0, 6, 7)]
    for _ in range(200):
        step_targets(tracks, config, rng)
        for t in tracks:
            assert config.arena.contains(t.true_position)
            speed = math.hypot(*t.true_velocity)
            assert speed == pytest.approx(0.9, abs=1e-9)


def test_measure_exact_when_noise_free():
    tracks = [make_track(2.5, 7.5)]
    rng = np.random.default_rng(1)
    z = measure(tracks, 0.0, rng)["t000"]
    assert (z.x, z.y) == (2.5, 7.5)


def test_measure_noise_scale():
    tracks = [make_track()]
    rng = np.random.default_rng(2)
    xs = [measure(tracks, 0.25, rng)["t000"].x for _ in range(4000)]
    assert np.std(xs) == pytest.approx(0.25, rel=0.08)
    assert np.mean(xs) == pytest.approx(5.0, abs=0.02)


def test_kalman_variance_follows_riccati_recursion():
    config = SimConfig(measurement_noise_std=0.5, process_noise=0.04, initial_variance=2.0)
    track = make_track(var=2.0)
    rng = np.random.default_rng(3)
    want = oracles.riccati_posteriors(2.0, 0.04, 0.25, 40)
    got = []
    for k in range(1, 41):
        z = measure([track], config.measurement_noise_std, rng)["t000"]
        kalman_update(track, z, k, config)
        got.append(track.estimate_var_x)
    assert got == pytest.approx(want, rel=1e-12)
    fixed = oracles.riccati_fixed_point(0.04, 0.25)
    assert got[-1] == pytest.approx(fixed, rel=1e-6)
    assert all(v > 0 for v in got)


def test_kalman_posterior_never_exceeds_predicted_variance():
    config = SimConfig(measurement_noise_std=0.3, process_noise=0.01)
    track = make_track(var=1.0)
    rng = np.random.default_rng(5)
    prior = track.estimate_var_x
    for k in range(1, 30):
        z = measure([track], 0.3, rng)["t000"]
        kalman_update(track, z, k, config)
        assert track.estimate_var_x <= prior + config.process_noise + 1e-15
        prior = track.estimate_var_x


def test_kalman_zero_noise_locks_onto_constant_velocity_target():
    # r=0 makes the gain one, so the mean rides the exact measurements and
    # the finite-difference velocity becomes exact after two of them.
    # SimConfig refuses r=0 for the closed loop, so the filter gets the
    # three fields it reads directly.
    config = SimpleNamespace(round_duration=1.0, process_noise=0.0, measurement_noise_std=0.0)
    track = make_track(1.0, 1.0, vx=0.2, vy=0.1)
    rng = np.random.default_rng(6)
    motion = SimConfig(target_speed=0.2, rng_seed=0)
    for k in range(1, 6):
        step_targets([track], motion, rng)
        z = measure([track], 0.0, rng)["t000"]
        kalman_update(track, z, k, config)
    assert track.estimate_mean.x == pytest.approx(track.true_position.x, abs=1e-12)
    assert track.velocity_estimate[0] == pytest.approx(0.2, abs=1e-12)
    assert track.velocity_estimate[1] == pytest.approx(0.1, abs=1e-12)
    assert track.estimate_var_x == 0.0
    # one more predict step lands exactly on the next true position
    predicted = track.estimate_mean.x + track.velocity_estimate[0]
    step_targets([track], motion, rng)
    assert predicted == pytest.approx(track.true_position.x, abs=1e-12)


def test_run_rounds_shape_and_invariants():
    config = SimConfig(num_robots=3, num_targets=8, alpha=1, rounds=12, rng_seed=21)
    records = run_rounds(config)
    assert [r.round_index for r in records] == list(range(1, 13))
    n = 4 * config.num_robots
    for r in records:
        assert len(r.selected) == config.num_robots
        assert set(r.removed) <= set(r.selected)
        assert len(r.removed) == min(config.alpha, config.num_robots)
        assert 0.0 <= r.f_attacked <= r.f_full + 1e-12
        assert 0.0 <= r.attack_rate <= 1.0
        assert 0 <= r.coverage_attacked <= r.coverage_full <= config.num_targets
        assert r.oracle_calls <= 2 * n * n + n


def test_run_rounds_alpha_zero_never_loses_value():
    config = SimConfig(num_robots=3, num_targets=10, alpha=0, rounds=8, rng_seed=9)
    for r in run_rounds(config):
        assert r.removed == ()
        assert r.f_attacked == r.f_full
        assert r.attack_rate == 0.0


def test_run_rounds_byte_determinism():
    config = SimConfig(num_robots=3, num_targets=6, alpha=1, rounds=10, rng_seed=1234)
    a = json.dumps([r.to_dict() for r in run_rounds(config)], sort_keys=True)
    b = json.dumps([r.to_dict() for r in run_rounds(config)], sort_keys=True)
    assert a == b
    c = json.dumps(
        [r.to_dict() for r in run_rounds(SimConfig(num_robots=3, num_targets=6, alpha=1, rounds=10, rng_seed=1235))],
        sort_keys=True,
    )
    assert a != c


def test_attack_does_not_steer_the_robots():
    # camera-off semantics: removal changes scoring, never the flight plan,
    # so the per-round selections match a no-attack run of the same world
    base = dict(num_robots=3, num_targets=8, alpha=2, rounds=10, rng_seed=77)
    attacked = run_rounds(SimConfig(attacker="optimal", **base))
    unattacked = run_rounds(SimConfig(attacker="none", **base))
    assert [r.selected for r in attacked] == [r.selected for r in unattacked]
    assert [r.f_full for r in attacked] == pytest.approx([r.f_full for r in unattacked])
    for r in unattacked:
        assert r.removed == ()
        assert r.attack_rate == 0.0


def test_world_streams_are_planner_independent():
    base = dict(num_robots=3, num_targets=8, alpha=1, rounds=6, rng_seed=55)
    greedy = run_rounds(SimConfig(planner="greedy", **base))
    random = run_rounds(SimConfig(planner="random", **base))
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
    with pytest.raises(ValueError):
        SimConfig(attacker="emp")
    for flat in (Rect(0.0, 0.0, 0.0, 10.0), Rect(0.0, 10.0, 3.0, 3.0)):
        with pytest.raises(ValueError, match="arena"):
            SimConfig(arena=flat)

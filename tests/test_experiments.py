"""Experiment specs, suite execution, CSV round trips, summaries."""

import concurrent.futures
import itertools
import json
import math
import re
import sys
import time
from dataclasses import fields, replace
from functools import partial
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from resilient_tracking import experiments, matroid, simulation
from resilient_tracking.adversary import ATTACKER_NAMES
from resilient_tracking.errors import CsvFormatError, SpecError
from resilient_tracking.experiments import (
    CSV_COLUMNS,
    ExperimentSpec,
    PairwiseRow,
    RecordRow,
    SummaryRow,
    derive_trial_seed,
    load_spec,
    read_csv,
    render_summary,
    run_suite,
    spec_from_dict,
    summarize,
    summarize_rows,
    write_csv,
)
from resilient_tracking.geometry import Rect
from resilient_tracking.planners import PLANNER_NAMES
from resilient_tracking.simulation import SimConfig

GOLDEN_MULTI_ROUND = json.loads(
    (Path(__file__).parent / "data" / "golden_multi_round.json").read_text()
)


def base_spec(**overrides):
    data = {
        "protocol": "one-step",
        "num_robots": 3,
        "fov_side": 3.0,
        "fly_length": 7.0,
        "arena": [0, 10, 0, 10],
        "num_targets": [8],
        "alphas": [1],
        "trials": 3,
        "planners": ["resilient", "greedy"],
        "attackers": ["optimal"],
        "master_seed": 42,
    }
    data.update(overrides)
    return data


def test_spec_errors_name_the_field():
    cases = [
        ({"protocol": "psychic"}, "protocol"),
        ({"num_robots": 0}, "num_robots"),
        ({"num_robots": "three"}, "num_robots"),
        ({"fov_side": 0}, "fov_side"),
        ({"arena": [0, 10, 0]}, "arena"),
        ({"arena": [False, True, 0, 10]}, "arena"),
        ({"arena": [10, 0, 0, 10]}, "arena"),
        ({"num_targets": []}, "num_targets"),
        ({"num_targets": {"start": 5, "stop": 2}}, "num_targets"),
        ({"num_targets": {"start": True, "stop": 2}}, "num_targets"),
        ({"alphas": [4]}, "alphas"),
        ({"alphas": []}, "alphas"),
        ({"trials": 0}, "trials"),
        ({"planners": ["wishful"]}, "planners"),
        ({"attackers": ["emp"]}, "attackers"),
        ({"master_seed": -1}, "master_seed"),
        ({"bogus_knob": 1}, "bogus_knob"),
        ({"fov_side": float("inf")}, "fov_side"),
        ({"fov_side": float("nan")}, "fov_side"),
        ({"fly_length": float("inf")}, "fly_length"),
        ({"arena": [0, float("inf"), 0, 10]}, "arena"),
        ({"arena": [0, float("nan"), 0, 10]}, "arena"),
        ({"arena": [0, 0, 0, 10]}, "arena"),
        ({"arena": [0, 10, 5, 5]}, "arena"),
        ({"protocol": "multi-round", "target_speed": float("nan")}, "target_speed"),
        ({"protocol": "multi-round", "process_noise": float("inf")}, "process_noise"),
        ({"protocol": "multi-round", "initial_variance": float("inf")}, "initial_variance"),
        ({"protocol": "multi-round", "measurement_noise_std": 0}, "measurement_noise_std"),
        ({"rounds": "abc"}, "rounds"),
        ({"measurement_noise_std": -3}, "measurement_noise_std"),
        ({"num_robots": 8, "alphas": [2], "planners": ["brute-force"]}, "planners"),
        ({"num_robots": 23, "alphas": [10]}, "attackers"),
        # counts past Python's 4300-digit int-to-str limit
        ({"num_robots": 8000, "planners": ["brute-force"]}, "planners"),
        ({"num_robots": 20000, "alphas": [10000]}, "attackers"),
        # past the closed loop's float range or its Kalman gain limit
        ({**GOLDEN_MULTI_ROUND, "fly_length": 1e308}, "fly_length"),
        ({**GOLDEN_MULTI_ROUND, "velocity_jitter_std": 1e308}, "velocity_jitter_std"),
        ({**GOLDEN_MULTI_ROUND, "measurement_noise_std": 1e308}, "measurement_noise_std"),
        ({**GOLDEN_MULTI_ROUND, "initial_variance": 1e17}, "initial_variance"),
        ({**GOLDEN_MULTI_ROUND, "process_noise": 1e308}, "process_noise"),
        ({**GOLDEN_MULTI_ROUND, "measurement_noise_std": 1e-8}, "measurement_noise_std"),
        ({"arena": [-1e308, 1e308, 0, 10]}, "arena"),
        ({"fov_side": 1e308, "fly_length": 1e308}, "fly_length"),
        # integers past the float range
        ({"fov_side": 10**400}, "fov_side"),
        ({"fly_length": -(10**400)}, "fly_length"),
        ({"arena": [0, 10**400, 0, 10]}, "arena"),
        ({"protocol": "multi-round", "target_speed": 10**400}, "target_speed"),
    ]
    for overrides, field in cases:
        with pytest.raises(SpecError, match=field):
            spec_from_dict(base_spec(**overrides))


def test_every_spec_field_is_required_and_checked():
    # a missing field, or one of the wrong type, gets an error naming it:
    # the spec's own fields and its scenario's world
    own = [f.name for f in fields(ExperimentSpec) if f.name != "scenario"]
    for name in [*own, "num_robots", "fov_side", "fly_length", "arena"]:
        if name != "output":
            spec = base_spec()
            del spec[name]
            with pytest.raises(SpecError, match=f"field '{name}'"):
                spec_from_dict(spec)
        for wrong in ({"x": 1}, True):
            with pytest.raises(SpecError, match=f"field '{name}'"):
                spec_from_dict(base_spec(**{name: wrong}))
    # each closed-loop field's own rule, on a spec that may set it
    for name in experiments._SIMULATION_FIELDS:
        with pytest.raises(SpecError, match=f"field '{name}': expected"):
            spec_from_dict(base_spec(protocol="multi-round", **{name: True}))


@pytest.mark.parametrize("name", experiments._SIMULATION_FIELDS)
def test_one_step_spec_refuses_each_closed_loop_field(name):
    # SimConfig's own default, which a multi-round spec accepts: the refusal
    # is the protocol's, not the field's rule
    value = getattr(SimConfig(), name)
    accepted = spec_from_dict(base_spec(protocol="multi-round", **{name: value}))
    assert getattr(accepted.scenario, name) == value
    with pytest.raises(SpecError, match=f"^field '{name}': a closed-loop field"):
        spec_from_dict(base_spec(**{name: value}))


def test_one_step_scenario_is_one_round_of_the_spec_world():
    scenario = spec_from_dict(base_spec()).scenario
    assert scenario.rounds == 1
    assert (scenario.num_robots, scenario.fov_side, scenario.fly_length) == (3, 3.0, 7.0)
    assert scenario.arena == Rect(0.0, 10.0, 0.0, 10.0)


HUGE = 10**5000  # past Python's 4300-digit int-to-str limit


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: SimConfig(fly_length=HUGE), "fly_length"),
        # rounds x fly_length leaves the float range, and the message shows rounds
        (lambda: SimConfig(rounds=HUGE), "fly_length': .* within <int too long to print> rounds"),
        (lambda: SimConfig(alpha=HUGE), "alpha"),
        (lambda: spec_from_dict(base_spec(num_robots=HUGE, attackers=["greedy"])), "num_robots"),
        (lambda: spec_from_dict(base_spec(trials=HUGE)), "trials"),
        (lambda: spec_from_dict(base_spec(master_seed=-HUGE)), "master_seed"),
        (lambda: spec_from_dict(base_spec(fly_length=HUGE)), "fly_length"),
        (lambda: spec_from_dict(base_spec(num_targets={"start": HUGE, "stop": 1})), "num_targets"),
        (lambda: spec_from_dict(base_spec(arena=[0, 10, HUGE])), "arena"),
    ],
    ids=[
        "config-fly_length",
        "config-rounds",
        "config-alpha",
        "num_robots",
        "trials",
        "master_seed",
        "fly_length",
        "num_targets",
        "arena",
    ],
)
def test_messages_show_integers_too_long_to_print(build, field):
    # each raised a plain ValueError from formatting the value, naming no field
    start = time.perf_counter()
    with pytest.raises(SpecError, match=f"^field '{field}"):
        build()
    assert time.perf_counter() - start < 0.5


def test_unknown_planner_or_attacker_names_the_value_and_the_choices():
    for name, allowed in (("planners", PLANNER_NAMES), ("attackers", ATTACKER_NAMES)):
        with pytest.raises(SpecError) as caught:
            spec_from_dict(base_spec(**{name: [allowed[0], "wishful"]}))
        message = str(caught.value)
        assert f"field '{name}'" in message
        assert "'wishful'" in message and str(allowed) in message


def test_spec_just_inside_the_arithmetic_limits_runs():
    # measurement_noise_std**2 = 1e-14 still moves the peak predicted
    # variance 1.01; a one-step world may fly far as long as it stays finite
    for overrides in (
        {**GOLDEN_MULTI_ROUND, "measurement_noise_std": 1e-7},
        {**GOLDEN_MULTI_ROUND, "initial_variance": 1e13},
        {"fov_side": 1e300, "fly_length": 1e307},
    ):
        spec = spec_from_dict(base_spec(**overrides))
        rows = run_suite(spec)
        assert len(rows) == len(spec.planners) * len(spec.attackers) * len(spec.alphas) * spec.trials * spec.scenario.rounds
        assert all(np.isfinite(row.f_full) for row in rows)


def test_spec_refuses_enumerations_past_the_cap_at_load():
    # brute force: 4**8 bases x C(8, alpha) attacks; optimal: C(23, alpha) removals
    inside = spec_from_dict(base_spec(num_robots=8, alphas=[0, 1], planners=["brute-force"]))
    assert inside.alphas == (0, 1)
    with pytest.raises(SpecError, match="'planners'.*alpha 2.*cap of 1000000"):
        spec_from_dict(base_spec(num_robots=8, alphas=[1, 2], planners=["brute-force"]))
    assert spec_from_dict(base_spec(num_robots=23, alphas=[9, 14])).alphas == (9, 14)
    with pytest.raises(SpecError, match="'attackers'.*alpha 10.*cap of 1000000"):
        spec_from_dict(base_spec(num_robots=23, alphas=[9, 10]))
    # only the exact planner and attacker enumerate
    spec_from_dict(base_spec(num_robots=40, alphas=[20], attackers=["greedy"]))
    # the count stops once past the cap: C(10**6, 5 * 10**5) in full takes seconds
    start = time.perf_counter()
    with pytest.raises(SpecError, match="'attackers'"):
        spec_from_dict(base_spec(num_robots=10**6, alphas=[5 * 10**5]))
    assert time.perf_counter() - start < 0.5


def test_spec_refuses_a_target_range_past_the_cap_at_load(monkeypatch):
    # the range is counted before it is listed: listing 10**12 counts
    # would run out of memory
    start = time.perf_counter()
    with pytest.raises(SpecError, match="'num_targets'.*cap of 1000000"):
        spec_from_dict(base_spec(num_targets={"start": 1, "stop": 10**12}))
    assert time.perf_counter() - start < 0.5
    monkeypatch.setattr(matroid, "ENUMERATION_CAP", 10)
    # a range of 10 passes its own count, and its 10 cells pass theirs; its
    # world of 12 targets and 4 trajectories does not
    tiny = {"num_robots": 1, "alphas": [0], "trials": 1}
    with pytest.raises(SpecError, match="'num_targets': the target-trajectory pairs.*cap of 10$"):
        spec_from_dict(base_spec(**tiny, num_targets={"start": 3, "stop": 12}))
    with pytest.raises(SpecError, match="'num_targets': the target range.*cap of 10$"):
        spec_from_dict(base_spec(**tiny, num_targets={"start": 3, "stop": 13}))


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"trials": 10**12}, "'trials': the \\(m, alpha, trial\\) cells"),
        ({"num_targets": [8, 10**12]}, "'num_targets': the target-trajectory pairs"),
        ({"num_robots": 10**12, "alphas": [0]}, "'num_robots': the trajectories"),
        (
            {"protocol": "multi-round", "num_targets": 10**12, "rounds": 2},
            "'num_targets': the target-trajectory pairs",
        ),
        (
            {
                "protocol": "multi-round",
                "num_robots": 2000,
                "num_targets": 1,
                "trials": 1,
                "rounds": 1,
            },
            "'num_robots': the expected-detections grid cells of a round of 2000 robots",
        ),
    ],
    ids=["trials", "num_targets", "num_robots", "multi-round", "multi-round-grid"],
)
def test_spec_refuses_work_past_the_cap_at_load(overrides, message):
    # each used to end in a MemoryError: the cells were listed, or the
    # world's targets or robots allocated, or a round's 7999 x 7999 grid
    # painted, before anything ran
    start = time.perf_counter()
    with pytest.raises(SpecError, match=f"{message}.*cap of 1000000$"):
        spec_from_dict(base_spec(**overrides))
    assert time.perf_counter() - start < 0.5


def test_spec_work_bound_boundaries_at_a_patched_cap(monkeypatch):
    monkeypatch.setattr(matroid, "ENUMERATION_CAP", 12)
    # 2 target counts x 1 alpha x 6 trials = 12 cells; 3 targets x 4 x 1 robot = 12 pairs
    small = {"num_robots": 1, "alphas": [0], "num_targets": [1, 3]}
    assert spec_from_dict(base_spec(**small, trials=6)).trials == 6
    with pytest.raises(SpecError, match="'trials'.*cap of 12$"):
        spec_from_dict(base_spec(**small, trials=7))
    with pytest.raises(SpecError, match="'num_targets'.*cap of 12$"):
        spec_from_dict(base_spec(**{**small, "num_targets": [1, 4]}, trials=1))
    # 4 directions x 3 robots = 12 trajectories, and 12 pairs with one target
    assert spec_from_dict(base_spec(num_robots=3, alphas=[0], num_targets=[1], trials=1))
    with pytest.raises(SpecError, match="'num_robots'.*cap of 12$"):
        spec_from_dict(base_spec(num_robots=4, alphas=[0], num_targets=[1], trials=1))


def test_multi_round_grid_bound_boundary_at_a_patched_cap(monkeypatch):
    # 2 robots: 8 trajectories and at most (4 * 2 - 1)^2 = 49 grid cells
    monkeypatch.setattr(matroid, "ENUMERATION_CAP", 49)
    two = {"num_robots": 2, "alphas": [0], "num_targets": [1], "trials": 1}
    spec = spec_from_dict(base_spec(**two, protocol="multi-round", rounds=1))
    assert spec.scenario.num_robots == 2
    monkeypatch.setattr(matroid, "ENUMERATION_CAP", 48)
    with pytest.raises(SpecError, match="'num_robots': the expected-detections grid.*cap of 48$"):
        spec_from_dict(base_spec(**two, protocol="multi-round", rounds=1))
    # a one-step world scores no grid
    assert spec_from_dict(base_spec(**two)).scenario.num_robots == 2


def test_rounds_bound_no_work_and_documented_specs_pass_the_bound():
    spec = spec_from_dict(base_spec(protocol="multi-round", rounds=10**9))
    assert spec.scenario.rounds == 10**9
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
    assert blocks
    for block in blocks:
        spec_from_dict(json.loads(block))


def test_spec_accepts_target_range_forms():
    assert spec_from_dict(base_spec(num_targets=7)).num_targets == (7,)
    assert spec_from_dict(base_spec(num_targets=[3, 9])).num_targets == (3, 9)
    got = spec_from_dict(base_spec(num_targets={"start": 4, "stop": 6}))
    assert got.num_targets == (4, 5, 6)


def test_load_spec_rejects_bad_json(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text("{not json")
    with pytest.raises(SpecError, match="JSON"):
        load_spec(path)


@pytest.mark.parametrize(
    "content",
    [
        b'{"protocol": "one-step\xff"}',  # not UTF-8
        b"[" * 100_000 + b"]" * 100_000,  # nested past the recursion limit
        b'{"num_robots": ' + b"9" * 5000 + b"}",  # past Python's int digit limit
    ],
    ids=["not-utf8", "deep-nesting", "long-integer"],
)
def test_load_spec_refuses_files_json_cannot_read(tmp_path, content):
    path = tmp_path / "spec.json"
    path.write_bytes(content)
    with pytest.raises(SpecError, match="spec file is not valid UTF-8 JSON"):
        load_spec(path)


def test_trial_seeds_stable_under_more_trials():
    first = [derive_trial_seed(42, t) for t in range(5)]
    widened = [derive_trial_seed(42, t) for t in range(50)]
    assert widened[:5] == first
    assert len(set(widened)) == 50
    assert derive_trial_seed(43, 0) != derive_trial_seed(42, 0)


def test_one_step_suite_shape_and_order():
    spec = spec_from_dict(
        base_spec(num_targets=[5, 8], alphas=[0, 1], trials=2, attackers=["optimal", "none"])
    )
    rows = run_suite(spec)
    # cells x planners x attackers
    assert len(rows) == 2 * 2 * 2 * 2 * 2
    assert [r.round for r in rows] == [1] * len(rows)
    # deterministic nesting: m, alpha, trial, planner, attacker
    key = [(r.m, r.alpha, r.trial) for r in rows]
    assert key == sorted(key, key=lambda k: (spec.num_targets.index(k[0]), k[1], k[2]))
    for row in rows:
        assert row.seed == derive_trial_seed(42, row.trial)
        assert 0.0 <= row.f_attacked <= row.f_full


def test_suite_rows_reproducible_modulo_wall_time():
    spec = spec_from_dict(base_spec())
    a = run_suite(spec)
    b = run_suite(spec)
    strip = lambda r: r._replace(wall_time_micros=0)  # noqa: E731
    assert [strip(r) for r in a] == [strip(r) for r in b]


def test_early_trials_unchanged_when_trials_grow():
    small = run_suite(spec_from_dict(base_spec(trials=2)))
    large = run_suite(spec_from_dict(base_spec(trials=4)))
    strip = lambda r: r._replace(wall_time_micros=0)  # noqa: E731
    assert [strip(r) for r in large if r.trial < 2] == [strip(r) for r in small]


def test_parallel_matches_serial():
    spec = spec_from_dict(base_spec(trials=4))
    serial = run_suite(spec, jobs=1)
    parallel = run_suite(spec, jobs=3)
    strip = lambda r: r._replace(wall_time_micros=0)  # noqa: E731
    assert [strip(r) for r in serial] == [strip(r) for r in parallel]


def test_jobs_never_ask_for_more_workers_than_cells_or_cpus(monkeypatch):
    # a process pool starts all its workers at the first submit; this fake
    # starts none and runs the cells here
    asked = []

    class RecordingPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, cells):
            return map(fn, cells)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 8)
    three_cells = spec_from_dict(base_spec(trials=3))
    strip = lambda r: r._replace(wall_time_micros=0)  # noqa: E731
    serial = [strip(r) for r in run_suite(three_cells, jobs=1)]
    assert asked == []
    assert [strip(r) for r in run_suite(three_cells, jobs=5000)] == serial
    assert asked == [3]
    run_suite(spec_from_dict(base_spec(trials=20)), jobs=5000)
    assert asked == [3, 8]
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: None)
    run_suite(three_cells, jobs=5000)
    assert asked == [3, 8]


@pytest.mark.parametrize("trials", [1, 3])
@pytest.mark.parametrize("jobs", [1, 3])
def test_one_step_rows_match_the_literal_cell_loop(trials, jobs):
    # repeated target counts and alphas must keep their list positions
    spec = spec_from_dict(
        base_spec(
            num_targets=[5, 8, 5],
            alphas=[1, 0, 2, 1],
            trials=trials,
            planners=list(PLANNER_NAMES),
            attackers=list(ATTACKER_NAMES),
        )
    )
    got = [r._replace(wall_time_micros=0) for r in run_suite(spec, jobs=jobs)]
    assert got == oracles.one_step_rows_literal(spec)


def test_one_step_samples_each_world_once_and_plans_every_alpha_on_it(monkeypatch):
    worlds, objectives, lookups, plans = [], [], [], []
    sample_instance, coverage_count = experiments.sample_instance, experiments.CoverageCount
    get_planner = experiments.get_planner

    def counted_sample(rng, **kwargs):
        worlds.append(kwargs["num_targets"])
        return sample_instance(rng, **kwargs)

    def counted_objective(*args):
        objectives.append(len(worlds))
        return coverage_count(*args)

    def logged_planner(name):
        lookups.append((len(worlds) - 1, name))
        plan = get_planner(name)

        def logged(matroid, objective, alpha, rng):
            plans.append((len(worlds) - 1, alpha, name))
            return plan(matroid, objective, alpha, rng)

        return logged

    monkeypatch.setattr(experiments, "sample_instance", counted_sample)
    monkeypatch.setattr(experiments, "CoverageCount", counted_objective)
    monkeypatch.setattr(experiments, "get_planner", logged_planner)
    planners = ["resilient", "random", "greedy"]
    spec = spec_from_dict(
        base_spec(num_targets=[5, 8], alphas=[2, 0, 1], trials=2, planners=planners)
    )
    run_suite(spec, jobs=1)
    # one world and one objective per (m, trial), m-major; one planner
    # lookup and one plan per (world, alpha, planner)
    assert worlds == [5, 5, 8, 8]
    assert objectives == [1, 2, 3, 4]
    assert lookups == [(world, p) for world in range(4) for _ in spec.alphas for p in planners]
    assert plans == [
        (world, alpha, planner)
        for world in range(4)
        for alpha in spec.alphas
        for planner in planners
    ]


def test_one_step_derives_each_stream_once_per_world(monkeypatch):
    derived = []
    role_rng = experiments._role_rng

    def counted(trial_seed, *codes):
        derived.append((trial_seed, codes))
        return role_rng(trial_seed, *codes)

    monkeypatch.setattr(experiments, "_role_rng", counted)
    random_code, greedy_code = PLANNER_NAMES.index("random"), PLANNER_NAMES.index("greedy")
    acode = ATTACKER_NAMES.index("random")
    # per world: its own stream, the random planner's, and the random
    # attacker's of each planner; greedy neither plans nor attacks by drawing
    want = [(0,), (1, random_code), (2, random_code, acode), (2, greedy_code, acode)]
    for alphas in ([2, 0, 1, 3], [2]):
        derived.clear()
        spec = spec_from_dict(
            base_spec(
                alphas=alphas,
                trials=2,
                planners=["random", "greedy"],
                attackers=["random", "greedy"],
            )
        )
        rows = run_suite(spec, jobs=1)
        seeds = list(dict.fromkeys(row.seed for row in rows))
        assert derived == [(seed, codes) for seed in seeds for codes in want]
    # nothing is drawn at alpha 0, so no attacker stream is derived
    derived.clear()
    spec = base_spec(alphas=[0], trials=2, planners=["random"], attackers=["random"])
    run_suite(spec_from_dict(spec), jobs=1)
    assert [codes for _, codes in derived] == [(0,), (1, random_code)] * 2


def test_bruteforce_rows_agree_with_enumeration_oracle():
    spec = spec_from_dict(
        base_spec(num_robots=2, num_targets=[6], planners=["brute-force"], trials=2)
    )
    rows = run_suite(spec)
    for row in rows:
        # the planner's reported worst case is what the optimal attacker finds
        assert row.attacker == "optimal"
        assert row.f_attacked == pytest.approx(row.f_full * (1 - row.attack_rate))


def test_multi_round_suite_row_count():
    spec = spec_from_dict(
        base_spec(
            protocol="multi-round",
            num_targets=[6],
            trials=2,
            rounds=5,
            planners=["greedy"],
            attackers=["optimal", "none"],
        )
    )
    rows = run_suite(spec)
    assert len(rows) == 2 * 2 * 5
    assert sorted({r.round for r in rows}) == [1, 2, 3, 4, 5]


def test_multi_round_suite_runs_the_loop_once_per_planner(monkeypatch):
    starts = []
    init_robots = simulation.init_robots
    monkeypatch.setattr(
        simulation, "init_robots", lambda *args: starts.append(args) or init_robots(*args)
    )
    planners, attackers = ["resilient", "greedy", "random"], ["optimal", "greedy", "none"]
    spec = spec_from_dict(
        base_spec(
            protocol="multi-round",
            trials=2,
            rounds=2,
            planners=planners,
            attackers=attackers,
        )
    )
    rows = run_suite(spec)
    cells = len(spec.num_targets) * len(spec.alphas) * spec.trials
    assert len(starts) == len(planners) * cells
    assert len(rows) == len(planners) * len(attackers) * 2 * cells


def test_random_attacker_stream_is_built_only_when_it_draws(monkeypatch):
    # alpha 0 draws nothing, so no attacker stream (code 2) is seeded there;
    # the golden CSVs show that no stream that is drawn from moved
    built = []
    role_rng = experiments._role_rng
    spec = spec_from_dict(
        base_spec(alphas=[0, 1], planners=["resilient", "random"], attackers=["random", "none"])
    )
    monkeypatch.setattr(
        experiments, "_role_rng", lambda seed, *codes: built.append(codes) or role_rng(seed, *codes)
    )
    rows = run_suite(spec)
    assert len(rows) == 2 * spec.trials * 2 * 2
    # one per planner and trial, at alpha 1 only
    assert sorted(codes for codes in built if codes[0] == 2) == [(2, 0, 2)] * 3 + [(2, 2, 2)] * 3


SIMULATION_FIELDS = (
    "rounds",
    "measurement_noise_std",
    "process_noise",
    "initial_variance",
    "target_speed",
    "velocity_jitter_std",
)


def test_each_multi_round_cell_replaces_the_scenario_cell_fields(monkeypatch):
    configs = []
    monkeypatch.setattr(
        experiments,
        "run_rounds",
        lambda config: configs.append(config) or {name: [] for name in config.attackers},
    )
    spec = spec_from_dict(
        base_spec(
            protocol="multi-round",
            num_targets=[4, 6],
            alphas=[0, 2],
            trials=2,
            planners=["resilient", "random"],
            attackers=["optimal", "none"],
            rounds=3,
            target_speed=0.5,
        )
    )
    run_suite(spec)
    assert configs == [
        replace(
            spec.scenario,
            num_targets=m,
            alpha=alpha,
            planner=planner,
            attackers=spec.attackers,
            rng_seed=derive_trial_seed(spec.master_seed, trial),
        )
        for m in spec.num_targets
        for alpha in spec.alphas
        for trial in range(spec.trials)
        for planner in spec.planners
    ]


def test_multi_round_spec_without_sim_fields_gets_sim_config_defaults(monkeypatch):
    configs = []
    monkeypatch.setattr(
        experiments,
        "run_rounds",
        lambda config: configs.append(config) or {name: [] for name in config.attackers},
    )
    run_suite(spec_from_dict(base_spec(protocol="multi-round", trials=1)))
    given = dict(zip(SIMULATION_FIELDS, (3, 0.2, 0.05, 2.0, 0.5, 0.1)))
    run_suite(spec_from_dict(base_spec(protocol="multi-round", trials=1, **given)))

    defaults = SimConfig()
    assert len(configs) == 4  # one run per planner, two planners per spec
    for name in SIMULATION_FIELDS:
        assert getattr(configs[0], name) == getattr(defaults, name)
        assert getattr(configs[-1], name) == given[name]


# Each numeric SimConfig field's least refused and least accepted value on
# the side of its minimum, stated apart from the rule table, so that a rule
# missing from the table shows; an int boundary marks an integer field.
# Below about 1e-7 the arithmetic check refuses measurement_noise_std.
SMALLEST = math.nextafter(0.0, 1.0)
FIELD_BOUNDARIES = {
    "num_robots": (0, 1),
    "num_targets": (0, 1),
    "alpha": (-1, 0),
    "fov_side": (0.0, SMALLEST),
    "fly_length": (-SMALLEST, 0.0),
    "rounds": (0, 1),
    "measurement_noise_std": (0.0, 1e-7),
    "process_noise": (-SMALLEST, 0.0),
    "initial_variance": (0.0, SMALLEST),
    "target_speed": (-SMALLEST, 0.0),
    "velocity_jitter_std": (-SMALLEST, 0.0),
    "rng_seed": (-1, 0),
}

# A spec field that sets a SimConfig field, and how it holds one value.
SPEC_FIELD_OF = {
    "num_robots": ("num_robots", lambda v: v),
    "num_targets": ("num_targets", lambda v: [v]),
    "alpha": ("alphas", lambda v: [v]),
    "fov_side": ("fov_side", lambda v: v),
    "fly_length": ("fly_length", lambda v: v),
    "rng_seed": ("master_seed", lambda v: v),
    **{name: (name, lambda v: v) for name in SIMULATION_FIELDS},
}


def test_the_boundary_table_covers_every_numeric_sim_config_field():
    hints = get_type_hints(SimConfig)
    numeric = {f.name for f in fields(SimConfig) if hints[f.name] in (int, float)}
    assert set(FIELD_BOUNDARIES) == numeric
    assert set(SPEC_FIELD_OF) <= numeric


@pytest.mark.parametrize("name", sorted(FIELD_BOUNDARIES))
def test_sim_config_and_spec_refuse_the_same_values_naming_the_field(name):
    refused, accepted = FIELD_BOUNDARIES[name]
    bad = [refused, True, False, math.nan, math.inf, -math.inf]
    if isinstance(accepted, int):
        bad += [float(accepted), accepted + 0.5]
    else:
        bad += [10**400, -(10**400)]
    base = {"num_robots": 3, "num_targets": 8, "alpha": 1, "rounds": 3}
    for value in bad:
        with pytest.raises(ValueError, match=f"field '{name}'"):
            SimConfig(**{**base, name: value})
    assert getattr(SimConfig(**{**base, name: accepted}), name) == accepted
    if name not in SPEC_FIELD_OF:
        return
    spec_name, hold = SPEC_FIELD_OF[name]
    for value in bad:
        with pytest.raises(SpecError, match=f"field '{spec_name}'"):
            spec_from_dict(base_spec(protocol="multi-round", **{spec_name: hold(value)}))
    spec_from_dict(base_spec(protocol="multi-round", **{spec_name: hold(accepted)}))


@pytest.mark.parametrize(
    "overrides, name",
    [
        ({"rounds": 2.5}, "rounds"),
        ({"num_targets": 2.5}, "num_targets"),
        ({"num_robots": 2.5, "alpha": 0}, "num_robots"),
        ({"alpha": 1.5}, "alpha"),
        ({"rng_seed": -1}, "rng_seed"),
        ({"rng_seed": 1.5}, "rng_seed"),
        # ran one round
        ({"rounds": True}, "rounds"),
    ],
)
def test_sim_config_refuses_at_construction_what_used_to_fail_mid_run(overrides, name):
    # each was accepted, then ended in a TypeError or ValueError inside run_rounds
    with pytest.raises(ValueError, match=f"field '{name}'"):
        SimConfig(**overrides)


def test_csv_round_trip(tmp_path):
    spec = spec_from_dict(base_spec(trials=2))
    rows = run_suite(spec)
    path = tmp_path / "out.csv"
    write_csv(rows, path, objective="coverage_count")
    text = path.read_text().splitlines()
    assert text[0] == ",".join(CSV_COLUMNS)
    assert text[-1] == f"# status=complete schema=1 objective=coverage_count rows={len(rows)}"
    loaded = read_csv(path)
    assert loaded == rows


def test_read_csv_rejects_malformed_files(tmp_path):
    good_header = ",".join(CSV_COLUMNS)
    bad_header = tmp_path / "a.csv"
    bad_header.write_text("trial,round\n")
    with pytest.raises(CsvFormatError, match="header"):
        read_csv(bad_header)
    short_row = tmp_path / "b.csv"
    short_row.write_text(good_header + "\n1,2,greedy\n")
    with pytest.raises(CsvFormatError, match="line 2"):
        read_csv(short_row)
    bad_type = tmp_path / "c.csv"
    bad_type.write_text(good_header + "\n0,1,greedy,optimal,5,1,x,3.0,0.25,10,100,7\n")
    with pytest.raises(CsvFormatError, match="line 2"):
        read_csv(bad_type)
    # names and values write_csv never writes, on the second row of a
    # complete file, so summarize never averages them
    good = "0,1,greedy,optimal,5,1,4.0,3.0,0.25,10,100,7"
    marker = "# status=complete schema=1 objective=coverage_count rows=2"
    impossible = tmp_path / "d.csv"
    for column, value in (
        ("planner", "nonsense-planner"),
        ("planner", "Greedy"),
        ("attacker", "worst"),
        ("f_full", "nan"),
        ("f_full", "inf"),
        ("f_full", "1e400"),
        ("f_attacked", "-inf"),
        ("attack_rate", "NaN"),
    ):
        parts = good.split(",")
        parts[CSV_COLUMNS.index(column)] = value
        impossible.write_text("\n".join([good_header, good, ",".join(parts), marker, ""]))
        for reader in (read_csv, summarize):
            with pytest.raises(CsvFormatError, match=f"^line 3: {column}: "):
                reader(impossible)
    impossible.write_text("\n".join([good_header, good, good, marker, ""]))
    assert len(read_csv(impossible)) == 2


EDGE_FLOATS = (-0.0, 0.0, 5e-324, -5e-324, sys.float_info.max, -sys.float_info.max, 0.1)


def csv_rows():
    """RecordRows write_csv can write: any integers, registered names, finite floats."""
    floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)
    return st.builds(
        RecordRow,
        trial=st.integers(),
        round=st.integers(),
        planner=st.sampled_from(PLANNER_NAMES),
        attacker=st.sampled_from(ATTACKER_NAMES),
        m=st.integers(),
        alpha=st.integers(),
        f_full=floats,
        f_attacked=floats,
        attack_rate=floats,
        oracle_calls=st.integers(),
        wall_time_micros=st.integers(),
        seed=st.integers(0, 2**64 - 1),
    )


# every registered planner against every registered attacker, each float
# at an edge of the float range and the seed at the top of its 64 bits
EDGE_ROWS = [
    RecordRow(
        k, 1, planner, attacker, 5, 1,
        EDGE_FLOATS[k % 7], EDGE_FLOATS[(k + 1) % 7], EDGE_FLOATS[(k + 2) % 7],
        k, 0, 2**64 - 1 - k,
    )
    for k, (planner, attacker) in enumerate(itertools.product(PLANNER_NAMES, ATTACKER_NAMES))
]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(csv_rows(), max_size=12))
@example(EDGE_ROWS)
def test_csv_round_trip_keeps_every_value_and_its_repr(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("round_trip") / "rows.csv"
    write_csv(rows, path)
    loaded = read_csv(path)
    assert loaded == rows
    # -0.0 == 0.0, so equal rows could still differ in a float's sign
    assert [list(map(repr, row)) for row in loaded] == [list(map(repr, row)) for row in rows]
    assert all(type(row) is RecordRow for row in loaded)


GOLDEN_CSVS = sorted((Path(__file__).parent / "data").glob("golden_*.csv"))


def read_outcome(reader, path):
    """The rows ``reader`` reads from ``path``, or its CsvFormatError's text."""
    try:
        return reader(path)
    except CsvFormatError as exc:
        return f"CsvFormatError: {exc}"


def mutated(text, lineno, column=None, value=None):
    """``text`` with line ``lineno`` (1-based) changed.

    With a column, that field becomes ``value``, or is dropped when
    ``value`` is None; without one the whole line becomes ``value``.
    """
    lines = text.splitlines()
    if column is None:
        lines[lineno - 1] = value
    else:
        parts = lines[lineno - 1].split(",")
        if value is None:
            del parts[column]
        else:
            parts[column] = value
        lines[lineno - 1] = ",".join(parts)
    return "\n".join(lines) + "\n"


def edit(lineno, column, value):
    return partial(mutated, lineno=lineno, column=CSV_COLUMNS.index(column), value=value)


MUTATIONS = {
    "unchanged": lambda text: text,
    "short row": edit(3, "seed", None),
    "bad number": edit(4, "oracle_calls", "1.5"),
    **{f"non-finite {column}": edit(5, column, "-inf") for column in CSV_COLUMNS[6:9]},
    **{f"unknown {column}": edit(2, column, "worst") for column in ("planner", "attacker")},
    "bad marker": lambda text: mutated(
        text, len(text.splitlines()), value=text.splitlines()[-1].replace("schema=1", "schema=2")
    ),
}


@pytest.mark.parametrize("mutation", MUTATIONS)
@pytest.mark.parametrize("golden", GOLDEN_CSVS, ids=lambda path: path.stem)
def test_read_csv_matches_the_per_field_reader(tmp_path, golden, mutation):
    path = tmp_path / golden.name
    path.write_text(MUTATIONS[mutation](golden.read_text()), encoding="utf-8")
    got = read_outcome(read_csv, path)
    assert got == read_outcome(oracles.read_csv_reference, path)
    assert isinstance(got, list) == (mutation == "unchanged")


# values of each kind the reader must take or refuse, in any column
CSV_TOKENS = (
    "", "x", "1.5", "-0.0", "5e-324", "1e400", "nan", "inf", "-inf", "0x10", "1_000",
    " 7", "\u0661", "Greedy", "worst", "resilient", "optimal", "18446744073709551616",
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    golden=st.sampled_from(GOLDEN_CSVS),
    edits=st.lists(
        st.tuples(
            st.integers(2, 30),
            st.integers(0, len(CSV_COLUMNS) - 1),
            st.sampled_from((None, *CSV_TOKENS)),
        ),
        min_size=1,
        max_size=3,
    ),
)
def test_read_csv_matches_the_per_field_reader_on_random_edits(tmp_path_factory, golden, edits):
    text = golden.read_text()
    for lineno, column, value in edits:
        lineno = min(lineno, len(text.splitlines()) - 1)
        text = mutated(text, lineno, column, value)
    path = tmp_path_factory.mktemp("edited") / golden.name
    path.write_text(text, encoding="utf-8")
    assert read_outcome(read_csv, path) == read_outcome(oracles.read_csv_reference, path)


def test_read_csv_refuses_a_truncated_file(tmp_path):
    path = tmp_path / "rows.csv"
    write_csv(fixture_rows(), path)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-3]))  # a run that died after two more rows
    with pytest.raises(CsvFormatError, match="marker"):
        read_csv(path)
    with pytest.raises(CsvFormatError, match="marker"):
        summarize(path)


def test_read_csv_refuses_a_marker_with_the_wrong_row_count(tmp_path):
    path = tmp_path / "rows.csv"
    rows = fixture_rows()
    write_csv(rows, path)
    text = path.read_text()
    path.write_text(text.replace(f"rows={len(rows)}", f"rows={len(rows) + 1}"))
    with pytest.raises(CsvFormatError, match=f"line {len(rows) + 2}"):
        read_csv(path)
    path.write_text(text + text.splitlines(keepends=True)[1])
    with pytest.raises(CsvFormatError, match="after the completeness marker"):
        read_csv(path)
    # a marker of another schema, or of none, is refused at its line even
    # when its rows count is right
    marker = f"line {len(rows) + 2}: marker .* is not schema 1"
    for foreign in ("schema=2", "schema=", "schema=10", "schema=1.0", "version=1"):
        path.write_text(text.replace("schema=1", foreign))
        with pytest.raises(CsvFormatError, match=marker):
            read_csv(path)
    path.write_text(text.replace(" schema=1", ""))
    with pytest.raises(CsvFormatError, match=marker):
        read_csv(path)
    path.write_text(text)
    assert read_csv(path) == rows


def test_read_csv_names_the_line_of_the_first_byte_that_is_not_utf8(tmp_path):
    path = tmp_path / "rows.csv"
    write_csv(fixture_rows(), path)
    lines = path.read_bytes().splitlines(keepends=True)
    for eol in (b"\n", b"\r\n", b"\r"):
        for lineno in (1, 3, len(lines)):
            broken = [line.rstrip(b"\n") + eol for line in lines]
            broken[lineno - 1] = broken[lineno - 1][:5] + b"\xff" + broken[lineno - 1][5:]
            path.write_bytes(b"".join(broken))
            with pytest.raises(CsvFormatError, match=f"^line {lineno}: not UTF-8"):
                read_csv(path)
    with pytest.raises(CsvFormatError, match=f"^line {len(lines)}: not UTF-8"):
        summarize(path)


def test_write_csv_replaces_the_file_whole_or_not_at_all(tmp_path):
    path = tmp_path / "rows.csv"
    write_csv(fixture_rows(), path)
    before = path.read_text()

    class Broken:
        @property
        def trial(self):
            raise RuntimeError("disk full")

    with pytest.raises(RuntimeError):
        write_csv(fixture_rows()[:2] + [Broken()], path)
    assert path.read_text() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["rows.csv"]

    write_csv(fixture_rows()[:2], path)
    assert read_csv(path) == fixture_rows()[:2]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["rows.csv"]


def fixture_rows():
    def row(planner, trial, f_att):
        return RecordRow(
            trial=trial, round=1, planner=planner, attacker="optimal", m=30, alpha=2,
            f_full=f_att + 1.0, f_attacked=f_att, attack_rate=0.1,
            oracle_calls=10, wall_time_micros=5, seed=123,
        )

    rows = [row("resilient", t, v) for t, v in enumerate([10.0, 12.0, 11.0, 13.0])]
    rows += [row("greedy", t, v) for t, v in enumerate([8.0, 9.0, 10.0])]
    rows += [row("brute-force", t, v) for t, v in enumerate([12.0, 12.0, 12.0])]
    return rows


def test_summary_hand_computed_values():
    summary, pairwise = summarize_rows(fixture_rows())
    by_planner = {s.planner: s for s in summary}
    res = by_planner["resilient"]
    assert (res.count, res.mean_attacked) == (4, 11.5)
    assert res.std_attacked == pytest.approx(1.118033988749895)
    grd = by_planner["greedy"]
    assert (grd.count, grd.mean_attacked) == (3, 9.0)
    assert grd.std_attacked == pytest.approx(0.816496580927726)
    bf = by_planner["brute-force"]
    assert (bf.mean_attacked, bf.std_attacked) == (12.0, 0.0)
    diffs = {p.baseline: p.mean_difference for p in pairwise}
    assert diffs["greedy"] == pytest.approx(2.5)
    assert diffs["brute-force"] == pytest.approx(-0.5)


def test_summary_is_row_order_agnostic():
    rows = fixture_rows()
    shuffled = list(rows)
    np.random.default_rng(3).shuffle(shuffled)
    assert summarize_rows(rows) == summarize_rows(shuffled)


def test_summarize_reads_from_disk(tmp_path):
    path = tmp_path / "rows.csv"
    write_csv(fixture_rows(), path)
    summary, pairwise = summarize(path)
    assert len(summary) == 3
    text = render_summary(summary, pairwise)
    assert "resilient" in text and "mean(f_att)" in text
    assert "+2.5000" in text


def test_single_row_summary_has_zero_std():
    summary, pairwise = summarize_rows(fixture_rows()[:1])
    assert summary == [
        SummaryRow(
            planner="resilient", attacker="optimal", m=30, alpha=2,
            count=1, mean_attacked=10.0, std_attacked=0.0,
        )
    ]
    assert pairwise == []

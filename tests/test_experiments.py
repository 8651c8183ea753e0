"""Experiment specs, suite execution, CSV round trips, summaries."""

import concurrent.futures
import json
import re
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

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
    # a missing field, or one of the wrong type, gets an error naming it
    for spec_field in fields(ExperimentSpec):
        name = spec_field.name
        if name == "simulation":
            continue
        if name != "output":
            spec = base_spec()
            del spec[name]
            with pytest.raises(SpecError, match=f"field '{name}'"):
                spec_from_dict(spec)
        for wrong in ({"x": 1}, True):
            with pytest.raises(SpecError, match=f"field '{name}'"):
                spec_from_dict(base_spec(**{name: wrong}))
    for name in experiments._SIMULATION_FIELDS:
        with pytest.raises(SpecError, match=f"field '{name}'"):
            spec_from_dict(base_spec(**{name: True}))


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
        assert len(rows) == len(spec.planners) * len(spec.attackers) * len(spec.alphas) * spec.trials * spec.simulation.get("rounds", 1)
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
    assert spec_from_dict(base_spec(**two, protocol="multi-round", rounds=1)).num_robots == 2
    monkeypatch.setattr(matroid, "ENUMERATION_CAP", 48)
    with pytest.raises(SpecError, match="'num_robots': the expected-detections grid.*cap of 48$"):
        spec_from_dict(base_spec(**two, protocol="multi-round", rounds=1))
    # a one-step world scores no grid
    assert spec_from_dict(base_spec(**two)).num_robots == 2


def test_rounds_bound_no_work_and_documented_specs_pass_the_bound():
    spec = spec_from_dict(base_spec(protocol="multi-round", rounds=10**9))
    assert spec.simulation["rounds"] == 10**9
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
    strip = lambda r: replace(r, wall_time_micros=0)  # noqa: E731
    assert [strip(r) for r in a] == [strip(r) for r in b]


def test_early_trials_unchanged_when_trials_grow():
    small = run_suite(spec_from_dict(base_spec(trials=2)))
    large = run_suite(spec_from_dict(base_spec(trials=4)))
    strip = lambda r: replace(r, wall_time_micros=0)  # noqa: E731
    assert [strip(r) for r in large if r.trial < 2] == [strip(r) for r in small]


def test_parallel_matches_serial():
    spec = spec_from_dict(base_spec(trials=4))
    serial = run_suite(spec, jobs=1)
    parallel = run_suite(spec, jobs=3)
    strip = lambda r: replace(r, wall_time_micros=0)  # noqa: E731
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
    strip = lambda r: replace(r, wall_time_micros=0)  # noqa: E731
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
    got = [replace(r, wall_time_micros=0) for r in run_suite(spec, jobs=jobs)]
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

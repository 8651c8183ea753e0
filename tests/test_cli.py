"""End-to-end command line checks (in-process, via main())."""

import json
from pathlib import Path

import pytest

from resilient_tracking import cli
from resilient_tracking.cli import main
from resilient_tracking.experiments import read_csv

GOLDEN_MULTI_ROUND = json.loads(
    (Path(__file__).parent / "data" / "golden_multi_round.json").read_text()
)


def write_spec(tmp_path, **overrides):
    data = {
        "protocol": "one-step",
        "num_robots": 3,
        "fov_side": 3.0,
        "fly_length": 7.0,
        "arena": [0, 10, 0, 10],
        "num_targets": [8],
        "alphas": [1],
        "trials": 2,
        "planners": ["resilient", "greedy"],
        "attackers": ["optimal"],
        "master_seed": 7,
    }
    data.update(overrides)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    return path


def test_run_then_summarize(tmp_path, capsys):
    spec = write_spec(tmp_path)
    out = tmp_path / "rows.csv"
    assert main(["run", "--spec", str(spec), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert f"wrote 4 rows to {out}" in printed
    assert "resilient" in printed
    rows = read_csv(out)
    assert len(rows) == 4

    assert main(["summarize", "--in", str(out)]) == 0
    table = capsys.readouterr().out
    assert "greedy" in table and "mean(f_att)" in table


def test_run_seed_override_changes_rows(tmp_path):
    spec = write_spec(tmp_path)
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["run", "--spec", str(spec), "--out", str(out_a), "--seed", "99"]) == 0
    assert main(["run", "--spec", str(spec), "--out", str(out_b), "--seed", "100"]) == 0
    assert [r.seed for r in read_csv(out_a)] != [r.seed for r in read_csv(out_b)]


def test_negative_seed_override_exits_2_naming_master_seed(tmp_path, capsys):
    # the spec field refuses -1; the override must not get past that check
    spec = write_spec(tmp_path)
    out = tmp_path / "rows.csv"
    assert main(["run", "--spec", str(spec), "--out", str(out), "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "master_seed" in err
    assert not out.exists()


@pytest.mark.parametrize("suite", ["bounds", "properties"])
def test_check_refuses_a_negative_seed(capsys, suite):
    assert main(["check", "--suite", suite, "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--seed" in err


@pytest.mark.parametrize(
    "suite, flag, value",
    [
        ("bounds", "--instances", "0"),
        ("bounds", "--instances", "-3"),
        ("properties", "--trials", "0"),
        ("properties", "--trials", "-1"),
    ],
)
def test_check_refuses_zero_work(capsys, suite, flag, value):
    # a suite that checks nothing must not report success
    assert main(["check", "--suite", suite, flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and flag in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "suite, flag, value",
    [
        ("bounds", "--instances", "1000001"),
        ("bounds", "--instances", "1000000000000"),
        ("properties", "--trials", "1000001"),
        ("properties", "--trials", "1000000000000"),
    ],
)
def test_check_refuses_work_past_the_cap(capsys, suite, flag, value):
    # --instances 10**12 used to run on without end
    assert main(["check", "--suite", suite, flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and flag in captured.err
    assert "cap of 1000000" in captured.err
    assert captured.out == ""


def test_check_runs_at_the_cap(monkeypatch, capsys):
    asked = []
    monkeypatch.setattr(cli, "run_bound_suite", lambda **kwargs: asked.append(kwargs) or [])
    assert main(["check", "--suite", "bounds", "--instances", "1000000"]) == 0
    assert asked == [{"num_instances": 1000000, "rng_seed": 20260815}]
    assert "bound holds on 0/0 instances" in capsys.readouterr().out


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_run_refuses_jobs_below_one(tmp_path, capsys, jobs):
    # a worker count below one used to run serially without a word
    spec = write_spec(tmp_path)
    out = tmp_path / "rows.csv"
    assert main(["run", "--spec", str(spec), "--out", str(out), "--jobs", jobs]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "--jobs" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_run_uses_output_from_spec(tmp_path, capsys):
    out = tmp_path / "from_spec.csv"
    spec = write_spec(tmp_path, output=str(out))
    assert main(["run", "--spec", str(spec)]) == 0
    capsys.readouterr()
    assert out.exists()


def test_run_without_output_path_fails(tmp_path, capsys):
    spec = write_spec(tmp_path)
    assert main(["run", "--spec", str(spec)]) == 2
    assert "no output path" in capsys.readouterr().err


def test_bad_spec_exits_2_and_names_field(tmp_path, capsys):
    spec = write_spec(tmp_path, alphas=[9])
    out = tmp_path / "rows.csv"
    assert main(["run", "--spec", str(spec), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "alphas" in err


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"fov_side": float("inf")}, "fov_side"),
        ({"fov_side": float("nan")}, "fov_side"),
        ({"protocol": "multi-round", "arena": [0, 0, 0, 10], "rounds": 2}, "arena"),
        # a noiseless sensor drove the belief variance to 0 after round 1
        ({"protocol": "multi-round", "measurement_noise_std": 0, "rounds": 3}, "measurement_noise_std"),
        # the golden multi-round spec with one field changed: these ran into
        # non-finite bounds, a math domain error in the target fold, a
        # non-finite measurement, or a Kalman gain of exactly 1
        ({**GOLDEN_MULTI_ROUND, "fly_length": 1e308}, "fly_length"),
        ({**GOLDEN_MULTI_ROUND, "velocity_jitter_std": 1e308}, "velocity_jitter_std"),
        ({**GOLDEN_MULTI_ROUND, "measurement_noise_std": 1e308}, "measurement_noise_std"),
        ({**GOLDEN_MULTI_ROUND, "initial_variance": 1e17}, "initial_variance"),
        ({**GOLDEN_MULTI_ROUND, "process_noise": 1e308}, "process_noise"),
        ({**GOLDEN_MULTI_ROUND, "measurement_noise_std": 1e-8}, "measurement_noise_std"),
        # a one-step world whose rectangles overflowed
        ({"fov_side": 1e308, "fly_length": 1e308}, "fly_length"),
        # exact enumerations counting past Python's 4300-digit int-to-str limit
        ({"num_robots": 8000, "planners": ["brute-force"]}, "planners"),
        ({"num_robots": 20000, "alphas": [10000]}, "attackers"),
        # integers past the float range
        ({"fov_side": 10**400}, "fov_side"),
        ({"arena": [0, 10**400, 0, 10]}, "arena"),
        # a target range far past the enumeration cap
        ({"num_targets": {"start": 1, "stop": 10**12}}, "num_targets"),
        # work past the enumeration cap: cells listed, or a world allocated
        ({"trials": 10**12}, "trials"),
        ({"num_targets": 10**12}, "num_targets"),
    ],
)
def test_non_finite_or_flat_spec_exits_2_without_traceback(tmp_path, capsys, overrides, field):
    # json.dumps writes Infinity and NaN, which json.load reads back
    spec = write_spec(tmp_path, **overrides)
    out = tmp_path / "rows.csv"
    assert main(["run", "--spec", str(spec), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err
    assert "Traceback" not in err
    assert not out.exists()


def test_missing_spec_file_exits_1(tmp_path, capsys):
    assert main(["run", "--spec", str(tmp_path / "nope.json"), "--out", "x.csv"]) == 1
    assert "error:" in capsys.readouterr().err


def test_run_refuses_an_output_directory_that_does_not_exist_before_running(
    tmp_path, monkeypatch, capsys
):
    # the whole suite used to run first, then the error named the hidden temp file
    ran = []
    monkeypatch.setattr(cli, "run_suite", lambda *args, **kwargs: ran.append(args) or [])
    spec = write_spec(tmp_path)
    out = tmp_path / "missing" / "rows.csv"
    assert main(["run", "--spec", str(spec), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and str(out) in captured.err
    assert ".tmp" not in captured.err
    assert ran == []
    assert not out.parent.exists()


def test_spec_file_that_is_not_utf8_exits_2(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_bytes(write_spec(tmp_path).read_bytes().replace(b"one-step", b"one-step\xff"))
    out = tmp_path / "rows.csv"
    assert main(["run", "--spec", str(spec), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "UTF-8" in err
    assert not out.exists()


def test_summarize_refuses_a_csv_that_is_not_utf8(tmp_path, capsys):
    spec = write_spec(tmp_path)
    out = tmp_path / "rows.csv"
    assert main(["run", "--spec", str(spec), "--out", str(out)]) == 0
    capsys.readouterr()
    out.write_bytes(out.read_bytes().replace(b"greedy", b"gr\xe9edy", 1))
    assert main(["summarize", "--in", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line ") and "not UTF-8" in err


def test_summarize_rejects_malformed_csv(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("not,a,results,file\n")
    assert main(["summarize", "--in", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_check_bounds_small(capsys):
    assert main(["check", "--suite", "bounds", "--instances", "20"]) == 0
    printed = capsys.readouterr().out
    assert "bound holds on 20/20 instances" in printed


def test_check_properties_small(capsys):
    assert main(["check", "--suite", "properties", "--trials", "50"]) == 0
    printed = capsys.readouterr().out
    assert "PASS" in printed
    assert "0 monotonicity violations" in printed


def test_multi_round_spec_through_cli(tmp_path, capsys):
    spec = write_spec(
        tmp_path,
        protocol="multi-round",
        rounds=4,
        trials=1,
        planners=["greedy"],
        attackers=["optimal"],
        num_targets=[6],
    )
    out = tmp_path / "mr.csv"
    assert main(["run", "--spec", str(spec), "--out", str(out)]) == 0
    capsys.readouterr()
    rows = read_csv(out)
    assert len(rows) == 4
    assert [r.round for r in rows] == [1, 2, 3, 4]

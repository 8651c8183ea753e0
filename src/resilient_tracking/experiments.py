"""Experiment harness: spec files, record rows, CSV output, summaries.

Protocols
---------
one-step: per (m, alpha, trial) sample a fresh world (robots and targets
uniform in the arena, full four-direction menus), plan once per planner on
ground-truth coverage, apply each attacker, one row per (planner, attacker).

multi-round: per (m, alpha, trial) run the closed-loop simulation once per
planner under a shared per-trial seed, so every planner sees the same target
motion and the same measurement noise.  Each round plans once and applies
every attacker to that plan (attacks never steer the robots); one row per
(planner, attacker, round), in that order.

Seeding
-------
The per-trial seed is the first 64 bits of SeedSequence([master_seed, trial]),
recorded in the ``seed`` column; adding trials never changes earlier trials'
streams.  Within a one-step trial, consumers draw from disjoint child
streams keyed by fixed role codes: SeedSequence([trial_seed, 0]) samples the
world, ([trial_seed, 1, planner_code]) feeds the planner and
([trial_seed, 2, planner_code, attacker_code]) feeds the attacker, with codes
taken from the canonical registry order, not the spec's list order.

CSV schema (version 1)
----------------------
Exact header ``trial,round,planner,attacker,m,alpha,f_full,f_attacked,
attack_rate,oracle_calls,wall_time_micros,seed``; one trailing comment line
``# status=complete schema=1 objective=<name> rows=<N>`` marks a complete
file (a crashed run leaves no marker, and readers refuse a file without it
or whose ``rows`` disagrees with the rows present).  ``wall_time_micros``
is informational only and excluded from golden comparisons; for multi-round
rows it is the planner's whole run, every attacker's attacks included, split
evenly over its rounds.  Recorded ``f_attacked`` and ``attack_rate`` come from
``adversary.score_attack``, which snaps f_attacked to min(f_attacked,
f_full): monotonicity makes the inequality exact in real arithmetic and the
snap only absorbs ~1e-16 round-off in the expected-detections sums.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import re
import time
from dataclasses import dataclass, field, fields
from functools import partial
from operator import attrgetter
from pathlib import Path
from statistics import mean, pstdev
from typing import get_type_hints

import numpy as np

from .adversary import ATTACKER_NAMES, get_attacker, score_attack
from .errors import CsvFormatError, EnumerationCapExceeded, SpecError
from .geometry import Rect
from .matroid import require_enumerable
from .objectives import CoverageCount
from .planners import PLANNER_NAMES, get_planner
from .simulation import SimConfig, run_rounds
from .worlds import DIRECTION_ORDER, sample_instance

CSV_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class RecordRow:
    """One scored (planner, attacker) outcome; the fields are the CSV columns."""

    trial: int
    round: int
    planner: str
    attacker: str
    m: int
    alpha: int
    f_full: float
    f_attacked: float
    attack_rate: float
    oracle_calls: int
    wall_time_micros: int
    seed: int


CSV_COLUMNS = tuple(column.name for column in fields(RecordRow))
_csv_values = attrgetter(*CSV_COLUMNS)
_COLUMN_TYPES = tuple(get_type_hints(RecordRow)[name] for name in CSV_COLUMNS)


@dataclass(frozen=True)
class ExperimentSpec:
    """Validated experiment description; see :func:`spec_from_dict`."""

    protocol: str
    num_robots: int
    fov_side: float
    fly_length: float
    arena: Rect
    num_targets: tuple[int, ...]
    alphas: tuple[int, ...]
    trials: int
    planners: tuple[str, ...]
    attackers: tuple[str, ...]
    master_seed: int
    output: str | None = None
    # multi-round SimConfig fields the spec sets; the rest keep SimConfig's defaults
    simulation: dict = field(default_factory=dict)


def _fail(field: str, problem: str):
    raise SpecError(f"field {field!r}: {problem}")


def _is_int(value) -> bool:
    # JSON true and false load as bool, which Python counts as int
    return isinstance(value, int) and not isinstance(value, bool)


def _require_int(data, field, minimum=None) -> int:
    value = data.get(field)
    if not _is_int(value):
        _fail(field, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        _fail(field, f"must be at least {minimum}, got {value}")
    return value


def _require_number(data, field, minimum=None, strict=False) -> float:
    value = data.get(field)
    if not (isinstance(value, float) or _is_int(value)):
        _fail(field, f"expected a number, got {value!r}")
    if not math.isfinite(value):
        _fail(field, f"must be finite, got {value}")
    if minimum is not None:
        if strict and not value > minimum:
            _fail(field, f"must be greater than {minimum}, got {value}")
        if not strict and value < minimum:
            _fail(field, f"must be at least {minimum}, got {value}")
    return float(value)


def _normalize_targets(value) -> tuple[int, ...]:
    if _is_int(value):
        values = [value]
    elif isinstance(value, list) and value and all(map(_is_int, value)):
        values = list(value)
    elif (
        isinstance(value, dict)
        and set(value) == {"start", "stop"}
        and all(map(_is_int, value.values()))
        and value["start"] <= value["stop"]
    ):
        values = list(range(value["start"], value["stop"] + 1))
    else:
        _fail(
            "num_targets",
            "expected an integer, a non-empty list of integers, or "
            f"{{'start': a, 'stop': b}} with a <= b, got {value!r}",
        )
    if any(v < 1 for v in values):
        _fail("num_targets", f"target counts must be positive, got {values}")
    return tuple(values)


# Validators of the optional multi-round fields, which are SimConfig fields.
_SIMULATION_FIELDS = {
    "rounds": partial(_require_int, minimum=1),
    "measurement_noise_std": partial(_require_number, minimum=0, strict=True),
    "process_noise": partial(_require_number, minimum=0),
    "initial_variance": partial(_require_number, minimum=0, strict=True),
    "target_speed": partial(_require_number, minimum=0),
    "velocity_jitter_std": partial(_require_number, minimum=0),
}


def spec_from_dict(data: dict) -> ExperimentSpec:
    """Validate a parsed spec; raises :class:`SpecError` naming the field."""
    if not isinstance(data, dict):
        raise SpecError("spec must be a JSON object")
    known = {
        "protocol", "num_robots", "fov_side", "fly_length", "arena",
        "num_targets", "alphas", "trials", "planners", "attackers",
        "master_seed", "output", *_SIMULATION_FIELDS,
    }
    for key in data:
        if key not in known:
            _fail(key, "unknown field")

    protocol = data.get("protocol")
    if protocol not in ("one-step", "multi-round"):
        _fail("protocol", f"expected 'one-step' or 'multi-round', got {protocol!r}")
    num_robots = _require_int(data, "num_robots", minimum=1)
    fov_side = _require_number(data, "fov_side", minimum=0, strict=True)
    fly_length = _require_number(data, "fly_length", minimum=0)

    arena_raw = data.get("arena")
    if (
        not isinstance(arena_raw, list)
        or len(arena_raw) != 4
        or not all(isinstance(v, float) or _is_int(v) for v in arena_raw)
    ):
        _fail("arena", f"expected [x_min, x_max, y_min, y_max], got {arena_raw!r}")
    try:
        arena = Rect(*[float(v) for v in arena_raw])
    except ValueError as exc:
        _fail("arena", str(exc))
    if arena.x_min == arena.x_max or arena.y_min == arena.y_max:
        _fail("arena", f"width and height must be positive, got {arena_raw!r}")

    num_targets = _normalize_targets(data.get("num_targets"))

    alphas_raw = data.get("alphas")
    if (
        not isinstance(alphas_raw, list)
        or not alphas_raw
        or not all(map(_is_int, alphas_raw))
    ):
        _fail("alphas", f"expected a non-empty list of integers, got {alphas_raw!r}")
    for a in alphas_raw:
        if not 0 <= a <= num_robots:
            _fail("alphas", f"each alpha must be in [0, {num_robots}], got {a}")

    trials = _require_int(data, "trials", minimum=1)

    planners_raw = data.get("planners")
    if not isinstance(planners_raw, list) or not planners_raw:
        _fail("planners", f"expected a non-empty list, got {planners_raw!r}")
    for p in planners_raw:
        if p not in PLANNER_NAMES:
            _fail("planners", f"unknown planner {p!r}; expected one of {PLANNER_NAMES}")
    attackers_raw = data.get("attackers")
    if not isinstance(attackers_raw, list) or not attackers_raw:
        _fail("attackers", f"expected a non-empty list, got {attackers_raw!r}")
    for a in attackers_raw:
        if a not in ATTACKER_NAMES:
            _fail("attackers", f"unknown attacker {a!r}; expected one of {ATTACKER_NAMES}")
    # the exact enumerations' own cap checks, made before any cell runs;
    # both protocols give every robot the full four-direction menu
    for a in alphas_raw:
        if "brute-force" in planners_raw:
            try:
                require_enumerable(
                    f"brute-force at alpha {a}: the attacked evaluations",
                    itertools.repeat(len(DIRECTION_ORDER), num_robots),
                    (num_robots, a),
                )
            except EnumerationCapExceeded as exc:
                _fail("planners", str(exc))
        if "optimal" in attackers_raw:
            try:
                require_enumerable(
                    f"the optimal attacker at alpha {a}: the removal sets",
                    choose=(num_robots, a),
                )
            except EnumerationCapExceeded as exc:
                _fail("attackers", str(exc))

    master_seed = _require_int(data, "master_seed", minimum=0)
    output = data.get("output")
    if output is not None and not isinstance(output, str):
        _fail("output", f"expected a string path, got {output!r}")

    # validated for either protocol; only the multi-round protocol uses them
    simulation = {
        key: check(data, key) for key, check in _SIMULATION_FIELDS.items() if key in data
    }
    # SimConfig refuses arithmetic that would overflow or zero the belief
    # variance, naming the field; a one-step world is one unmoved round
    try:
        SimConfig(
            num_robots=num_robots,
            alpha=0,
            fov_side=fov_side,
            fly_length=fly_length,
            arena=arena,
            **(simulation if protocol == "multi-round" else {"rounds": 1}),
        )
    except ValueError as exc:
        raise SpecError(str(exc)) from None
    return ExperimentSpec(
        protocol=protocol,
        num_robots=num_robots,
        fov_side=fov_side,
        fly_length=fly_length,
        arena=arena,
        num_targets=num_targets,
        alphas=tuple(alphas_raw),
        trials=trials,
        planners=tuple(planners_raw),
        attackers=tuple(attackers_raw),
        master_seed=master_seed,
        output=output,
        simulation=simulation,
    )


def load_spec(path) -> ExperimentSpec:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SpecError(f"spec file is not valid JSON: {exc}") from None
    return spec_from_dict(data)


def derive_trial_seed(master_seed: int, trial: int) -> int:
    """First 64 bits of SeedSequence([master_seed, trial])."""
    seq = np.random.SeedSequence([master_seed, trial])
    return int(seq.generate_state(1, np.uint64)[0])


def _role_rng(trial_seed: int, *codes: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([trial_seed, *codes]))


def _one_step_cell(spec: ExperimentSpec, cell) -> list[RecordRow]:
    m, alpha, trial = cell
    trial_seed = derive_trial_seed(spec.master_seed, trial)
    instance = sample_instance(
        _role_rng(trial_seed, 0),
        num_robots=spec.num_robots,
        num_targets=m,
        fov_side=spec.fov_side,
        fly_length=spec.fly_length,
        arena=spec.arena,
    )
    objective = CoverageCount(instance.targets, instance.ids, instance.bounds)
    rows = []
    for planner in spec.planners:
        pcode = PLANNER_NAMES.index(planner)
        # only the random planner, and the random attacker at alpha > 0,
        # draw from a stream
        planner_rng = _role_rng(trial_seed, 1, pcode) if planner == "random" else None
        t0 = time.perf_counter_ns()
        result = get_planner(planner)(instance.matroid, objective, alpha, planner_rng)
        plan_ns = time.perf_counter_ns() - t0
        f_full = float(objective.evaluate(result.selected))
        for attacker in spec.attackers:
            acode = ATTACKER_NAMES.index(attacker)
            attacker_rng = (
                _role_rng(trial_seed, 2, pcode, acode)
                if attacker == "random" and alpha > 0
                else None
            )
            t1 = time.perf_counter_ns()
            attacked = get_attacker(attacker)(objective, result.selected, alpha, attacker_rng)
            attack_ns = time.perf_counter_ns() - t1
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
                    wall_time_micros=(plan_ns + attack_ns) // 1000,
                    seed=trial_seed,
                )
            )
    return rows


def _multi_round_cell(spec: ExperimentSpec, cell) -> list[RecordRow]:
    m, alpha, trial = cell
    trial_seed = derive_trial_seed(spec.master_seed, trial)
    rows = []
    for planner in spec.planners:
        config = SimConfig(
            num_robots=spec.num_robots,
            num_targets=m,
            alpha=alpha,
            fov_side=spec.fov_side,
            fly_length=spec.fly_length,
            arena=spec.arena,
            planner=planner,
            attackers=spec.attackers,
            rng_seed=trial_seed,
            **spec.simulation,
        )
        t0 = time.perf_counter_ns()
        records = run_rounds(config)
        per_round_micros = (time.perf_counter_ns() - t0) // 1000 // config.rounds
        for attacker in spec.attackers:
            for record in records[attacker]:
                rows.append(
                    RecordRow(
                        trial=trial,
                        round=record.round_index,
                        planner=planner,
                        attacker=attacker,
                        m=m,
                        alpha=alpha,
                        f_full=record.f_full,
                        f_attacked=record.f_attacked,
                        attack_rate=record.attack_rate,
                        oracle_calls=record.oracle_calls,
                        wall_time_micros=per_round_micros,
                        seed=trial_seed,
                    )
                )
    return rows


def _cells(spec: ExperimentSpec):
    return [
        (m, alpha, trial)
        for m in spec.num_targets
        for alpha in spec.alphas
        for trial in range(spec.trials)
    ]


def run_suite(spec: ExperimentSpec, jobs: int = 1) -> list[RecordRow]:
    """Run the spec's protocol; rows come back in deterministic cell order.

    At most ``jobs`` worker processes run the cells, and never more than
    the cells or the CPUs, since a process pool starts all its workers at
    once.  With one worker the cells run in the calling process.
    """
    worker = _one_step_cell if spec.protocol == "one-step" else _multi_round_cell
    cells = _cells(spec)
    workers = min(jobs, len(cells), os.cpu_count() or 1)
    if workers <= 1:
        buckets = [worker(spec, cell) for cell in cells]
    else:
        # imported on first use: only a parallel run needs the pool, and its
        # modules add to the start-up of every process that imports this one
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            buckets = list(pool.map(partial(worker, spec), cells))
    return [row for bucket in buckets for row in bucket]


def objective_name(spec: ExperimentSpec) -> str:
    return "coverage_count" if spec.protocol == "one-step" else "expected_detections"


def write_csv(rows, path, objective: str = "coverage_count") -> None:
    """Write rows plus the completeness marker; str(value) round-trips floats.

    The file is written under a temporary name in the same directory and
    moved into place with ``os.replace``, so ``path`` never holds a
    partial file.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(CSV_COLUMNS) + "\n")
            for row in rows:
                fh.write(",".join(str(v) for v in _csv_values(row)) + "\n")
            fh.write(
                f"# status=complete schema={CSV_SCHEMA_VERSION} "
                f"objective={objective} rows={len(rows)}\n"
            )
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


_MARKER_ROWS = re.compile(r"^# status=complete .*\brows=(\d+)$")


def read_csv(path) -> list[RecordRow]:
    """Parse a results CSV; raises :class:`CsvFormatError` with line numbers.

    The file must end with the completeness marker, and the marker's
    ``rows`` must equal the number of rows read.
    """
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise CsvFormatError("line 1: empty file, expected header")
    if lines[0] != ",".join(CSV_COLUMNS):
        raise CsvFormatError(f"line 1: bad header {lines[0]!r}")
    marker = None
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        if marker is not None:
            raise CsvFormatError(f"line {lineno}: content after the completeness marker")
        if line.startswith("# status=complete"):
            marker = (lineno, line)
            continue
        if line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != len(CSV_COLUMNS):
            raise CsvFormatError(
                f"line {lineno}: expected {len(CSV_COLUMNS)} fields, got {len(parts)}"
            )
        try:
            rows.append(RecordRow(*(parse(part) for parse, part in zip(_COLUMN_TYPES, parts))))
        except ValueError as exc:
            raise CsvFormatError(f"line {lineno}: {exc}") from None
    if marker is None:
        raise CsvFormatError(
            f"line {len(lines) + 1}: no '# status=complete ... rows=N' marker; "
            "the file is incomplete"
        )
    lineno, line = marker
    match = _MARKER_ROWS.match(line)
    if match is None or int(match.group(1)) != len(rows):
        raise CsvFormatError(
            f"line {lineno}: marker {line!r} does not match the {len(rows)} rows read"
        )
    return rows


@dataclass(frozen=True)
class SummaryRow:
    planner: str
    attacker: str
    m: int
    alpha: int
    count: int
    mean_attacked: float
    std_attacked: float


@dataclass(frozen=True)
class PairwiseRow:
    attacker: str
    m: int
    alpha: int
    baseline: str
    mean_difference: float  # mean(resilient) - mean(baseline)


def summarize_rows(rows) -> tuple[list[SummaryRow], list[PairwiseRow]]:
    """Group f_attacked by (planner, attacker, m, alpha); row order agnostic."""
    groups: dict[tuple, list[float]] = {}
    for row in rows:
        groups.setdefault((row.planner, row.attacker, row.m, row.alpha), []).append(
            row.f_attacked
        )
    summary = [
        SummaryRow(
            planner=planner,
            attacker=attacker,
            m=m,
            alpha=alpha,
            count=len(values),
            mean_attacked=mean(values),
            std_attacked=pstdev(values),
        )
        for (planner, attacker, m, alpha), values in sorted(groups.items())
    ]
    means = {
        (r.planner, r.attacker, r.m, r.alpha): r.mean_attacked for r in summary
    }
    pairwise = []
    for (planner, attacker, m, alpha), base_mean in sorted(means.items()):
        if planner not in ("greedy", "brute-force"):
            continue
        resilient = means.get(("resilient", attacker, m, alpha))
        if resilient is None:
            continue
        pairwise.append(
            PairwiseRow(
                attacker=attacker,
                m=m,
                alpha=alpha,
                baseline=planner,
                mean_difference=resilient - base_mean,
            )
        )
    return summary, pairwise


def summarize(path) -> tuple[list[SummaryRow], list[PairwiseRow]]:
    """Comparison table for a results CSV on disk."""
    return summarize_rows(read_csv(path))


def render_summary(summary, pairwise) -> str:
    lines = [
        f"{'planner':>12} {'attacker':>8} {'m':>4} {'alpha':>5} "
        f"{'n':>5} {'mean(f_att)':>12} {'std':>10}"
    ]
    for row in summary:
        lines.append(
            f"{row.planner:>12} {row.attacker:>8} {row.m:>4} {row.alpha:>5} "
            f"{row.count:>5} {row.mean_attacked:>12.4f} {row.std_attacked:>10.4f}"
        )
    if pairwise:
        lines.append("")
        lines.append("mean(resilient) - mean(baseline):")
        for row in pairwise:
            lines.append(
                f"  vs {row.baseline:>11} attacker={row.attacker:<7} m={row.m:<4} "
                f"alpha={row.alpha}: {row.mean_difference:+.4f}"
            )
    return "\n".join(lines)

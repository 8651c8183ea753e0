"""Experiment harness: spec files, record rows, CSV output, summaries.

Protocols
---------
one-step: the world (robots and targets uniform in the arena, full
four-direction menus) depends on (m, trial) only, so it is sampled once and
every alpha is planned on it.  Per alpha, plan once per planner on
ground-truth coverage and apply each attacker, one row per (planner,
attacker).

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
taken from the canonical registry order, not the spec's list order.  A
world derives each role's stream once and starts it from the beginning for
every alpha, so each alpha draws exactly what a stream derived for it alone
would give.

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
import os
import re
import sys
import time
from dataclasses import dataclass, field, fields
from functools import partial
from operator import attrgetter, itemgetter
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
    # false for nan, infinities and integers past the float range
    if not abs(value) <= sys.float_info.max:
        _fail(field, f"must be finite, got {value}")
    if minimum is not None and (value <= minimum if strict else value < minimum):
        _fail(field, f"must be {'greater than' if strict else 'at least'} {minimum}, got {value}")
    return float(value)


def _require_choice(data, field, choices) -> str:
    value = data.get(field)
    if value not in choices:
        _fail(field, f"expected one of {choices}, got {value!r}")
    return value


def _require_list(data, field, names=None) -> tuple:
    """A non-empty list of integers, or of ``names`` when given."""
    value = data.get(field)
    if not isinstance(value, list) or not value:
        _fail(field, f"expected a non-empty list, got {value!r}")
    for item in value:
        if names is None and not _is_int(item):
            _fail(field, f"expected a list of integers, got {value!r}")
        if names is not None and item not in names:
            _fail(field, f"unknown name {item!r}; expected one of {names}")
    return tuple(value)


def _require_arena(data, field) -> Rect:
    value = data.get(field)
    if not isinstance(value, list) or len(value) != 4:
        _fail(field, f"expected [x_min, x_max, y_min, y_max], got {value!r}")
    try:
        arena = Rect(*(_require_number({field: v}, field) for v in value))
    except ValueError as exc:
        _fail(field, str(exc))
    if arena.x_min == arena.x_max or arena.y_min == arena.y_max:
        _fail(field, f"width and height must be positive, got {value!r}")
    return arena


def _optional_path(data, field) -> str | None:
    value = data.get(field)
    if value is not None and not isinstance(value, str):
        _fail(field, f"expected a string path, got {value!r}")
    return value


def _require_enumerable(field, what, sizes=(), choose=(0, 0)) -> None:
    try:
        require_enumerable(what, sizes, choose)
    except EnumerationCapExceeded as exc:
        _fail(field, str(exc))


def _require_targets(data, field) -> tuple[int, ...]:
    value = values = data.get(field)
    if _is_int(value):
        values = [value]
    elif (
        isinstance(value, dict)
        and set(value) == {"start", "stop"}
        and all(map(_is_int, value.values()))
    ):
        # counted before it is listed
        _require_enumerable(field, "the target range", [value["stop"] - value["start"] + 1])
        values = list(range(value["start"], value["stop"] + 1))
    if not (isinstance(values, list) and values and all(_is_int(v) and v >= 1 for v in values)):
        _fail(
            field,
            "expected a positive integer, a non-empty list of them, or "
            f"{{'start': a, 'stop': b}} with 1 <= a <= b, got {value!r}",
        )
    return tuple(values)


# Validators of the spec's fields, in ExperimentSpec's order; each takes the
# parsed spec and the field's name.
_SPEC_FIELDS = {
    "protocol": partial(_require_choice, choices=("one-step", "multi-round")),
    "num_robots": partial(_require_int, minimum=1),
    "fov_side": partial(_require_number, minimum=0, strict=True),
    "fly_length": partial(_require_number, minimum=0),
    "arena": _require_arena,
    "num_targets": _require_targets,
    "alphas": _require_list,
    "trials": partial(_require_int, minimum=1),
    "planners": partial(_require_list, names=PLANNER_NAMES),
    "attackers": partial(_require_list, names=ATTACKER_NAMES),
    "master_seed": partial(_require_int, minimum=0),
    "output": _optional_path,
}

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
    for key in data:
        if key not in _SPEC_FIELDS and key not in _SIMULATION_FIELDS:
            _fail(key, "unknown field")
    spec = ExperimentSpec(
        **{key: check(data, key) for key, check in _SPEC_FIELDS.items()},
        # validated for either protocol; only the multi-round protocol uses them
        simulation={
            key: check(data, key) for key, check in _SIMULATION_FIELDS.items() if key in data
        },
    )

    n = spec.num_robots
    for a in spec.alphas:
        if not 0 <= a <= n:
            _fail("alphas", f"each alpha must be in [0, {n}], got {a}")
        # the exact enumerations' own cap checks, made before any cell runs;
        # both protocols give every robot the full four-direction menu
        if "brute-force" in spec.planners:
            _require_enumerable(
                "planners",
                f"brute-force at alpha {a}: the attacked evaluations",
                itertools.repeat(len(DIRECTION_ORDER), n),
                (n, a),
            )
        if "optimal" in spec.attackers:
            _require_enumerable(
                "attackers", f"the optimal attacker at alpha {a}: the removal sets", choose=(n, a)
            )
    # the amount of work, counted before anything is listed or allocated:
    # the cells of the sweep, one world's targets and trajectories and,
    # for the closed loop, a round's grid; rounds are not bounded
    _require_enumerable(
        "trials",
        f"the (m, alpha, trial) cells of {spec.trials} trials",
        [len(spec.num_targets), len(spec.alphas), spec.trials],
    )
    _require_enumerable(
        "num_robots", f"the trajectories of {n} robots", [len(DIRECTION_ORDER), n]
    )
    m = max(spec.num_targets)
    _require_enumerable(
        "num_targets",
        f"the target-trajectory pairs of a world of {m} targets and {n} robots",
        [m, len(DIRECTION_ORDER), n],
    )
    if spec.protocol == "multi-round":
        # each robot's four flights have at most four distinct edges per
        # axis, so a round's grid has at most (4n - 1)^2 cells
        lines = len(DIRECTION_ORDER) * n - 1
        _require_enumerable(
            "num_robots",
            f"the expected-detections grid cells of a round of {n} robots",
            [lines, lines],
        )
    # SimConfig refuses arithmetic that would overflow or zero the belief
    # variance, naming the field; a one-step world is one unmoved round
    try:
        SimConfig(
            num_robots=n,
            alpha=0,
            fov_side=spec.fov_side,
            fly_length=spec.fly_length,
            arena=spec.arena,
            **(spec.simulation if spec.protocol == "multi-round" else {"rounds": 1}),
        )
    except ValueError as exc:
        raise SpecError(str(exc)) from None
    return spec


def load_spec(path) -> ExperimentSpec:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        # not UTF-8, not JSON, an integer past Python's digit limit, or
        # nesting past the recursion limit
        except (ValueError, RecursionError) as exc:
            raise SpecError(f"spec file is not valid UTF-8 JSON: {exc}") from None
    return spec_from_dict(data)


def derive_trial_seed(master_seed: int, trial: int) -> int:
    """First 64 bits of SeedSequence([master_seed, trial])."""
    seq = np.random.SeedSequence([master_seed, trial])
    return int(seq.generate_state(1, np.uint64)[0])


def _role_rng(trial_seed: int, *codes: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([trial_seed, *codes]))


def _replayable(trial_seed: int, *codes: int):
    """A role's generator and its start state, for :func:`_rewound`."""
    rng = _role_rng(trial_seed, *codes)
    return rng, rng.bit_generator.state


def _rewound(stream) -> np.random.Generator:
    """The generator of a :func:`_replayable` stream, back at its start."""
    rng, start = stream
    rng.bit_generator.state = start
    return rng


def _one_step_world(spec: ExperimentSpec, unit) -> list[tuple[tuple, list[RecordRow]]]:
    """Every alpha's rows on the world of ``unit = (m position, trial)``."""
    i, trial = unit
    m = spec.num_targets[i]
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
    # only the random planner, and the random attacker at alpha > 0, draw;
    # each stream they draw from is derived once, keyed by its role codes,
    # and every alpha gets it back at its start: restoring a saved state
    # costs far less than a new SeedSequence and bit generator
    codes = [(1, PLANNER_NAMES.index(p)) for p in spec.planners if p == "random"]
    if "random" in spec.attackers and any(alpha > 0 for alpha in spec.alphas):
        acode = ATTACKER_NAMES.index("random")
        codes += [(2, PLANNER_NAMES.index(p), acode) for p in spec.planners]
    streams = {key: _replayable(trial_seed, *key) for key in dict.fromkeys(codes)}
    keyed = []
    for j, alpha in enumerate(spec.alphas):
        rows = []
        for planner in spec.planners:
            pcode = PLANNER_NAMES.index(planner)
            planner_rng = _rewound(streams[1, pcode]) if planner == "random" else None
            t0 = time.perf_counter_ns()
            result = get_planner(planner)(instance.matroid, objective, alpha, planner_rng)
            plan_ns = time.perf_counter_ns() - t0
            f_full = float(objective.evaluate(result.selected))
            for attacker in spec.attackers:
                acode = ATTACKER_NAMES.index(attacker)
                attacker_rng = (
                    _rewound(streams[2, pcode, acode])
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
        keyed.append(((i, j, trial), rows))
    return keyed


def _multi_round_cell(spec: ExperimentSpec, unit) -> list[tuple[tuple, list[RecordRow]]]:
    """The rows of ``unit = (m position, alpha position, trial)``."""
    i, j, trial = unit
    m, alpha = spec.num_targets[i], spec.alphas[j]
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
    return [((i, j, trial), rows)]


def run_suite(spec: ExperimentSpec, jobs: int = 1) -> list[RecordRow]:
    """Run the spec's protocol; rows come back in the order m, alpha, trial.

    The unit of work is one world.  A one-step world depends on ``(m,
    trial)`` only, so each unit samples it once and plans every alpha on
    it; a closed loop depends on alpha too, so each multi-round unit is one
    ``(m, alpha, trial)``.  Units key their rows by the positions of m and
    alpha in the spec and the trial, and the rows are put in that key's
    order, which holds when a list repeats a value.

    At most ``jobs`` worker processes run the units, and never more than
    the units or the CPUs, since a process pool starts all its workers at
    once.  With one worker the units run in the calling process.
    """
    ms, trials = range(len(spec.num_targets)), range(spec.trials)
    if spec.protocol == "one-step":
        worker, units = _one_step_world, list(itertools.product(ms, trials))
    else:
        alphas = range(len(spec.alphas))
        worker, units = _multi_round_cell, list(itertools.product(ms, alphas, trials))
    workers = min(jobs, len(units), os.cpu_count() or 1)
    if workers <= 1:
        keyed = [worker(spec, unit) for unit in units]
    else:
        # imported on first use: only a parallel run needs the pool, and its
        # modules add to the start-up of every process that imports this one
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            keyed = list(pool.map(partial(worker, spec), units))
    buckets = sorted(itertools.chain.from_iterable(keyed), key=itemgetter(0))
    return [row for _, bucket in buckets for row in bucket]


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
    data = Path(path).read_bytes()
    try:
        lines = data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        # the bytes before the first bad one decode, and split as the file would
        lineno = len((data[: exc.start].decode("utf-8") + ".").splitlines())
        raise CsvFormatError(f"line {lineno}: not UTF-8: {exc}") from None
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

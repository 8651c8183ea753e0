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
file (a crashed run leaves no marker, and readers refuse a file without it,
whose ``schema`` is not this version or whose ``rows`` disagrees with the
rows present; they also refuse a row naming an unknown planner or attacker
or holding a non-finite value).  ``wall_time_micros``
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
from dataclasses import dataclass, replace
from functools import partial
from operator import attrgetter, itemgetter
from pathlib import Path
from statistics import mean, pstdev
from typing import NamedTuple, get_type_hints

import numpy as np

from .adversary import ATTACKER_NAMES, get_attacker, score_attack
from .errors import (
    CsvFormatError,
    EnumerationCapExceeded,
    SpecError,
    require_choice,
    require_int,
    require_number,
    shown,
)
from .geometry import Rect
from .matroid import require_enumerable
from .objectives import CoverageCount
from .planners import PLANNER_NAMES, get_planner
from .simulation import FIELD_RULES, SimConfig, run_rounds
from .worlds import DIRECTION_ORDER, sample_instance

CSV_SCHEMA_VERSION = 1


class RecordRow(NamedTuple):
    """One scored (planner, attacker) outcome; the fields are the CSV columns.

    A named tuple, so a row costs what a tuple costs: immutable, hashable
    and equal by value.  ``row._replace(field=value)`` gives an edited copy.
    """

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


CSV_COLUMNS = RecordRow._fields
_csv_values = attrgetter(*CSV_COLUMNS)
_COLUMN_TYPES = tuple(get_type_hints(RecordRow)[name] for name in CSV_COLUMNS)


@dataclass(frozen=True)
class ExperimentSpec:
    """Validated experiment: sweep axes over one scenario; see :func:`spec_from_dict`.

    ``scenario`` holds the world every cell shares (robots, field of view,
    flight length, arena) and, for the multi-round protocol, the closed-loop
    fields the spec sets; a one-step scenario is one unmoved round.  Its
    target count, planner, attackers and seed are ``SimConfig``'s defaults
    and its alpha is 0, which any robot count admits; every cell replaces
    all five with its own.
    """

    protocol: str
    scenario: SimConfig
    num_targets: tuple[int, ...]
    alphas: tuple[int, ...]
    trials: int
    planners: tuple[str, ...]
    attackers: tuple[str, ...]
    master_seed: int
    output: str | None = None


def _fail(field: str, problem: str):
    raise SpecError(f"field {field!r}: {problem}")


def _require_list(value, field, item) -> tuple:
    """A non-empty list whose every element passes ``item(element, field)``."""
    if not isinstance(value, list) or not value:
        _fail(field, f"expected a non-empty list, got {shown(value)}")
    return tuple(item(element, field) for element in value)


def _require_arena(value, field) -> Rect:
    # the scenario's SimConfig refuses a flat arena
    if not isinstance(value, list) or len(value) != 4:
        _fail(field, f"expected [x_min, x_max, y_min, y_max], got {shown(value)}")
    bounds = [require_number(v, field) for v in value]
    try:
        return Rect(*bounds)
    except ValueError as exc:
        _fail(field, str(exc))


def _optional_path(value, field) -> str | None:
    if value is not None and not isinstance(value, str):
        _fail(field, f"expected a string path, got {shown(value)}")
    return value


def _require_enumerable(field, what, sizes=(), choose=(0, 0)) -> None:
    try:
        require_enumerable(what, sizes, choose)
    except EnumerationCapExceeded as exc:
        _fail(field, str(exc))


def _require_targets(value, field) -> tuple[int, ...]:
    """A target count, a non-empty list of them, or ``{'start': a, 'stop': b}``."""
    count = FIELD_RULES["num_targets"]
    if isinstance(value, list):
        return _require_list(value, field, count)
    if not (isinstance(value, dict) and set(value) == {"start", "stop"}):
        return (count(value, field),)
    start, stop = count(value["start"], field), count(value["stop"], field)
    if start > stop:
        _fail(field, f"expected start <= stop, got {shown(value)}")
    # counted before it is listed
    _require_enumerable(field, "the target range", [stop - start + 1])
    return tuple(range(start, stop + 1))


# Validators of the spec's own fields, in ExperimentSpec's order; each takes
# the field's value (None when it is missing) and its name.  A field that
# sets a SimConfig field in every cell takes that field's rule.
_SPEC_FIELDS = {
    "protocol": partial(require_choice, choices=("one-step", "multi-round")),
    "num_targets": _require_targets,
    "alphas": partial(_require_list, item=FIELD_RULES["alpha"]),
    "trials": partial(require_int, minimum=1),
    "planners": partial(_require_list, item=partial(require_choice, choices=PLANNER_NAMES)),
    "attackers": partial(_require_list, item=partial(require_choice, choices=ATTACKER_NAMES)),
    "master_seed": FIELD_RULES["rng_seed"],
    "output": _optional_path,
}

# The scenario's fields: the world, which every spec sets, and the optional
# closed-loop fields, which only a multi-round spec may set.
_WORLD_FIELDS = ("num_robots", "fov_side", "fly_length", "arena")
_SIMULATION_FIELDS = (
    "rounds",
    "measurement_noise_std",
    "process_noise",
    "initial_variance",
    "target_speed",
    "velocity_jitter_std",
)


def spec_from_dict(data: dict) -> ExperimentSpec:
    """Validate a parsed spec; raises :class:`SpecError` naming the field."""
    if not isinstance(data, dict):
        raise SpecError("spec must be a JSON object")
    for key in data:
        if key not in (*_SPEC_FIELDS, *_WORLD_FIELDS, *_SIMULATION_FIELDS):
            _fail(key, "unknown field")
    own = {key: check(data.get(key), key) for key, check in _SPEC_FIELDS.items()}
    closed_loop = {key: data[key] for key in _SIMULATION_FIELDS if key in data}
    if own["protocol"] == "one-step":
        for key in closed_loop:
            _fail(key, "a closed-loop field, which only a multi-round spec takes")
        closed_loop = {"rounds": 1}
    # SimConfig checks each world and closed-loop field, naming it, and
    # refuses a flat arena and arithmetic that would overflow or zero the
    # belief variance
    spec = ExperimentSpec(
        scenario=SimConfig(
            num_robots=data.get("num_robots"),
            fov_side=data.get("fov_side"),
            fly_length=data.get("fly_length"),
            arena=_require_arena(data.get("arena"), "arena"),
            alpha=0,
            **closed_loop,
        ),
        **own,
    )

    n = spec.scenario.num_robots
    for a in spec.alphas:
        require_int(a, "alphas", maximum=n)
        # the exact enumerations' own cap checks, made before any cell runs;
        # both protocols give every robot the full four-direction menu
        if "brute-force" in spec.planners:
            _require_enumerable(
                "planners",
                f"brute-force at alpha {shown(a)}: the attacked evaluations",
                itertools.repeat(len(DIRECTION_ORDER), n),
                (n, a),
            )
        if "optimal" in spec.attackers:
            _require_enumerable(
                "attackers",
                f"the optimal attacker at alpha {shown(a)}: the removal sets",
                choose=(n, a),
            )
    # the amount of work, counted before anything is listed or allocated:
    # the cells of the sweep, one world's targets and trajectories and,
    # for the closed loop, a round's grid; rounds are not bounded
    _require_enumerable(
        "trials",
        f"the (m, alpha, trial) cells of {shown(spec.trials)} trials",
        [len(spec.num_targets), len(spec.alphas), spec.trials],
    )
    _require_enumerable(
        "num_robots", f"the trajectories of {shown(n)} robots", [len(DIRECTION_ORDER), n]
    )
    m = max(spec.num_targets)
    _require_enumerable(
        "num_targets",
        f"the target-trajectory pairs of a world of {shown(m)} targets and {shown(n)} robots",
        [m, len(DIRECTION_ORDER), n],
    )
    if spec.protocol == "multi-round":
        # each robot's four flights have at most four distinct edges per
        # axis, so a round's grid has at most (4n - 1)^2 cells
        lines = len(DIRECTION_ORDER) * n - 1
        _require_enumerable(
            "num_robots",
            f"the expected-detections grid cells of a round of {shown(n)} robots",
            [lines, lines],
        )
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


def _one_step_world(spec: ExperimentSpec, unit) -> list[tuple[tuple, list[RecordRow]]]:
    """Every alpha's rows on the world of ``unit = (m position, trial)``."""
    i, trial = unit
    m = spec.num_targets[i]
    trial_seed = derive_trial_seed(spec.master_seed, trial)
    instance = sample_instance(
        _role_rng(trial_seed, 0),
        num_robots=spec.scenario.num_robots,
        num_targets=m,
        fov_side=spec.scenario.fov_side,
        fly_length=spec.scenario.fly_length,
        arena=spec.scenario.arena,
    )
    objective = CoverageCount(instance.targets, instance.ids, instance.bounds)
    # only the random planner, and the random attacker at alpha > 0, draw;
    # each stream they draw from is derived on its first use, keyed by its
    # role codes, and every later use gets it back at its start: restoring
    # a saved state costs far less than a new SeedSequence and bit generator
    streams = {}

    def stream(*codes: int) -> np.random.Generator:
        if codes not in streams:
            rng = _role_rng(trial_seed, *codes)
            streams[codes] = rng, rng.bit_generator.state
        rng, start = streams[codes]
        rng.bit_generator.state = start
        return rng

    keyed = []
    for j, alpha in enumerate(spec.alphas):
        rows = []
        for planner in spec.planners:
            pcode = PLANNER_NAMES.index(planner)
            planner_rng = stream(1, pcode) if planner == "random" else None
            t0 = time.perf_counter_ns()
            result = get_planner(planner)(instance.matroid, objective, alpha, planner_rng)
            plan_ns = time.perf_counter_ns() - t0
            f_full = float(objective.evaluate(result.selected))
            for attacker in spec.attackers:
                acode = ATTACKER_NAMES.index(attacker)
                draws = attacker == "random" and alpha > 0
                attacker_rng = stream(2, pcode, acode) if draws else None
                t1 = time.perf_counter_ns()
                attacked = get_attacker(attacker)(objective, result.selected, alpha, attacker_rng)
                attack_ns = time.perf_counter_ns() - t1
                f_att, rate = score_attack(f_full, attacked.surviving_value)
                # by position, in the column order: half the cost of keywords
                rows.append(
                    RecordRow(trial, 1, planner, attacker, m, alpha, f_full, f_att, rate,
                              result.oracle_calls, (plan_ns + attack_ns) // 1000, trial_seed)
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
        config = replace(
            spec.scenario,
            num_targets=m,
            alpha=alpha,
            planner=planner,
            attackers=spec.attackers,
            rng_seed=trial_seed,
        )
        t0 = time.perf_counter_ns()
        records = run_rounds(config)
        per_round_micros = (time.perf_counter_ns() - t0) // 1000 // config.rounds
        for attacker in spec.attackers:
            for record in records[attacker]:
                rows.append(
                    RecordRow(trial, record.round_index, planner, attacker, m, alpha,
                              record.f_full, record.f_attacked, record.attack_rate,
                              record.oracle_calls, per_round_micros, trial_seed)
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

    The whole file is formatted first, so a row that cannot be formatted
    fails before any file exists.  It is then written once under a
    temporary name in the same directory and moved into place with
    ``os.replace``, so ``path`` never holds a partial file.
    """
    body = [",".join(map(str, _csv_values(row))) for row in rows]
    marker = (
        f"# status=complete schema={CSV_SCHEMA_VERSION} objective={objective} rows={len(rows)}"
    )
    text = "\n".join([",".join(CSV_COLUMNS), *body, marker, ""])
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8", newline="")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


_MARKER_ROWS = re.compile(r"^# status=complete .*\brows=(\d+)$")
_MARKER_SCHEMA = re.compile(r" schema=(\S*)")
_PLANNERS, _ATTACKERS = frozenset(PLANNER_NAMES), frozenset(ATTACKER_NAMES)


def _impossible(row: RecordRow) -> str:
    """Why ``write_csv`` could not have written ``row``, naming the first bad field.

    An unknown planner or attacker, or a NaN or infinite value, so that a
    summary never averages one; called only once ``read_csv`` has found one.
    """
    for name, names in (("planner", PLANNER_NAMES), ("attacker", ATTACKER_NAMES)):
        if getattr(row, name) not in names:
            return f"{name}: {getattr(row, name)!r} is not one of {names}"
    name = next(
        name for name in ("f_full", "f_attacked", "attack_rate")
        if not math.isfinite(getattr(row, name))
    )
    return f"{name}: {getattr(row, name)!r} is not a finite number"


def read_csv(path) -> list[RecordRow]:
    """Parse a results CSV; raises :class:`CsvFormatError` with line numbers.

    The file must end with the completeness marker, the marker's
    ``schema`` must be ``CSV_SCHEMA_VERSION`` and its ``rows`` the number
    of rows read.  A row naming an unknown planner or attacker, or with a
    non-finite ``f_full``, ``f_attacked`` or ``attack_rate``, is refused
    with its line and field.
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
            row = RecordRow._make([parse(part) for parse, part in zip(_COLUMN_TYPES, parts)])
        except ValueError as exc:
            raise CsvFormatError(f"line {lineno}: {exc}") from None
        if not (
            row.planner in _PLANNERS
            and row.attacker in _ATTACKERS
            and math.isfinite(row.f_full)
            and math.isfinite(row.f_attacked)
            and math.isfinite(row.attack_rate)
        ):
            raise CsvFormatError(f"line {lineno}: {_impossible(row)}")
        rows.append(row)
    if marker is None:
        raise CsvFormatError(
            f"line {len(lines) + 1}: no '# status=complete ... rows=N' marker; "
            "the file is incomplete"
        )
    lineno, line = marker
    schema = _MARKER_SCHEMA.search(line)
    if schema is None or schema.group(1) != str(CSV_SCHEMA_VERSION):
        raise CsvFormatError(
            f"line {lineno}: marker {line!r} is not schema {CSV_SCHEMA_VERSION}; "
            "this reader reads no other"
        )
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

"""Benchmark of the resilient_tracking package: three workloads, two kinds of run.

Run from the repository root:

    python3 bench/run.py --workload all                     # every workload, end to end
    python3 bench/run.py --workload all --trace 1           # per-layer split
    python3 bench/run.py --workload sweep --seed 2 --seconds 15 --trace 0

Workloads are ``sweep``, ``closed-loop`` and ``bound-check``
(see ``workloads.py`` and ``design.json``).  Each runs in a child process of
its own with BLAS/OpenMP threads pinned to 1, so its set-up time and peak
memory belong to it alone.  The child builds its inputs from ``--seed``,
runs batches of decisions for ``--seconds``, checks every output, then
replays one reference batch and compares it with ``reference.json``.

An untraced run (``--trace 0``) prints the end-to-end metrics.  ``setup_s`` is
the median, over several fresh processes, of the time from process start to
the first timed decision; ``decisions_per_s`` is the number of decisions
over the time spent in the batches that made them.  Every end-to-end time is
CPU time of a workload process in reference seconds: it is scaled by the
host's speed at the time, taken with a fixed kernel (``speed.py``) right
after set-up and between batches, so that a slow or fast spell of a shared
host does not read as a change of the program.  A traced run
(``--trace 1``) wraps every layer boundary in spans (``spans.py``) and
prints the per-layer metrics; it then replays the same batches untraced,
which gives ``trace.overhead_s`` and checks that tracing changed no output.

Every metric is printed by name with its unit.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; ``failed / attempted`` is the error rate.  A
result file with machine information goes to ``bench/out/``.

``--write-reference`` regenerates ``reference.json``; do so only for a change
that is meant to alter selections or values, and say so where the change is
recorded.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from importlib.metadata import version
from pathlib import Path
from time import perf_counter, process_time

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

WORKLOAD_NAMES = ("sweep", "closed-loop", "bound-check")
# Fresh processes timed for setup_s besides the measured one, half of them
# before it and half after, so that a slow spell of the machine moves the
# median less.
SETUP_PROBES = 6

# Wall seconds between two timings of the speed kernel during a run.
SPEED_EVERY_S = 0.5

PROBLEMS_KEPT = 10

# Loaded by the workload process only; the orchestrating process never
# imports numpy or the package.
spans = speed = workloads = None


class BenchError(RuntimeError):
    """A workload process could not produce a result."""


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, help="workload seed (default: the reference seed)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--fault",
        choices=("none", "non-basis", "perturb"),
        default="none",
        help="negative control: break the program so the output checks must fail",
    )
    parser.add_argument("--write-reference", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---- workload process ----------------------------------------------------------


class Tally:
    """Decisions attempted and failed over a sequence of batches.

    A failed decision is counted once, by (batch seed, index in the batch),
    however many checks it fails.
    """

    def __init__(self, keep_outcomes: bool = False):
        self.attempted = 0
        self.failed_ids: set[tuple[int, int]] = set()
        self.busy = 0.0
        self.problems: list[str] = []
        self.outcomes: list | None = [] if keep_outcomes else None

    @property
    def failed(self) -> int:
        return len(self.failed_ids)

    def fail(self, batch: int, indices, message: str):
        self.failed_ids.update((batch, index) for index in indices)
        if len(self.problems) < PROBLEMS_KEPT:
            self.problems.append(f"batch {batch}: {message}")


def _run_batch(workload, seed: int, tally: Tally, pause=nullcontext):
    """Run and check one batch; returns its outcomes, or None if it failed."""
    clock = workload.clock
    before = len(clock.latencies)
    everything = range(workload.batch_decisions)
    tally.attempted += workload.batch_decisions
    started = clock.timer()
    try:
        raw = workload.run_batch(seed)
    except Exception:
        clock.stop()
        raw = None
        error = traceback.format_exc(limit=3)
    tally.busy += clock.timer() - started
    outcomes = None
    if raw is None:
        tally.fail(seed, everything, f"raised: {error}")
    elif len(clock.latencies) - before != workload.batch_decisions:
        tally.fail(
            seed,
            everything,
            f"timed {len(clock.latencies) - before} decisions, "
            f"expected {workload.batch_decisions}",
        )
    else:
        with pause():
            try:
                outcomes, problems = workload.check(raw)
            except Exception:
                tally.fail(seed, everything, traceback.format_exc(limit=3))
            else:
                for index, found in problems.items():
                    tally.fail(seed, [index], f"decision {index}: {'; '.join(found)}")
    if tally.outcomes is not None:
        tally.outcomes.append(outcomes)
    return outcomes


def _compare(tally: Tally, batch: int, got, want, what: str):
    """Count each decision whose outcome differs from the expected one."""
    if got is None or want is None:
        return
    for index, (g, w) in enumerate(zip(got, want)):
        if not workloads.agree(g, w):
            tally.fail(batch, [index], f"{what}: decision {index} differs: {g} != {w}")
    if len(got) != len(want):
        tally.fail(
            batch,
            range(min(len(got), len(want)), max(len(got), len(want))),
            f"{what}: {len(got)} decisions, expected {len(want)}",
        )


def _latency_summary(latencies: list[float]) -> dict:
    ms = [x * 1e3 for x in latencies]
    return {
        "decisions": len(ms),
        "p50_ms": statistics.median(ms),
        "p90_ms": statistics.quantiles(ms, n=10)[-1] if len(ms) >= 2 else ms[0],
    }


def _timed_batches(workload, seed: int, seconds: float, recorder, kernel: float):
    """Run batches for ``seconds``; returns (tally, batches run, speed marks).

    A mark is (kernel time, decisions timed so far, busy time so far).  An
    untraced run starts with the kernel time ``kernel`` and adds a mark
    after a batch whenever ``SPEED_EVERY_S`` have passed, and after the last
    one.  A traced run takes no marks and keeps the outcomes for the
    untraced replay.
    """
    pause = recorder.paused if recorder else nullcontext
    tally = Tally(keep_outcomes=recorder is not None)
    marks = [] if recorder else [(kernel, 0, 0.0)]
    measured = deadline = perf_counter()
    deadline += seconds
    batches = 0
    while True:
        _run_batch(workload, workloads.batch_seed(seed, batches), tally, pause)
        batches += 1
        now = perf_counter()
        if recorder is None and (now >= deadline or now - measured >= SPEED_EVERY_S):
            marks.append((speed.measure(), len(workload.clock.latencies), tally.busy))
            measured = perf_counter()
        if now >= deadline:
            return tally, batches, marks


def _in_reference_seconds(marks, latencies: list[float]) -> tuple[list[float], float]:
    """Latencies and busy time of an untraced run in reference seconds.

    The decisions between two marks are scaled by the kernel times of those
    two marks, which follows the host through spells shorter than a run.
    """
    scaled, busy = [], 0.0
    for (k0, n0, b0), (k1, n1, b1) in zip(marks, marks[1:]):
        f = speed.factor([k0, k1])
        scaled += [latency * f for latency in latencies[n0:n1]]
        busy += (b1 - b0) * f
    return scaled, busy


def _replay_untraced(workload, patcher, fault, seed: int, batches: int, traced: Tally) -> float:
    """Rerun the traced batches without spans; returns the traced time saved.

    A decision whose untraced outcome differs from its traced one counts as
    failed in ``traced``.
    """
    patcher.restore()
    workloads.install_fault(patcher, fault)
    workload.clock = spans.DecisionClock()
    workload.install(patcher)
    replay = Tally(keep_outcomes=True)
    for index in range(batches):
        _run_batch(workload, workloads.batch_seed(seed, index), replay)
    for index, (got, want) in enumerate(zip(replay.outcomes, traced.outcomes)):
        batch = workloads.batch_seed(seed, index)
        if got is None and want is not None:
            traced.fail(batch, range(workload.batch_decisions), "untraced replay failed")
        _compare(traced, batch, got, want, "untraced replay")
    return traced.busy - replay.busy


def _reference_check(workload, name: str) -> Tally:
    """Run the reference batch and compare it with ``reference.json``."""
    workload.clock = spans.DecisionClock()
    tally = Tally()
    batch = workloads.batch_seed(workloads.REFERENCE_SEED, 0)
    outcomes = _run_batch(workload, batch, tally)
    _compare(tally, batch, outcomes, workloads.load_reference()["workloads"][name], "reference batch")
    return tally


def _import_program():
    """Import the bench modules that load ``resilient_tracking`` from ``src``."""
    global spans, speed, workloads
    sys.path.insert(0, str(SRC))
    import spans
    import speed
    import workloads


def _child(args) -> int:
    _import_program()
    # End-to-end timings are CPU time of this process, which leaves out the
    # spells when the host runs someone else; a traced run keeps wall time,
    # the clock of its spans.
    clock = spans.DecisionClock(perf_counter if args.trace else process_time)
    workload = workloads.WORKLOADS[args.workload](clock)
    # CPU time from process start to the first decision, scaled by the
    # host's speed right after it
    ready = process_time()
    kernel = speed.measure()
    print(f"ready {ready * speed.factor([kernel])!r}", flush=True)
    if args.probe:
        return 0

    patcher = spans.Patcher()
    workloads.install_fault(patcher, args.fault)
    recorder = None
    if args.trace:
        recorder = spans.SpanRecorder(clock)
        recorder.install(patcher)
    workload.install(patcher)

    seed = workloads.REFERENCE_SEED if args.seed is None else args.seed
    timed, batches, marks = _timed_batches(workload, seed, args.seconds, recorder, kernel)
    if not clock.latencies:
        print("error: no decision completed", file=sys.stderr)
        return 1
    latencies, busy = clock.latencies, timed.busy
    if marks:
        latencies, busy = _in_reference_seconds(marks, latencies)
    result = {"seed": seed, "speed_factor": busy / timed.busy, "kernel_runs": len(marks)}
    result.update(_latency_summary(latencies))
    result["decisions_per_s"] = len(latencies) / busy

    if recorder is not None:
        recorder.close()
        layers = recorder.layer_metrics()
        OUT_DIR.mkdir(exist_ok=True)
        recorder.save(OUT_DIR / f"spans-{args.workload}.npz")
        layers["trace.overhead_s"] = _replay_untraced(
            workload, patcher, args.fault, seed, batches, timed
        )
        layers["trace.decisions"] = len(clock.latencies)
        layers["trace.decision_s"] = sum(clock.latencies)
        result["layers"] = layers

    reference = _reference_check(workload, args.workload)
    result["attempted"] = timed.attempted + reference.attempted
    result["failed"] = timed.failed + reference.failed
    result["problems"] = (timed.problems + reference.problems)[:PROBLEMS_KEPT]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


def _write_reference() -> int:
    _import_program()
    stored = {"workloads": {}}
    for name in WORKLOAD_NAMES:
        workload = workloads.WORKLOADS[name](spans.DecisionClock())
        patcher = spans.Patcher()
        workload.install(patcher)
        tally = Tally()
        outcomes = _run_batch(workload, workloads.batch_seed(workloads.REFERENCE_SEED, 0), tally)
        patcher.restore()
        if tally.failed:
            print(f"error: {name} reference batch failed: {tally.problems}", file=sys.stderr)
            return 1
        stored["workloads"][name] = outcomes
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(stored, fh, indent=1)
        fh.write("\n")
    print(f"wrote {workloads.REFERENCE_PATH}")
    return 0


# ---- orchestration -------------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(name: str, args, probe: bool) -> tuple[float, bytes]:
    """Run one workload process; returns (its set-up time in reference
    seconds, its stdout)."""
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--child",
        "--workload", name,
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--fault", args.fault,
    ]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    if probe:
        cmd.append("--probe")
    timeout = 60.0 if probe else 3 * args.seconds + 60.0
    try:
        # run() kills the process and waits for it when the timeout expires
        proc = subprocess.run(
            cmd, stdout=subprocess.PIPE, cwd=ROOT, env=_child_env(), timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{name} process exceeded {timeout:.0f} s") from None
    first = proc.stdout.partition(b"\n")[0].split()
    if proc.returncode != 0 or len(first) != 2 or first[0] != b"ready":
        raise BenchError(f"{name} process exited with code {proc.returncode}")
    return float(first[1]), proc.stdout


def _units(kind: str) -> dict:
    """Name -> unit of every ``kind`` metric that BENCHMARK.json lists."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def _machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "platform": platform.platform(),
    }


def _measure(name: str, args) -> dict:
    """Result of one workload: the JSON object the last line prints."""
    probes = 0 if args.trace else SETUP_PROBES // 2
    setup = [_spawn(name, args, probe=True)[0] for _ in range(probes)]
    ready, output = _spawn(name, args, probe=False)
    setup.append(ready)
    setup += [_spawn(name, args, probe=True)[0] for _ in range(probes)]
    child = json.loads(output.decode().strip().splitlines()[-1])
    if args.trace:
        values = child["layers"]
    else:
        values = {
            "decisions_per_s": child["decisions_per_s"],
            "decision_ms_p50": child["p50_ms"],
            "decision_ms_p90": child["p90_ms"],
            "peak_rss_mb": child["peak_rss_mb"],
            "setup_s": statistics.median(setup),
        }
    units = _units("per_layer" if args.trace else "end_to_end")
    result = {
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {key: {"value": values[key], "unit": unit} for key, unit in units.items()},
    }
    record = {
        "workload": name,
        "seed": child["seed"],
        "seconds": args.seconds,
        "trace": args.trace,
        "fault": args.fault,
        "machine": _machine(),
        **result,
        "error_rate": child["failed"] / child["attempted"],
        "speed_factor": child["speed_factor"],
        "samples": {
            "decisions": child["decisions"],
            "setup_runs": len(setup),
        },
        "setup_samples_s": setup,
        "problems": child["problems"],
    }
    OUT_DIR.mkdir(exist_ok=True)
    suffix = ".trace" if args.trace else ""
    with open(OUT_DIR / f"BENCH_{name}{suffix}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    for key, metric in result["metrics"].items():
        print(f"{name} {key} = {metric['value']:.6g} {metric['unit']}")
    print(
        f"{name} error_rate = {record['error_rate']:.6g} "
        f"({result['failed']}/{result['attempted']}) seed={child['seed']} "
        f"decisions={child['decisions']}"
    )
    for problem in child["problems"]:
        print(f"{name} problem: {problem.strip()}")
    return result


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "resilient_tracking" / "__init__.py").is_file():
        print(f"error: no resilient_tracking package under {SRC}", file=sys.stderr)
        return 2
    if args.child:
        return _child(args)
    if args.write_reference:
        return _write_reference()
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    try:
        results = {name: _measure(name, args) for name in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{key}": metric
                for name, r in results.items()
                for key, metric in r["metrics"].items()
            },
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

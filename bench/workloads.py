"""The three benchmark workloads and the checks on their outputs.

Each workload turns a seed into an endless stream of batches.  A batch is a
few decisions run through the package's public functions; ``run_batch``
executes one and ``check`` verifies its outputs.  A *decision* is the unit
whose latency a user waits for:

- ``sweep``: one plan call and its attacks in the one-step protocol;
- ``closed-loop``: one round of the closed-loop simulation;
- ``bound-check``: one ``check_performance_bound`` call.

Decision latency is timestamped from outside the package, by hooks on the
module attributes that open and close each unit of work (see
``DecisionClock``).  The checks are independent invariants (every selection
is a basis, the attacked value never exceeds the full value, the exhaustive
max-min value is at least the resilient planner's attacked value, every bound
report is satisfied) plus agreement with ``reference.json`` on one reference
batch.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from resilient_tracking import analysis, checks, experiments, planners, simulation
from resilient_tracking.objectives import CoverageCount, ExpectedDetections

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
REFERENCE_PATH = BENCH_DIR / "reference.json"
# The reference batch is batch 0 of this seed; it is also the default seed.
REFERENCE_SEED = 1

# Values may drift by float round-off (an exact reformulation of the union
# mass moves them by about 1e-12); selections must match exactly.
VALUE_TOLERANCE = 1e-9


def batch_seed(seed: int, index: int) -> int:
    """Seed of batch ``index`` in the stream of workload seed ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1, np.uint64)[0])


def agree(got, want, tol: float = VALUE_TOLERANCE) -> bool:
    """Exact on strings, booleans and structure; numbers within ``tol``."""
    if isinstance(want, dict):
        return (
            isinstance(got, dict)
            and got.keys() == want.keys()
            and all(agree(got[k], want[k], tol) for k in want)
        )
    if isinstance(want, list):
        return (
            isinstance(got, list)
            and len(got) == len(want)
            and all(agree(g, w, tol) for g, w in zip(got, want))
        )
    if want is None or isinstance(want, (bool, str)):
        return type(got) is type(want) and got == want
    return (
        isinstance(got, (int, float))
        and not isinstance(got, bool)
        and abs(got - want) <= tol
    )


def _capture(get_fn, log: list, before=None):
    """Wrap a ``get_planner``/``get_attacker`` so every call's result is logged."""

    def get(name):
        fn = get_fn(name)

        def captured(*args):
            if before is not None:
                before()
            result = fn(*args)
            log.append((args, result))
            return result

        return captured

    return get


class Workload:
    """A seeded stream of batches; subclasses define one workload."""

    name = ""
    batch_decisions = 0

    def __init__(self, clock):
        self.clock = clock

    def install(self, patcher):
        """Hook the decision boundaries; the default workload needs none."""

    def run_batch(self, seed: int):
        raise NotImplementedError

    def check(self, raw) -> tuple[list[dict], dict[int, list[str]]]:
        """Outcomes of a batch (JSON-ready) and the problems per decision."""
        raise NotImplementedError


SWEEP_PLANNERS = ("resilient", "greedy", "brute-force")
SWEEP_ATTACKERS = ("optimal", "greedy", "random")
SWEEP_ALPHAS = (0, 1, 2, 3)


class Sweep(Workload):
    """One-step protocol through ``run_suite`` plus a CSV round trip.

    A batch is one trial per alpha: four worlds of 6 robots and 30 targets,
    three planners per world, three attacks per plan.
    """

    name = "sweep"
    batch_decisions = len(SWEEP_ALPHAS) * len(SWEEP_PLANNERS)

    def __init__(self, clock):
        super().__init__(clock)
        self.csv_path = OUT_DIR / "sweep.csv"
        self._plans: list = []
        self._attacks: list = []

    def install(self, patcher):
        sample_instance = experiments.sample_instance

        def world(*args, **kwargs):
            self.clock.stop()
            return sample_instance(*args, **kwargs)

        patcher.set(experiments, "sample_instance", world)
        patcher.set(
            experiments,
            "get_planner",
            _capture(experiments.get_planner, self._plans, lambda: self.clock.start()),
        )
        patcher.set(experiments, "get_attacker", _capture(experiments.get_attacker, self._attacks))

    def run_batch(self, seed):
        self._plans.clear()
        self._attacks.clear()
        spec = experiments.spec_from_dict(
            {
                "protocol": "one-step",
                "num_robots": 6,
                "fov_side": 3.0,
                "fly_length": 7.0,
                "arena": [0, 10, 0, 10],
                "num_targets": 30,
                "alphas": list(SWEEP_ALPHAS),
                "trials": 1,
                "planners": list(SWEEP_PLANNERS),
                "attackers": list(SWEEP_ATTACKERS),
                "master_seed": seed,
            }
        )
        rows = experiments.run_suite(spec, jobs=1)
        self.clock.stop()
        OUT_DIR.mkdir(exist_ok=True)
        experiments.write_csv(rows, self.csv_path)
        reread = experiments.read_csv(self.csv_path)
        return rows, reread, list(self._plans), list(self._attacks)

    def check(self, raw):
        rows, reread, plans, attacks = raw
        per_plan = len(SWEEP_ATTACKERS)
        if len(rows) != len(plans) * per_plan or len(attacks) != len(rows):
            raise ValueError(
                f"{len(plans)} plans, {len(attacks)} attacks and {len(rows)} rows do not line up"
            )
        round_trip = reread == rows
        outcomes, problems = [], {}
        for d, (plan_args, plan) in enumerate(plans):
            matroid = plan_args[0]
            decision_rows = rows[d * per_plan : (d + 1) * per_plan]
            decision_attacks = [result for _, result in attacks[d * per_plan : (d + 1) * per_plan]]
            found = []
            if not matroid.is_basis(plan.selected):
                found.append("selection is not a basis")
            for row, attack in zip(decision_rows, decision_attacks):
                if attack.surviving_value > row.f_full + VALUE_TOLERANCE:
                    found.append(f"{row.attacker} attack value exceeds f_full")
                if not attack.removed <= plan.selected:
                    found.append(f"{row.attacker} attack removed an unselected trajectory")
            if not round_trip:
                found.append("write_csv/read_csv round trip changed the rows")
            if found:
                problems[d] = found
            outcomes.append(
                {
                    "alpha": decision_rows[0].alpha,
                    "planner": decision_rows[0].planner,
                    "selected": sorted(plan.selected),
                    "f_full": decision_rows[0].f_full,
                    "attacks": [
                        [sorted(a.removed), a.surviving_value] for a in decision_attacks
                    ],
                    "maxmin": plan.maxmin_value,
                }
            )
        optimal = SWEEP_ATTACKERS.index("optimal")
        for cell in range(0, len(outcomes), len(SWEEP_PLANNERS)):
            by_planner = {outcomes[i]["planner"]: i for i in range(cell, cell + len(SWEEP_PLANNERS))}
            exhaustive = outcomes[by_planner["brute-force"]]["maxmin"]
            resilient = outcomes[by_planner["resilient"]]["attacks"][optimal][1]
            if exhaustive < resilient - VALUE_TOLERANCE:
                problems.setdefault(by_planner["brute-force"], []).append(
                    "brute-force max-min value is below resilient's attacked value"
                )
        return outcomes, problems


class ClosedLoop(Workload):
    """Multi-round defaults through ``run_suite``: two trials of 50 rounds.

    Each round is timed from the ``build_instance`` call that opens it to the
    next one (or to the start of the next run).  Only the resilient planner
    runs: a greedy round takes two to three times as long, so an even mix of
    the two would put the median latency in the gap between two clusters.
    """

    name = "closed-loop"
    rounds = 50
    trials = 2
    alpha = 2
    batch_decisions = rounds * trials

    def __init__(self, clock):
        super().__init__(clock)
        self._plans: list = []
        self._attacks: list = []

    def install(self, patcher):
        build_instance = simulation.build_instance
        init_robots = simulation.init_robots

        def open_round(*args, **kwargs):
            self.clock.start()
            return build_instance(*args, **kwargs)

        def start_run(*args, **kwargs):
            self.clock.stop()
            return init_robots(*args, **kwargs)

        patcher.set(simulation, "build_instance", open_round)
        patcher.set(simulation, "init_robots", start_run)
        patcher.set(simulation, "get_planner", _capture(simulation.get_planner, self._plans))
        patcher.set(simulation, "get_attacker", _capture(simulation.get_attacker, self._attacks))

    def run_batch(self, seed):
        self._plans.clear()
        self._attacks.clear()
        spec = experiments.spec_from_dict(
            {
                "protocol": "multi-round",
                "num_robots": 4,
                "fov_side": 3.0,
                "fly_length": 3.0,
                "arena": [0, 10, 0, 10],
                "num_targets": 30,
                "alphas": [self.alpha],
                "trials": self.trials,
                "planners": ["resilient"],
                "attackers": ["optimal"],
                "master_seed": seed,
                "rounds": self.rounds,
            }
        )
        rows = experiments.run_suite(spec, jobs=1)
        self.clock.stop()
        return rows, list(self._plans), list(self._attacks)

    def check(self, raw):
        rows, plans, attacks = raw
        if not len(rows) == len(plans) == len(attacks):
            raise ValueError(
                f"{len(plans)} plans, {len(attacks)} attacks and {len(rows)} rows do not line up"
            )
        outcomes, problems = [], {}
        for d, (row, (plan_args, plan), (_, attack)) in enumerate(zip(rows, plans, attacks)):
            found = []
            if not plan_args[0].is_basis(plan.selected):
                found.append("selection is not a basis")
            if attack.surviving_value > row.f_full + VALUE_TOLERANCE:
                found.append("attacked value exceeds f_full")
            if not attack.removed <= plan.selected or len(attack.removed) != min(
                self.alpha, len(plan.selected)
            ):
                found.append("attack did not remove min(alpha, |S|) selected trajectories")
            if found:
                problems[d] = found
            outcomes.append(
                {
                    "planner": row.planner,
                    "round": row.round,
                    "selected": sorted(plan.selected),
                    "removed": sorted(attack.removed),
                    "f_full": row.f_full,
                    "f_attacked": row.f_attacked,
                }
            )
        return outcomes, problems


class BoundCheck(Workload):
    """``checks.run_bound_suite``: many tiny instances, each checked exactly."""

    name = "bound-check"
    batch_decisions = 100

    def __init__(self, clock):
        super().__init__(clock)
        self._reports: list = []

    def install(self, patcher):
        check = checks.check_performance_bound

        def timed(matroid, objective, alpha, *args, **kwargs):
            self.clock.start()
            report = check(matroid, objective, alpha, *args, **kwargs)
            self.clock.stop()
            self._reports.append((matroid, objective, report))
            return report

        patcher.set(checks, "check_performance_bound", timed)

    def run_batch(self, seed):
        self._reports.clear()
        reports = checks.run_bound_suite(num_instances=self.batch_decisions, rng_seed=seed)
        if [r for _, _, r in self._reports] != reports:
            raise ValueError("captured reports differ from the suite's reports")
        return list(self._reports)

    def check(self, raw):
        outcomes, problems = [], {}
        for d, (matroid, objective, report) in enumerate(raw):
            found = []
            if not report.satisfied:
                found.append("performance bound not satisfied")
            if not matroid.is_basis(report.selected):
                found.append("selection is not a basis")
            if report.surviving_value > objective.evaluate(report.selected) + VALUE_TOLERANCE:
                found.append("attacked value exceeds f_full")
            if report.optimal_value < report.surviving_value - VALUE_TOLERANCE:
                found.append("max-min optimum is below the resilient attacked value")
            if not report.worst_removed <= report.selected:
                found.append("attack removed an unselected trajectory")
            if found:
                problems[d] = found
            outcomes.append(
                {
                    "alpha": report.alpha,
                    "selected": sorted(report.selected),
                    "removed": sorted(report.worst_removed),
                    "f_attacked": report.surviving_value,
                    "f_star": report.optimal_value,
                    "curvature": report.curvature,
                    "guarantee": report.guarantee,
                    "satisfied": report.satisfied,
                }
            )
        return outcomes, problems


WORKLOADS = {cls.name: cls for cls in (Sweep, ClosedLoop, BoundCheck)}


def install_fault(patcher, fault: str):
    """Negative controls: break the program so the checks must fire.

    ``non-basis`` makes every planner drop one trajectory from its selection;
    ``perturb`` adds 1e-6 to every objective value, which only the reference
    comparison can see.
    """
    if fault == "non-basis":

        def drop_one(plan):
            def broken(*args, **kwargs):
                result = plan(*args, **kwargs)
                return dataclasses.replace(result, selected=result.selected - {min(result.selected)})

            return broken

        for owner, attr in (
            (planners, "plan_resilient"),
            (planners, "plan_greedy"),
            (planners, "plan_bruteforce_maxmin"),
            (analysis, "plan_resilient"),
        ):
            patcher.set(owner, attr, drop_one(getattr(owner, attr)))
    elif fault == "perturb":
        for cls in (CoverageCount, ExpectedDetections):
            evaluate = cls.evaluate

            def perturbed(objective, members, evaluate=evaluate):
                return evaluate(objective, members) + 1e-6

            patcher.set(cls, "evaluate", perturbed)
    elif fault != "none":
        raise ValueError(f"unknown fault {fault!r}")


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)

"""In-memory spans around the calls into each layer of ``resilient_tracking``.

The benchmark never edits the package.  It replaces public functions on the
modules that call them (``planners.plan_resilient``, ``simulation.kalman_update``
and so on) with wrappers that open a span on entry and close it on return.
A span records its name, start, end, parent span and the decision it belongs
to.  Spans live in flat arrays while the run lasts and are written out when
it ends; every per-layer number is derived from them afterwards.

Objective evaluations are the one exception.  A sweep makes over a million of
them, each about a microsecond, so one span per call would cost more memory
and time than the work it measures.  They are folded into their parent span
instead: each span carries the number of evaluations made directly under it
and the time they took.  A layer's self time is then its span duration minus
the child spans and the folded evaluations.
"""

from __future__ import annotations

import inspect
import os
import weakref
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from resilient_tracking import (
    adversary,
    analysis,
    checks,
    experiments,
    planners,
    simulation,
    worlds,
)
from resilient_tracking.matroid import PartitionMatroid
from resilient_tracking.objectives import CoverageCount, ExpectedDetections


class Patcher:
    """Sets attributes and puts the originals back, last in first out."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


class DecisionClock:
    """Latency of each decision, timestamped from outside the package.

    ``start`` opens a decision and closes the one still open, so a hook at
    the call that begins each unit of work is enough to time a sequence of
    them; ``stop`` closes the open decision, if any.  ``timer`` is the clock
    read at both ends: wall time by default, CPU time for the end-to-end run.
    """

    def __init__(self, timer=perf_counter):
        self.timer = timer
        self.latencies: list[float] = []
        self._opened: float | None = None

    @property
    def current(self) -> int:
        """Index of the open decision, or -1 between decisions."""
        return len(self.latencies) if self._opened is not None else -1

    def start(self):
        now = self.timer()
        if self._opened is not None:
            self.latencies.append(now - self._opened)
        self._opened = now

    def stop(self):
        if self._opened is not None:
            self.latencies.append(self.timer() - self._opened)
            self._opened = None


def _ground_size(args, kwargs) -> int:
    matroid = args[0] if args else kwargs["matroid"]
    return len(matroid.ground_set)


class SpanRecorder:
    """Flat span table plus the patches that fill it."""

    def __init__(self, clock: DecisionClock):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.decision = array("i")
        self.aux = array("q")
        # objective evaluations folded into the span that made them
        self.leaf_calls = array("q")
        self.leaf_time = array("d")
        # time spent on the folded evaluations' own bookkeeping
        self.leaf_overhead = array("d")
        self.set_size_total = 0
        self.distinct_sets = 0
        self._seen = weakref.WeakKeyDictionary()
        self.counters: Counter = Counter()
        self._paused = False
        self._stack = [self._open(self._name_id("bench.run"), 0)]

    # ---- recording -----------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int, aux: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if idx else -1)
        self.decision.append(self.clock.current)
        self.aux.append(aux)
        self.leaf_calls.append(0)
        self.leaf_time.append(0.0)
        self.leaf_overhead.append(0.0)
        self.end.append(0.0)
        self.start.append(perf_counter())
        return idx

    def close(self):
        """End the root span; call once, after the traced phase."""
        self.end[0] = perf_counter()

    @contextmanager
    def paused(self):
        """Run the bench's own checks without recording them."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def wrap(self, name: str, fn, aux=None):
        nid = self._name_id(name)

        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            idx = self._open(nid, aux(args, kwargs) if aux else 0)
            self._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self._stack.pop()

        return traced

    def wrap_objective(self, fn):
        def evaluate(objective, members):
            if self._paused:
                return fn(objective, members)
            key = members if isinstance(members, frozenset) else frozenset(members)
            t0 = perf_counter()
            value = fn(objective, key)
            t1 = perf_counter()
            parent = self._stack[-1]
            self.leaf_calls[parent] += 1
            self.leaf_time[parent] += t1 - t0
            self.set_size_total += len(key)
            seen = self._seen.get(objective)
            if seen is None:
                seen = self._seen[objective] = set()
            if key not in seen:
                seen.add(key)
                self.distinct_sets += 1
            self.leaf_overhead[parent] += perf_counter() - t1
            return value

        return evaluate

    def wrap_bases(self, fn):
        def enumerate_bases(matroid, *args, **kwargs):
            bases = fn(matroid, *args, **kwargs)
            if self._paused:
                return bases

            def counted():
                for basis in bases:
                    self.counters["matroid.bases"] += 1
                    yield basis

            return counted()

        return enumerate_bases

    def wrap_bruteforce(self, fn):
        """Pass a traced attack to brute force when the caller passes none.

        ``plan_bruteforce_maxmin`` binds its default attack when it is
        defined, so replacing ``adversary.attack_optimal`` never reaches the
        attacks it makes; its default is wrapped here instead.
        """
        params = inspect.signature(fn).parameters
        if "attack" not in params:
            return fn
        position = list(params).index("attack")
        default = params["attack"].default
        traced_attack = self.wrap(f"adversary.{default.__name__}", default)

        def bruteforce(*args, **kwargs):
            if len(args) <= position and "attack" not in kwargs:
                kwargs["attack"] = traced_attack
            return fn(*args, **kwargs)

        return bruteforce

    # ---- patches ---------------------------------------------------------

    def install(self, patcher: Patcher):
        """Wrap every layer boundary the workloads cross."""

        def span(owner, attr, name, aux=None):
            patcher.set(owner, attr, self.wrap(name, getattr(owner, attr), aux))

        for owner in (experiments, checks, worlds):
            span(owner, "sample_instance", "worlds.sample_instance")
        for owner in (worlds, simulation):
            span(owner, "build_instance", "worlds.build_instance")

        span(experiments, "run_suite", "experiments.run_suite")
        span(experiments, "read_csv", "experiments.read_csv")
        write_csv = self.wrap("experiments.write_csv", experiments.write_csv)

        def write_csv_counted(rows, path, *args, **kwargs):
            write_csv(rows, path, *args, **kwargs)
            if not self._paused:
                self.counters["experiments.csv_bytes"] += os.path.getsize(path)

        patcher.set(experiments, "write_csv", write_csv_counted)
        span(experiments, "run_rounds", "simulation.run_rounds")
        for attr in ("kalman_update", "step_targets", "measure"):
            span(simulation, attr, f"simulation.{attr}")

        for attr in ("attack_optimal", "attack_greedy", "attack_random", "attack_none"):
            span(adversary, attr, f"adversary.{attr}")
        span(analysis, "attack_optimal", "adversary.attack_optimal")
        for owner in (planners, analysis):
            span(owner, "plan_resilient", "planners.plan_resilient", aux=_ground_size)
            patcher.set(
                owner,
                "plan_bruteforce_maxmin",
                self.wrap(
                    "planners.plan_bruteforce_maxmin",
                    self.wrap_bruteforce(owner.plan_bruteforce_maxmin),
                ),
            )
        span(planners, "plan_greedy", "planners.plan_greedy")
        span(planners, "plan_random", "planners.plan_random")

        span(checks, "run_bound_suite", "checks.run_bound_suite")
        span(checks, "check_performance_bound", "analysis.check_performance_bound")
        span(analysis, "constrained_curvature", "analysis.constrained_curvature")

        patcher.set(
            PartitionMatroid,
            "enumerate_bases",
            self.wrap_bases(PartitionMatroid.enumerate_bases),
        )
        for cls in (CoverageCount, ExpectedDetections):
            patcher.set(cls, "evaluate", self.wrap_objective(cls.evaluate))

    # ---- derivation --------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """The span table as numpy arrays, in the form written to disk."""
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "decision": np.frombuffer(self.decision, dtype=np.int32),
            "aux": np.frombuffer(self.aux, dtype=np.int64),
            "leaf_calls": np.frombuffer(self.leaf_calls, dtype=np.int64),
            "leaf_time": np.frombuffer(self.leaf_time, dtype=np.float64),
            "leaf_overhead": np.frombuffer(self.leaf_overhead, dtype=np.float64),
        }

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and times, derived from the span table."""
        a = self.arrays()
        name_id = a["name"]
        layers = [n.split(".", 1)[0] for n in self.names]
        layer_id = np.array([layers.index(layer) for layer in layers])[name_id]
        duration = a["end"] - a["start"]
        children = np.bincount(a["parent"][1:], weights=duration[1:], minlength=len(duration))
        self_time = duration - children - a["leaf_time"] - a["leaf_overhead"]
        calls = a["leaf_calls"]
        nowhere = np.zeros(len(name_id), dtype=bool)

        def named(name):
            return name_id == self._name_ids[name] if name in self._name_ids else nowhere

        def in_layer(layer):
            return layer_id == layers.index(layer) if layer in layers else nowhere

        def total(values, mask) -> float:
            return float(values[mask].sum())

        def share(numerator, denominator) -> float:
            return numerator / denominator if denominator else 0.0

        resilient = named("planners.plan_resilient")
        greedy = named("planners.plan_greedy")
        curvature = named("analysis.constrained_curvature")
        kalman = named("simulation.kalman_update")
        attacks = in_layer("adversary")
        objective_calls = int(calls.sum())
        objective_s = float(a["leaf_time"].sum())
        bait = np.minimum(calls, a["aux"])
        return {
            "objectives.calls": objective_calls,
            "objectives.self_s": objective_s,
            "objectives.us_per_call": share(objective_s * 1e6, objective_calls),
            "objectives.mean_set_size": share(self.set_size_total, objective_calls),
            "objectives.distinct_ratio": share(self.distinct_sets, objective_calls),
            "planners.bait_calls": int(bait[resilient].sum()),
            "planners.fill_calls": int((calls - bait)[resilient].sum() + calls[greedy].sum()),
            "planners.resilient_s": total(duration, resilient),
            "planners.greedy_s": total(duration, greedy),
            "planners.bruteforce_s": total(duration, named("planners.plan_bruteforce_maxmin")),
            "planners.self_s": total(self_time, in_layer("planners")),
            "matroid.bases": int(self.counters["matroid.bases"]),
            "adversary.optimal_s": total(duration, named("adversary.attack_optimal")),
            "adversary.greedy_s": total(duration, named("adversary.attack_greedy")),
            "adversary.random_s": total(duration, named("adversary.attack_random")),
            "adversary.self_s": total(self_time, attacks),
            "adversary.attacks": int(attacks.sum()),
            "adversary.calls_per_attack": share(float(calls[attacks].sum()), int(attacks.sum())),
            "analysis.curvature_s": total(duration, curvature),
            "analysis.curvature_calls": int(curvature.sum()),
            "analysis.bound_s": total(duration, named("analysis.check_performance_bound")),
            "analysis.self_s": total(self_time, in_layer("analysis")),
            "simulation.round_self_s": total(self_time, named("simulation.run_rounds")),
            "simulation.self_s": total(self_time, in_layer("simulation")),
            "simulation.kalman_s": total(duration, kalman),
            "simulation.kalman_calls": int(kalman.sum()),
            "simulation.step_targets_s": total(duration, named("simulation.step_targets")),
            "simulation.measure_s": total(duration, named("simulation.measure")),
            "worlds.build_s": total(self_time, in_layer("worlds")),
            "worlds.instances": int(named("worlds.build_instance").sum()),
            "experiments.self_s": total(self_time, in_layer("experiments")),
            "experiments.write_csv_s": total(duration, named("experiments.write_csv")),
            "experiments.read_csv_s": total(duration, named("experiments.read_csv")),
            "experiments.csv_bytes": int(self.counters["experiments.csv_bytes"]),
        }

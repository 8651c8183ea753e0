"""Self-check suites behind the command line's ``check`` subcommand.

These re-verify the package's own guarantees with its own exact oracles:
the bounds suite replans random small instances and checks the worst-case
performance bound; the properties suite hunts for monotonicity and
submodularity violations in both objectives and confirms the checkers
still catch deliberately broken functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .analysis import BoundReport, check_performance_bound
from .geometry import Rect
from .objectives import (
    CoverageCount,
    ExpectedDetections,
    check_monotone,
    check_submodular,
)
from .worlds import sample_instance

CHECK_ARENA = Rect(0.0, 10.0, 0.0, 10.0)


def run_bound_suite(num_instances: int = 200, rng_seed: int = 20260815) -> list[BoundReport]:
    """Performance-bound reports for random small instances.

    Instances use 2..5 robots with 2-3 direction menus, up to 15 targets and
    a uniformly drawn alpha below the robot count, all exhaustively checkable.
    """
    rng = np.random.default_rng(rng_seed)
    reports = []
    for _ in range(num_instances):
        num_robots = int(rng.integers(2, 6))
        instance = sample_instance(
            rng,
            num_robots=num_robots,
            num_targets=int(rng.integers(1, 16)),
            fov_side=3.0,
            fly_length=7.0,
            arena=CHECK_ARENA,
            menu_sizes=(2, 3),
        )
        alpha = int(rng.integers(0, num_robots))
        objective = CoverageCount(instance.targets, instance.ids, instance.bounds)
        reports.append(check_performance_bound(instance.matroid, objective, alpha))
    return reports


@dataclass(frozen=True)
class PropertySuiteResult:
    """Violation counts per objective plus negative-control counts."""

    trials: int
    coverage_monotone: int
    coverage_submodular: int
    expected_monotone: int
    expected_submodular: int
    control_monotone: int
    control_submodular: int

    @property
    def passed(self) -> bool:
        return (
            self.coverage_monotone == 0
            and self.coverage_submodular == 0
            and self.expected_monotone == 0
            and self.expected_submodular == 0
            and self.control_monotone > 0
            and self.control_submodular > 0
        )


def run_property_suite(trials: int = 1000, rng_seed: int = 20260815) -> PropertySuiteResult:
    """Monotonicity/submodularity sampling for both objectives.

    Both objectives run at full scale: six robots with four-direction menus
    and 30 targets each, so sampled sets hold up to 24 rectangles.  Negative
    controls assert the checkers still fire:
    f(S) = -|S| breaks monotonicity, f(S) = |S|^2 breaks submodularity.
    """
    rng = np.random.default_rng(rng_seed)
    coverage_world = sample_instance(
        rng, num_robots=6, num_targets=30, fov_side=3.0, fly_length=7.0, arena=CHECK_ARENA
    )
    coverage = CoverageCount(coverage_world.targets, coverage_world.ids, coverage_world.bounds)

    belief_world = sample_instance(
        rng, num_robots=6, num_targets=30, fov_side=3.0, fly_length=7.0, arena=CHECK_ARENA
    )
    # beliefs centered on the targets, std_x then std_y per target
    stds = rng.uniform(0.3, 2.0, size=belief_world.targets.shape)
    expected = ExpectedDetections(
        belief_world.targets, stds, belief_world.ids, belief_world.bounds
    )

    decreasing = SimpleNamespace(evaluate=lambda s: -len(s))
    supermodular = SimpleNamespace(evaluate=lambda s: float(len(s)) ** 2)

    seeds = rng.integers(0, 2**32, size=6)
    return PropertySuiteResult(
        trials=trials,
        coverage_monotone=len(
            check_monotone(coverage, coverage_world.matroid, trials, int(seeds[0]))
        ),
        coverage_submodular=len(
            check_submodular(coverage, coverage_world.matroid, trials, int(seeds[1]))
        ),
        expected_monotone=len(
            check_monotone(expected, belief_world.matroid, trials, int(seeds[2]))
        ),
        expected_submodular=len(
            check_submodular(expected, belief_world.matroid, trials, int(seeds[3]))
        ),
        control_monotone=len(
            check_monotone(decreasing, coverage_world.matroid, trials, int(seeds[4]))
        ),
        control_submodular=len(
            check_submodular(supermodular, coverage_world.matroid, trials, int(seeds[5]))
        ),
    )

"""Resilient multi-robot target tracking.

Select one trajectory per robot so that the tracking objective stays high
even after an adversary removes the worst-case subset of up to alpha
selected trajectories.  The package bundles the planar coverage model, the
partition matroid over per-robot menus, two monotone submodular tracking
objectives, the two-phase resilient planner with baselines, exact and
heuristic attack oracles, guarantee analysis, a closed-loop simulation and
an experiment harness with a small command line.
"""

from .adversary import (
    ATTACKER_NAMES,
    AttackResult,
    attack_greedy,
    attack_none,
    attack_optimal,
    attack_random,
    get_attacker,
)
from .analysis import (
    BoundReport,
    CurvatureReport,
    check_performance_bound,
    constrained_curvature,
    h_bound,
)
from .errors import (
    CsvFormatError,
    DegenerateObjective,
    EnumerationCapExceeded,
    MissingCoverageRect,
    SpecError,
    TrackingError,
)
from .geometry import Direction, Rect
from .matroid import ENUMERATION_CAP, PartitionMatroid
from .objectives import (
    CoverageCount,
    ExpectedDetections,
    Objective,
    PropertyViolation,
    check_monotone,
    check_submodular,
    normal_cdf,
)
from .planners import (
    PLANNER_NAMES,
    AlgorithmTrace,
    PlanResult,
    get_planner,
    plan_bruteforce_maxmin,
    plan_greedy,
    plan_random,
    plan_resilient,
)
from .simulation import (
    RoundRecord,
    SimConfig,
    TargetState,
    init_robots,
    init_tracks,
    kalman_update,
    measure,
    run_rounds,
    step_targets,
)
from .worlds import (
    DIRECTION_ORDER,
    WorldInstance,
    build_instance,
    sample_instance,
)

__version__ = "0.1.0"

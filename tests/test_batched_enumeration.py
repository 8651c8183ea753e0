"""Exact max-min and curvature on the basis grid versus the literal loops.

``plan_bruteforce_maxmin`` and ``constrained_curvature`` score every basis
at once on ``objectives.basis_grid``.  A ``CoverageCount`` is scored there
on packed bitmasks; wrapping its ``evaluate`` in ``helpers.SetFunction``
makes the grid call ``evaluate`` once per menu combination instead, the
path every other objective takes.  ``oracles.py`` holds the literal nested
enumerations.  All must agree on the selection, the witness and the value,
and ``oracle_calls`` is the logical count ``bases * C(n, min(alpha, n))``
of a per-basis optimal attack.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import helpers
import oracles
from resilient_tracking.adversary import attack_optimal
from resilient_tracking.analysis import constrained_curvature
from resilient_tracking.errors import DegenerateObjective, EnumerationCapExceeded
from resilient_tracking.geometry import Rect
from resilient_tracking.matroid import PartitionMatroid
from resilient_tracking.objectives import grid_union_counts
from resilient_tracking.planners import plan_bruteforce_maxmin

PROPERTY_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def random_coverage(seed, menu_sizes, num_targets, spread=10.0):
    """A matroid over the given menus and a coverage objective on random rects.

    Targets fall in [0, spread]^2 and rectangles in [0, 10]^2, so a large
    ``spread`` makes sparse or all-zero coverage likely.
    """
    rng = np.random.default_rng(seed)
    blocks, rects = {}, {}
    for r, size in enumerate(menu_sizes):
        robot = f"r{r:02d}"
        blocks[robot] = [f"{robot}:{k}" for k in range(size)]
        for tid in blocks[robot]:
            x, y = rng.uniform(0.0, 8.0, size=2)
            w, h = rng.uniform(0.5, 4.0, size=2)
            rects[tid] = Rect(x, x + w, y, y + h)
    targets = [tuple(rng.uniform(0.0, spread, size=2)) for _ in range(num_targets)]
    return PartitionMatroid(blocks), helpers.coverage(targets, rects)


instances = st.tuples(
    st.integers(0, 2**32 - 1),
    st.lists(st.integers(1, 4), min_size=1, max_size=5),
    st.integers(0, 150),
    st.sampled_from([10.0, 1000.0]),
)


@PROPERTY_SETTINGS
@given(instance=instances, data=st.data())
def test_batched_maxmin_matches_loop_and_oracle(instance, data):
    seed, menu_sizes, num_targets, spread = instance
    matroid, cov = random_coverage(seed, menu_sizes, num_targets, spread)
    alpha = data.draw(st.integers(0, matroid.num_robots))

    batched = plan_bruteforce_maxmin(matroid, cov, alpha)
    generic = plan_bruteforce_maxmin(matroid, helpers.SetFunction(cov.evaluate), alpha)
    want_value, want_basis = oracles.maxmin_bruteforce(matroid.blocks, cov.evaluate, alpha)

    assert batched.selected == generic.selected == want_basis
    assert batched.maxmin_value == generic.maxmin_value == want_value
    n = matroid.num_robots
    logical = math.prod(menu_sizes) * math.comb(n, min(alpha, n))
    assert batched.oracle_calls == generic.oracle_calls == logical


@PROPERTY_SETTINGS
@given(instance=instances)
def test_batched_curvature_matches_loop_and_oracle(instance):
    seed, menu_sizes, num_targets, spread = instance
    matroid, cov = random_coverage(seed, menu_sizes, num_targets, spread)
    want = oracles.curvature_bruteforce(matroid.blocks, cov.evaluate)
    if want is None:
        with pytest.raises(DegenerateObjective):
            constrained_curvature(matroid, cov)
        with pytest.raises(DegenerateObjective):
            constrained_curvature(matroid, helpers.SetFunction(cov.evaluate))
        return

    batched = constrained_curvature(matroid, cov)
    generic = constrained_curvature(matroid, helpers.SetFunction(cov.evaluate))
    ratio, basis, member = oracles.curvature_witness_bruteforce(matroid.blocks, cov.evaluate)
    assert batched == generic
    assert (batched.witness_set, batched.witness_element) == (basis, member)
    assert batched.value == want == 1.0 - ratio


@st.composite
def near_tie_beliefs(draw):
    """A matroid and ``ExpectedDetections`` with exact value ties common.

    Rectangles come from a small pool of lattice boxes and beliefs sit on
    the same lattice with one shared deviation, so duplicate rectangles and
    equal unions are frequent.  One trajectory gets a zero-width rectangle,
    which covers no grid cell and has singleton value exactly 0; ``far``
    moves every belief out of reach.
    """
    pool = draw(st.lists(helpers.boxes(), min_size=1, max_size=4))
    menu_sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    blocks, rects = {}, {}
    for r, size in enumerate(menu_sizes):
        blocks[f"r{r}"] = [f"r{r}:{k}" for k in range(size)]
        for tid in blocks[f"r{r}"]:
            rects[tid] = draw(st.sampled_from(pool))
    zero = draw(st.sampled_from(sorted(rects)))
    x, y0, y1 = draw(helpers.lattice), draw(helpers.lattice), draw(helpers.lattice)
    rects[zero] = Rect(x, x, min(y0, y1), max(y0, y1))
    far = draw(st.sampled_from([0.0, 0.0, 0.0, 1000.0]))
    std = draw(st.sampled_from([0.25, 1.0, 2.5]))
    points = draw(st.lists(st.tuples(helpers.lattice, helpers.lattice), max_size=6))
    beliefs = [(x + far, y + far, std, std) for x, y in points]
    return PartitionMatroid(blocks), helpers.expected(beliefs, rects), zero


@PROPERTY_SETTINGS
@given(instance=near_tie_beliefs(), data=st.data())
def test_exact_enumerations_on_expected_detections_match_the_oracles(instance, data):
    matroid, objective, zero = instance
    assert objective.evaluate({zero}) == 0.0
    alpha = data.draw(st.integers(0, matroid.num_robots))
    got = plan_bruteforce_maxmin(matroid, objective, alpha)
    want_value, want_basis = oracles.maxmin_bruteforce(matroid.blocks, objective.evaluate, alpha)
    assert got.selected == want_basis
    assert got.maxmin_value == want_value

    witness = oracles.curvature_witness_bruteforce(matroid.blocks, objective.evaluate)
    if witness is None:
        with pytest.raises(DegenerateObjective):
            constrained_curvature(matroid, objective)
        return
    ratio, basis, member = witness
    report = constrained_curvature(matroid, objective)
    assert (report.witness_set, report.witness_element) == (basis, member)
    assert report.value == 1.0 - ratio
    assert zero in report.skipped_zero_elements


def test_menu_tables_pack_more_than_64_targets():
    matroid, cov = random_coverage(3, [2, 3, 1], num_targets=150)
    menus = [matroid.blocks[robot] for robot in matroid.robots]
    tables = cov.menu_tables(menus)
    assert [t.shape for t in tables] == [(2, 1, 1, 3), (1, 3, 1, 3), (1, 1, 1, 3)]
    for r, menu in enumerate(menus):
        alone = grid_union_counts([tables[r]], len(menus)).ravel()
        assert list(alone) == [cov.evaluate({tid}) for tid in menu]
    grid = grid_union_counts(tables, len(menus))
    for index in itertools.product(*(range(len(menu)) for menu in menus)):
        basis = {menu[i] for menu, i in zip(menus, index)}
        assert grid[index] == cov.evaluate(basis)
    assert grid_union_counts([], len(menus)).shape == (1, 1, 1)


@pytest.mark.parametrize("alpha", [0, 1, 3])
def test_batched_maxmin_edge_alphas_and_single_item_menus(alpha):
    # alpha 3 removes every robot: all bases tie at 0 and the first one wins
    matroid, cov = random_coverage(11, [1, 4, 1], num_targets=90)
    batched = plan_bruteforce_maxmin(matroid, cov, alpha)
    generic = plan_bruteforce_maxmin(matroid, helpers.SetFunction(cov.evaluate), alpha)
    assert (batched.selected, batched.maxmin_value, batched.oracle_calls) == (
        generic.selected,
        generic.maxmin_value,
        4 * math.comb(3, alpha),
    )
    assert generic.oracle_calls == batched.oracle_calls
    if alpha == matroid.num_robots:
        assert batched.maxmin_value == 0.0
        assert batched.selected == next(matroid.enumerate_bases())


def test_batched_curvature_on_all_zero_coverage_is_degenerate():
    matroid = PartitionMatroid({"r0": ["a", "b"], "r1": ["c", "d"]})
    far = [(500.0, 500.0)] * 20
    cov = helpers.coverage(far, {tid: Rect(0.0, 1.0, 0.0, 1.0) for tid in matroid.ground_set})
    assert plan_bruteforce_maxmin(matroid, cov, 1).maxmin_value == 0.0
    with pytest.raises(DegenerateObjective):
        constrained_curvature(matroid, cov)


def test_batched_enumerations_keep_the_cap_checks():
    # 4**9 bases x C(9, 1) attacks and 4**10 bases are both beyond 10**6
    matroid, cov = random_coverage(2, [4] * 9, num_targets=10)
    with pytest.raises(EnumerationCapExceeded):
        plan_bruteforce_maxmin(matroid, cov, 1)
    matroid, cov = random_coverage(2, [4] * 10, num_targets=10)
    with pytest.raises(EnumerationCapExceeded):
        constrained_curvature(matroid, cov)
    # 4**8000 and C(20000, 10000) are past Python's 4300-digit int-to-str limit
    matroid, cov = random_coverage(3, [4] * 8000, num_targets=10)
    with pytest.raises(EnumerationCapExceeded):
        plan_bruteforce_maxmin(matroid, cov, 1)
    with pytest.raises(EnumerationCapExceeded):
        constrained_curvature(matroid, cov)
    with pytest.raises(EnumerationCapExceeded):
        attack_optimal(helpers.SetFunction(len), range(20000), 10000)

"""Exact max-min and curvature on the basis grid versus the literal loops.

``plan_bruteforce_maxmin`` and ``constrained_curvature`` score every basis
at once on ``objectives.basis_grid``.  A ``CoverageCount`` is scored there
on packed bitmasks; wrapping its ``evaluate`` in ``helpers.SetFunction``
makes the grid call ``evaluate`` once per menu combination instead, the
path every other objective takes.  ``oracles.py`` holds the literal nested
enumerations.  All must agree on the selection, the witness and the value,
and ``oracle_calls`` is the logical count ``bases * C(n, min(alpha, n))``
of a per-basis optimal attack.  The max-min value is read off the grid and
must be, bit for bit, what ``attack_optimal`` leaves of the chosen basis.
The grid comes in blocks of at most about ``objectives.BLOCK_CELLS`` words;
shrinking that constant to a few words must change no selection, witness
or value, ties included.  A ``CoverageCount`` keeps its last one-block grid,
so one objective asked again, at any alpha and cap, must answer as a fresh
one does.
"""

import gc
import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import helpers
import oracles
from resilient_tracking import analysis, objectives
from resilient_tracking.adversary import attack_optimal
from resilient_tracking.analysis import constrained_curvature
from resilient_tracking.errors import DegenerateObjective, EnumerationCapExceeded
from resilient_tracking.geometry import Rect
from resilient_tracking.matroid import PartitionMatroid
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


def assert_maxmin_value_is_the_optimal_attack(matroid, objective):
    """f* read off the grid is what an optimal attack on the chosen basis leaves."""
    for alpha in range(matroid.num_robots + 1):
        plan = plan_bruteforce_maxmin(matroid, objective, alpha)
        attacked = attack_optimal(objective, plan.selected, alpha)
        assert repr(plan.maxmin_value) == repr(attacked.surviving_value)


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
    assert_maxmin_value_is_the_optimal_attack(matroid, cov)
    assert_maxmin_value_is_the_optimal_attack(matroid, helpers.SetFunction(cov.evaluate))


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
    assert_maxmin_value_is_the_optimal_attack(matroid, objective)

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


def test_menu_tables_put_the_words_first():
    matroid, cov = random_coverage(3, [2, 3, 1], num_targets=150)
    menus = matroid.menus
    tables = cov.menu_tables(menus)
    assert [t.shape for t in tables] == [(3, 2, 1, 1), (3, 1, 3, 1), (3, 1, 1, 1)]
    for r, (table, menu) in enumerate(zip(tables, menus)):
        # the menu axis, not the word axis, is the one with unit stride
        assert table.dtype == np.uint64
        assert len(menu) == 1 or table.strides[r + 1] == 8
        words = table.reshape(3, len(menu))
        for k, tid in enumerate(menu):
            mask = sum(int(word) << (64 * w) for w, word in enumerate(words[:, k]))
            assert mask.bit_count() == cov.evaluate({tid})
    union = tables[0] | tables[1] | tables[2]
    counts = np.bitwise_count(union).sum(axis=0)
    for index in itertools.product(*(range(len(menu)) for menu in menus)):
        basis = {menu[i] for menu, i in zip(menus, index)}
        assert counts[index] == cov.evaluate(basis)


@pytest.mark.parametrize("alpha", [0, 1, 3])
def test_batched_maxmin_edge_alphas_and_single_item_menus(alpha):
    # alpha 3 removes every robot: all bases tie at 0 and the first one
    # wins, though the worst-case grid then has one point, not the block's
    # shape; in one block or in blocks of a few bases, on single-item or
    # multi-item menus
    for menu_sizes in ([1, 4, 1], [3, 2, 4]):
        matroid, cov = random_coverage(11, menu_sizes, num_targets=90)
        for block_cells in (objectives.BLOCK_CELLS, 5):
            with mock.patch.object(objectives, "BLOCK_CELLS", block_cells):
                batched = plan_bruteforce_maxmin(matroid, cov, alpha)
                generic = plan_bruteforce_maxmin(
                    matroid, helpers.SetFunction(cov.evaluate), alpha
                )
            assert (batched.selected, batched.maxmin_value, batched.oracle_calls) == (
                generic.selected,
                generic.maxmin_value,
                math.prod(menu_sizes) * math.comb(3, alpha),
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


def assert_grid_paths_match_the_oracles(matroid, cov, alphas):
    """Max-min and curvature through both grid paths equal the literal loops."""
    generic = helpers.SetFunction(cov.evaluate)
    for alpha in alphas:
        want_value, want_basis = oracles.maxmin_bruteforce(matroid.blocks, cov.evaluate, alpha)
        for objective in (cov, generic):
            plan = plan_bruteforce_maxmin(matroid, objective, alpha)
            assert plan.selected == want_basis
            assert repr(plan.maxmin_value) == repr(float(want_value))
    witness = oracles.curvature_witness_bruteforce(matroid.blocks, cov.evaluate)
    for objective in (cov, generic):
        if witness is None:
            with pytest.raises(DegenerateObjective):
                constrained_curvature(matroid, objective)
            continue
        report = constrained_curvature(matroid, objective)
        assert (report.value, report.witness_set, report.witness_element) == (
            1.0 - witness[0],
            witness[1],
            witness[2],
        )


def assert_blocks_cut_c_order(objective, menus, cap):
    """The blocks cut C order into consecutive runs of at most ``max(1, cap)`` bases."""
    bases = list(itertools.product(*menus))
    start = 0
    for block in objectives.basis_grid(objective, menus):
        run = list(itertools.product(*block.menus))
        assert 1 <= len(run) <= max(1, cap)
        assert bases[start : start + len(run)] == run
        start += len(run)
    assert start == len(bases)


@pytest.mark.parametrize("block_cells", [1, 2, 3, 5, 8, 13, 40])
def test_a_block_names_its_bases_in_enumeration_order(block_cells):
    # every position of every block, then the size-1 worst case as built
    # with every robot removed, whose one point stands for the block's
    # first basis; 50 targets pack into one word, so the cap is block_cells
    matroid, cov = random_coverage(9, [3, 1, 2, 4], num_targets=50)
    n, bases = matroid.num_robots, list(itertools.product(*matroid.menus))
    with mock.patch.object(objectives, "BLOCK_CELLS", block_cells):
        for objective in (cov, helpers.SetFunction(cov.evaluate)):
            start = 0
            for block in objectives.basis_grid(objective, matroid.menus):
                size = math.prod(block.shape)
                named = [tuple(block.basis(at, block.shape)) for at in range(size)]
                assert named == bases[start : start + size]
                worst = block.worst_case(n)
                assert worst.shape == (1,) * n
                assert tuple(block.basis(worst.argmax(), worst.shape)) == bases[start]
                start += size
            assert start == len(bases)


@PROPERTY_SETTINGS
@given(
    instance=instances,
    block_cells=st.sampled_from([1, 2, 3, 5, 8, 13, 40]),
    data=st.data(),
)
def test_chunked_grid_matches_the_whole_grid_and_the_oracles(instance, block_cells, data):
    seed, menu_sizes, num_targets, spread = instance
    matroid, cov = random_coverage(seed, menu_sizes, num_targets, spread)
    menus = matroid.menus
    alpha = data.draw(st.integers(0, matroid.num_robots))
    whole = plan_bruteforce_maxmin(matroid, cov, alpha)
    witness = oracles.curvature_witness_bruteforce(matroid.blocks, cov.evaluate)
    whole_curvature = None if witness is None else constrained_curvature(matroid, cov)

    with mock.patch.object(objectives, "BLOCK_CELLS", block_cells):
        for objective in (cov, helpers.SetFunction(cov.evaluate)):
            cap = block_cells // cov._words if objective is cov else block_cells
            assert_blocks_cut_c_order(objective, menus, cap)

            chunked = plan_bruteforce_maxmin(matroid, objective, alpha)
            assert chunked.selected == whole.selected
            assert repr(chunked.maxmin_value) == repr(whole.maxmin_value)
            if witness is None:
                with pytest.raises(DegenerateObjective):
                    constrained_curvature(matroid, objective)
            else:
                assert constrained_curvature(matroid, objective) == whole_curvature
        assert_grid_paths_match_the_oracles(matroid, cov, [alpha])


@pytest.mark.parametrize("block_cells", [1, 2, 5, objectives.BLOCK_CELLS])
def test_chunked_ties_go_to_the_first_basis(block_cells):
    # every basis ties: nothing is covered, or every rectangle covers
    # everything; the first basis of the first block must win
    matroid = PartitionMatroid({"r0": ["a", "b", "c"], "r1": ["d", "e"], "r2": ["f", "g"]})
    first = next(matroid.enumerate_bases())
    targets = [(0.5, 0.5), (0.6, 0.4), (0.2, 0.9)]
    for spot in (500.0, 0.0):
        rects = {tid: Rect(spot, spot + 1.0, spot, spot + 1.0) for tid in matroid.ground_set}
        cov = helpers.coverage(targets, rects)
        with mock.patch.object(objectives, "BLOCK_CELLS", block_cells):
            for alpha in range(4):
                plan = plan_bruteforce_maxmin(matroid, cov, alpha)
                assert plan.selected == first
                assert plan.maxmin_value == (3.0 if spot == 0.0 and alpha < 3 else 0.0)
            assert_grid_paths_match_the_oracles(matroid, cov, range(4))
            if spot == 0.0:
                report = constrained_curvature(matroid, cov)
                assert (report.witness_set, report.witness_element) == (first, "a")

    # ties whose first maximizer is not the first basis: a and d cover
    # nothing and every other rectangle covers everything, so the basis
    # must keep alpha + 1 covering robots, and the first such basis wins
    rects = {tid: Rect(0.0, 1.0, 0.0, 1.0) for tid in matroid.ground_set}
    rects["a"] = rects["d"] = Rect(500.0, 501.0, 500.0, 501.0)
    cov = helpers.coverage(targets, rects)
    want = ["adf", "aef", "bef", "adf"]
    with mock.patch.object(objectives, "BLOCK_CELLS", block_cells):
        for alpha in range(4):
            for objective in (cov, helpers.SetFunction(cov.evaluate)):
                plan = plan_bruteforce_maxmin(matroid, objective, alpha)
                assert plan.selected == frozenset(want[alpha])
                assert plan.maxmin_value == (3.0 if alpha < 3 else 0.0)
        assert_grid_paths_match_the_oracles(matroid, cov, range(4))


@pytest.mark.parametrize("alpha", [0, 1, 2, 4])
def test_counts_past_255_targets(alpha):
    # 900 targets (15 words); each robot covers one quadrant and a margin
    # of its neighbours', so every basis covers more targets than a uint8
    # holds and every robot's loss is partial
    rng = np.random.default_rng(4)
    blocks, rects = {}, {}
    for r, size in enumerate([3, 2, 3, 2]):
        blocks[f"r{r}"] = [f"r{r}:{k}" for k in range(size)]
        cx, cy = 2.5 + 5.0 * (r % 2), 2.5 + 5.0 * (r // 2)
        for tid in blocks[f"r{r}"]:
            x, y = rng.uniform(-0.5, 0.5, size=2) + (cx, cy)
            w, h = rng.uniform(2.5, 3.5, size=2)
            rects[tid] = Rect(x - w, x + w, y - h, y + h)
    matroid = PartitionMatroid(blocks)
    cov = helpers.coverage([tuple(p) for p in rng.uniform(0.0, 10.0, size=(900, 2))], rects)
    assert min(cov.evaluate(basis) for basis in matroid.enumerate_bases()) > 255
    assert 0.0 < constrained_curvature(matroid, cov).value < 1.0
    if alpha == 0:
        assert plan_bruteforce_maxmin(matroid, cov, alpha).maxmin_value > 255
    assert_grid_paths_match_the_oracles(matroid, cov, [alpha])


@pytest.mark.parametrize(
    "menu_sizes", [[1], [3], [1, 1, 1], [2, 1, 3], [1, 4, 1, 1]], ids=str
)
def test_one_robot_single_item_menus_and_every_robot_removed(menu_sizes):
    matroid, cov = random_coverage(8, menu_sizes, num_targets=120, spread=9.0)
    assert_grid_paths_match_the_oracles(matroid, cov, range(len(menu_sizes) + 1))


def test_exact_enumerations_leave_no_reference_cycles():
    # a cycle would hold the masks until the cyclic collector runs; each
    # call runs twice, the second one on the grid the first one kept
    matroid, cov = random_coverage(5, [4, 3, 4, 2], num_targets=100)
    gc.collect()
    gc.disable()
    try:
        for _ in range(2):
            plan_bruteforce_maxmin(matroid, cov, 2)
        for _ in range(2):
            constrained_curvature(matroid, cov)
        assert gc.collect() == 0
    finally:
        gc.enable()


def exact_answer(matroid, objective, call):
    """What the max-min at alpha ``call``, or the curvature, reports."""
    if call == "curvature":
        try:
            return constrained_curvature(matroid, objective)
        except DegenerateObjective:
            return "degenerate"
    plan = plan_bruteforce_maxmin(matroid, objective, call)
    return plan.selected, repr(plan.maxmin_value), plan.oracle_calls


@PROPERTY_SETTINGS
@given(
    instance=instances,
    block_cells=st.sampled_from([1, 3, 8, 40, 1 << 12]),
    data=st.data(),
)
def test_one_objective_asked_again_answers_as_a_fresh_one(instance, block_cells, data):
    seed, menu_sizes, num_targets, spread = instance
    matroid, cov = random_coverage(seed, menu_sizes, num_targets, spread)
    menus = matroid.menus
    alphas = range(matroid.num_robots + 1)
    calls = data.draw(st.permutations([*alphas, "curvature", "curvature"]))

    def assert_each_call_matches_a_fresh_objective():
        for call in calls:
            fresh = random_coverage(seed, menu_sizes, num_targets, spread)[1]
            assert exact_answer(matroid, cov, call) == exact_answer(matroid, fresh, call)

    assert_each_call_matches_a_fresh_objective()
    # a smaller cap after a grid kept at the default one: the blocks still
    # respect it and the answers do not change
    with mock.patch.object(objectives, "BLOCK_CELLS", block_cells):
        assert_blocks_cut_c_order(cov, menus, block_cells // cov._words)
        assert_each_call_matches_a_fresh_objective()
    assert_blocks_cut_c_order(cov, menus, objectives.BLOCK_CELLS // cov._words)
    assert_each_call_matches_a_fresh_objective()


def test_a_one_block_grid_is_laid_out_once_per_cap():
    matroid, cov = random_coverage(6, [3, 2, 4], num_targets=60)
    laid_out = mock.Mock(wraps=cov.menu_tables)
    with mock.patch.object(cov, "menu_tables", laid_out):
        for alpha in range(4):
            plan_bruteforce_maxmin(matroid, cov, alpha)
        constrained_curvature(matroid, cov)
        assert laid_out.call_count == 1
        # a cap that still holds the grid in one block is a new key
        with mock.patch.object(objectives, "BLOCK_CELLS", 24):
            plan_bruteforce_maxmin(matroid, cov, 1)
            constrained_curvature(matroid, cov)
        assert laid_out.call_count == 2
        # a grid of several blocks is laid out anew, block by block, each call
        with mock.patch.object(objectives, "BLOCK_CELLS", 8):
            plan_bruteforce_maxmin(matroid, cov, 1)
            assert laid_out.call_count == 5
            plan_bruteforce_maxmin(matroid, cov, 1)
            assert laid_out.call_count == 8
        # only the last one-block grid is kept
        plan_bruteforce_maxmin(matroid, cov, 1)
        assert laid_out.call_count == 9


def test_a_kept_grid_cannot_be_written():
    matroid, cov = random_coverage(7, [3, 2, 4, 2], num_targets=100)
    plan_bruteforce_maxmin(matroid, cov, 1)
    constrained_curvature(matroid, cov)
    (block,) = objectives.basis_grid(cov, matroid.menus)
    # the full union, which no removals and the curvature ask for, is the
    # last suffix, of every robot
    assert len(block._suffixes) == 4
    for array in (*block.tables, *block._suffixes):
        with pytest.raises(ValueError):
            array[...] = 0
        with pytest.raises(ValueError):
            np.bitwise_or(array, array, out=array)


def test_witness_skips_a_robot_of_zero_singletons_and_breaks_ties_in_order():
    # r0 covers nothing; every other trajectory covers two targets of its
    # own, so every ratio outside r0 is 1 and the first basis's r1 member
    # is the witness.  A zero singleton left as NaN would be argmin's pick.
    blocks = {"r0": ["a", "b"], "r1": ["c", "d", "e"], "r2": ["f", "g"]}
    matroid = PartitionMatroid(blocks)
    rects, targets = {"a": Rect(50, 51, 50, 51), "b": Rect(60, 61, 60, 61)}, []
    for k, tid in enumerate("cdefg"):
        rects[tid] = Rect(2 * k, 2 * k + 1, 0, 1)
        targets += [(2 * k + 0.25, 0.5), (2 * k + 0.75, 0.5)]
    cov = helpers.coverage(targets, rects)
    ratio, basis, member = oracles.curvature_witness_bruteforce(blocks, cov.evaluate)
    assert (ratio, basis, member) == (1.0, frozenset("acf"), "c")
    # singletons as Python ints (the count itself) and as floats
    assert type(cov.evaluate({"c"})) is int
    as_float = helpers.SetFunction(lambda members: float(cov.evaluate(members)))
    for block_cells in (objectives.BLOCK_CELLS, 1, 5):
        with mock.patch.object(objectives, "BLOCK_CELLS", block_cells):
            for objective in (cov, helpers.SetFunction(cov.evaluate), as_float):
                report = constrained_curvature(matroid, objective)
                assert (report.witness_set, report.witness_element) == (basis, member)
                assert report.value == 0.0
                assert report.skipped_zero_elements == ("a", "b")


@PROPERTY_SETTINGS
@given(instance=instances, block_cells=st.sampled_from([1, 2, 5, 40, objectives.BLOCK_CELLS]))
def test_grid_witness_is_the_stacked_ratio_rule(instance, block_cells):
    # a running per-basis least ratio with a strict < keeps the first robot
    # on ties, as the first argmin over the stacked (n, *block) ratios does;
    # integer counts tie often, and a wide spread leaves zero singletons
    seed, menu_sizes, num_targets, spread = instance
    matroid, cov = random_coverage(seed, menu_sizes, num_targets, spread)
    singleton = {tid: cov.evaluate((tid,)) for tid in matroid.ground_set}
    if not any(singleton.values()):
        return
    as_float = helpers.SetFunction(lambda members: float(cov.evaluate(members)))
    with mock.patch.object(objectives, "BLOCK_CELLS", block_cells):
        for objective in (cov, helpers.SetFunction(cov.evaluate), as_float):
            want = oracles.grid_witness_stacked(matroid, objective, singleton)
            assert analysis._grid_witness(matroid, objective, singleton) == want


def test_grid_witness_work_space_does_not_grow_with_the_robots():
    # 18 robots of two trajectories: one block of 2**18 bases, where the
    # stacked ratios alone took 18 floats per basis (36 MiB, a 42.5 MiB peak)
    matroid, cov = random_coverage(1, [2] * 18, 60)
    singleton = {tid: cov.evaluate((tid,)) for tid in matroid.ground_set}
    tracemalloc.start()
    try:
        witness = analysis._grid_witness(matroid, cov, singleton)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert witness == oracles.grid_witness_stacked(matroid, cov, singleton)

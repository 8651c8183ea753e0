"""Coverage counting, Gaussian expected detections, property checkers."""

import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
import oracles
from resilient_tracking import objectives
from resilient_tracking.errors import MissingCoverageRect
from resilient_tracking.geometry import Rect
from resilient_tracking.matroid import PartitionMatroid
from resilient_tracking.objectives import (
    CoverageCount,
    ExpectedDetections,
    check_monotone,
    check_submodular,
)
from resilient_tracking.simulation import SimConfig, run_rounds
from resilient_tracking.worlds import sample_instance


def normal_cdf(z):
    """The standard normal CDF at each of ``z``, as ``ExpectedDetections`` computes it."""
    return objectives._cdf_in_place(np.array(z, dtype=float))


def test_normal_cdf_reference_values():
    z = np.array([0.0, 1.959963984540054, -8.0, 8.0])
    cdf = objectives._cdf_in_place(z)
    # written over its argument, which is returned
    assert cdf is z
    assert cdf[0] == pytest.approx(0.5, abs=1e-15)
    assert cdf[1] == pytest.approx(0.975, abs=1e-12)
    assert cdf[2] < 1e-14
    assert cdf[3] > 1 - 1e-14


def test_normal_cdf_accuracy_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    zs = np.linspace(-8.0, 8.0, 1601)
    ours = normal_cdf(zs)
    for z, got in zip(zs, ours):
        want = float(mpmath.ncdf(mpmath.mpf(float(z))))
        assert abs(got - want) <= 1e-12


def test_scipy_is_imported_only_by_expected_detections():
    # scipy.special is most of the package's import time, so a one-step
    # suite and the bound suite, which score only coverage, never load it;
    # the first ExpectedDetections does, so the check is not vacuous
    script = """
import sys
import resilient_tracking, resilient_tracking.cli
from resilient_tracking.checks import run_bound_suite
from resilient_tracking.experiments import run_suite, spec_from_dict
spec = spec_from_dict({
    "protocol": "one-step", "num_robots": 3, "fov_side": 3.0, "fly_length": 7.0,
    "arena": [0, 10, 0, 10], "num_targets": [8], "alphas": [1], "trials": 1,
    "planners": ["resilient", "greedy"], "attackers": ["optimal", "greedy"],
    "master_seed": 42,
})
assert run_suite(spec) and len(run_bound_suite(5)) == 5
assert "scipy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))
resilient_tracking.ExpectedDetections([[0.0, 0.0]], [[1.0, 1.0]], ["a"], [[0, 1, 0, 1]])
assert "scipy.special" in sys.modules
"""
    paths = [str(Path(objectives.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=120)


def simple_rects():
    return {
        "a": Rect(0.0, 2.0, 0.0, 2.0),
        "b": Rect(1.0, 3.0, 0.0, 2.0),  # overlaps a
        "c": Rect(5.0, 6.0, 5.0, 6.0),  # disjoint
    }


def test_coverage_count_basics():
    targets = [(0.5, 0.5), (1.5, 1.5), (2.5, 0.5), (5.5, 5.5)]
    cov = helpers.coverage(targets, simple_rects())
    assert cov.evaluate(frozenset()) == 0
    assert cov.evaluate({"a"}) == 2
    assert cov.evaluate({"b"}) == 2
    assert cov.evaluate({"a", "b"}) == 3  # shared target counted once
    assert cov.evaluate({"a", "b", "c"}) == 4
    assert cov.evaluate({"a", "c"}) == 3
    # evaluate takes the union of its members directly; whatever iterable
    # they come in, the count is evaluate_all's on the one set
    for make in (
        lambda: (tid for tid in "cab"),
        lambda: ["a", "b", "a", "a"],
        lambda: frozenset({"b", "c"}),
        lambda: set(),
        lambda: (),
    ):
        value = cov.evaluate(make())
        assert type(value) is int
        assert value == cov.evaluate_all((make(),))[0]
    assert [cov.evaluate(m) for m in ((tid for tid in "cab"), ["a", "b", "a"], set())] == [4, 3, 0]


def test_coverage_count_boundary_is_inclusive():
    cov = helpers.coverage([(2.0, 2.0)], simple_rects())
    assert cov.evaluate({"a"}) == 1


def literal_masks(targets, rects):
    """One closed-rectangle test per (rectangle, target) pair."""
    masks = {}
    for tid, rect in rects.items():
        masks[tid] = 0
        for j, p in enumerate(targets):
            if helpers.contains(rect, p):
                masks[tid] |= 1 << j
    return masks


def test_coverage_masks_match_the_literal_contains_loop():
    # half-unit lattice targets land on rectangle edges and corners; 300
    # targets span several bytes and words of the packed masks
    rng = np.random.default_rng(5)
    rects = simple_rects()
    for k in range(20):
        lo = 0.5 * rng.integers(0, 12, size=2)
        size = 0.5 * rng.integers(0, 6, size=2)  # zero-width rectangles too
        rects[f"r{k}"] = Rect(lo[0], lo[0] + size[0], lo[1], lo[1] + size[1])
    targets = [tuple(0.5 * rng.integers(-1, 14, size=2)) for _ in range(300)]
    cov = helpers.coverage(targets, rects)
    assert cov._masks == literal_masks(targets, rects)
    assert any(0 < mask for mask in cov._masks.values())


def literal_menu_tables(masks, words, menus):
    """Each menu's masks as ``words`` little-endian uint64 words, word axis first."""
    packed = b"".join(masks[tid].to_bytes(8 * words, "little") for menu in menus for tid in menu)
    rows = np.frombuffer(packed, dtype="<u8").reshape(-1, words).T
    tables, stop = [], 0
    for r, menu in enumerate(menus):
        start, stop = stop, stop + len(menu)
        shape = (words,) + (1,) * r + (len(menu),) + (1,) * (len(menus) - r - 1)
        tables.append(rows[:, start:stop].reshape(shape))
    return tables


@pytest.mark.parametrize("num_targets", [1, 63, 64, 65, 130])
def test_packed_word_table_is_the_literal_int_packing(num_targets):
    # one to three words, a word filled exactly, and a last word holding
    # one target; menus in ground order, out of it, and over part of the
    # ground set, all gathered from the one (W, T) table
    rng = np.random.default_rng(num_targets)
    rects = {}
    for k in range(9):
        lo = 0.5 * rng.integers(0, 12, size=2)
        size = 0.5 * rng.integers(0, 8, size=2)
        rects[f"t{k}"] = Rect(lo[0], lo[0] + size[0], lo[1], lo[1] + size[1])
    targets = [tuple(0.5 * rng.integers(-1, 14, size=2)) for _ in range(num_targets)]
    # the last target, on a corner of t0, sets a bit of the last word
    targets[-1] = (rects["t0"].x_min, rects["t0"].y_min)
    cov = helpers.coverage(targets, rects)
    masks = literal_masks(targets, rects)
    words = -(-num_targets // 64)
    assert cov._masks == masks
    assert cov._words == words
    assert any(mask >> (64 * (words - 1)) for mask in masks.values())
    ids = list(rects)
    for menus in (
        [ids[0:3], ids[3:5], ids[5:9]],
        [ids[7:4:-1], [ids[0]], [ids[8], ids[2]]],
        [ids[4:6]],
    ):
        tables = cov.menu_tables(menus)
        want = literal_menu_tables(masks, words, menus)
        assert [t.shape for t in tables] == [t.shape for t in want]
        for table, literal in zip(tables, want):
            assert table.dtype == np.uint64
            assert table.tolist() == literal.tolist()
            with pytest.raises(ValueError):
                table[...] = 0
    with pytest.raises(ValueError):
        cov._table[...] = 0
    assert cov._masks == masks


def test_coverage_masks_with_no_targets_or_no_rects():
    cov = helpers.coverage([], simple_rects())
    assert cov._masks == {"a": 0, "b": 0, "c": 0}
    assert cov.evaluate({"a", "b", "c"}) == 0
    assert helpers.coverage([(1.0, 1.0)], {})._masks == {}


def test_coverage_value_bounded_by_target_count():
    rng = np.random.default_rng(12)
    inst = sample_instance(rng, 4, 12, 3.0, 7.0, helpers.ARENA)
    cov = CoverageCount(inst.targets, inst.ids, inst.bounds)
    for _ in range(100):
        size = int(rng.integers(0, len(inst.matroid.ground_set) + 1))
        members = rng.choice(inst.matroid.ground_set, size=size, replace=False)
        value = cov.evaluate(members)
        assert 0 <= value <= len(inst.targets)


def test_missing_rect_raises():
    cov = helpers.coverage([(0, 0)], simple_rects())
    with pytest.raises(MissingCoverageRect):
        cov.evaluate({"zzz"})
    # after known ids, from a generator
    with pytest.raises(MissingCoverageRect, match="zzz"):
        cov.evaluate(tid for tid in ("a", "b", "zzz", "c"))
    exp = helpers.expected([(0, 0, 1.0, 1.0)], simple_rects())
    with pytest.raises(MissingCoverageRect):
        exp.evaluate({"zzz"})
    for objective in (cov, exp):
        with pytest.raises(MissingCoverageRect, match="zzz"):
            objective.evaluate_all([("a",), ("a", "zzz")])
        # in the base or among the candidates, through each objective's own
        # methods or those it inherits from Objective
        for base, candidates in ((("a", "zzz"), ["b"]), (("a",), ["b", "zzz", "c"])):
            with pytest.raises(MissingCoverageRect, match="zzz"):
                objective.evaluate_extensions(base, candidates)
            with pytest.raises(MissingCoverageRect, match="zzz"):
                objective.best_extension(base, candidates)
        with pytest.raises(MissingCoverageRect, match="zzz"):
            objective.best_removal(["a", "zzz", "b"])
        # an unknown base id raises even with no candidates to score
        with pytest.raises(MissingCoverageRect, match="zzz"):
            objective.evaluate_extensions(("zzz",), [])
        with pytest.raises(MissingCoverageRect, match="zzz"):
            objective.best_extension(("zzz",), [])


def test_counting_oracle_counts_every_call():
    cov = helpers.coverage([(0.5, 0.5)], simple_rects())
    oracle = helpers.CountingOracle(cov)
    assert oracle.eval_count == 0
    oracle.evaluate({"a"})
    oracle.evaluate({"a"})
    oracle.evaluate(frozenset())
    assert oracle.eval_count == 3
    # the inherited questions are one evaluate per set they score
    oracle.evaluate_all([("b", "a"), ()])
    oracle.evaluate_extensions(("a",), ["b", "c"])
    oracle.best_extension(("c",), ["a"])
    oracle.best_removal(["c", "a"])
    assert oracle.eval_count == 10
    assert oracle.evaluated[3:] == [frozenset(s) for s in ("ab", "", "ab", "ac", "ca", "a", "c")]


def test_expected_detections_empty_and_order_invariance():
    rng = np.random.default_rng(42)
    beliefs = [(float(rng.uniform(0, 3)), float(rng.uniform(0, 3)), 0.8, 1.2) for j in range(5)]
    exp = helpers.expected(beliefs, simple_rects())
    assert exp.evaluate(frozenset()) == 0.0
    assert exp.evaluate(["a", "b", "c"]) == exp.evaluate(["c", "a", "b"])
    assert exp.evaluate(["a", "a", "b"]) == exp.evaluate(["a", "b"])


def test_expected_detections_centered_single_rect():
    # wide rect around a tight belief captures nearly all mass
    exp = helpers.expected([(1.0, 1.0, 0.1, 0.1)], {"a": Rect(0.0, 2.0, 0.0, 2.0)})
    value = exp.evaluate({"a"})
    assert 0.999999 < value <= 1.0


def test_expected_detections_union_less_than_sum_when_overlapping():
    exp = helpers.expected([(1.5, 1.0, 1.0, 1.0)], simple_rects())
    union = exp.evaluate({"a", "b"})
    separate = exp.evaluate({"a"}) + exp.evaluate({"b"})
    assert union < separate - 1e-6
    assert union <= 1.0


def test_expected_detections_matches_monte_carlo():
    rng = np.random.default_rng(99)
    rects = simple_rects()
    for case in range(20):
        belief = (
            float(rng.uniform(0, 4)),
            float(rng.uniform(0, 4)),
            float(rng.uniform(0.4, 1.5)),
            float(rng.uniform(0.4, 1.5)),
        )
        keys = ["a", "b", "c"][: int(rng.integers(1, 4))]
        exact = helpers.expected([belief], rects).evaluate(keys)
        p_hat, se = oracles.mc_union_mass(rng, *belief, [rects[k] for k in keys], 20000)
        assert abs(exact - p_hat) <= 5 * max(se, 1e-4)


def test_expected_detections_approaches_count_as_std_shrinks():
    rects = simple_rects()
    inside = [(0.5, 0.5), (5.5, 5.5)]
    outside = [(4.0, 4.0), (-2.0, -2.0)]
    beliefs = [(x, y, 1e-6, 1e-6) for x, y in inside + outside]
    exp = helpers.expected(beliefs, rects)
    targets = inside + outside
    count = helpers.coverage(targets, rects)
    for members in ({"a"}, {"c"}, {"a", "b", "c"}):
        assert exp.evaluate(members) == pytest.approx(count.evaluate(members), abs=1e-6)


def test_closed_loop_runs_past_the_old_set_size_cap():
    # 21 selected rectangles were past the former 20-rectangle limit of the
    # exponential union mass; the grid has no cap
    config = SimConfig(num_robots=21, num_targets=30, alpha=2, rounds=3, rng_seed=5)
    records = run_rounds(config)["optimal"]
    assert [r.round_index for r in records] == [1, 2, 3]
    for record in records:
        assert len(record.selected) == 21
        assert len(record.removed) == 2
        assert 0.0 <= record.f_attacked <= record.f_full <= config.num_targets


beliefs_strategy = st.lists(
    st.tuples(
        st.floats(-1.0, 5.0),
        st.floats(-1.0, 5.0),
        st.floats(0.05, 3.0),
        st.floats(0.05, 3.0),
    ),
    min_size=1,
    max_size=3,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.lists(helpers.boxes(), min_size=1, max_size=6),
    beliefs_strategy,
    st.data(),
)
def test_grid_union_matches_inclusion_exclusion(rect_list, beliefs, data):
    rects = {f"k{i}": r for i, r in enumerate(rect_list)}
    members = data.draw(st.sets(st.sampled_from(sorted(rects))))
    got = helpers.expected(beliefs, rects).evaluate(members)
    want = oracles.inclusion_exclusion_union_mass(beliefs, [rects[k] for k in members])
    assert abs(got - want) <= 1e-12


# Edges from a few shared values, both signed zeros and both infinities
# give shared, duplicate, touching and zero-width rectangles; the rest are
# arbitrary finite floats.
edge = st.one_of(
    st.sampled_from([-math.inf, -2.0, -0.0, 0.0, 0.5, 1.0, 3.5, math.inf]),
    st.floats(-50.0, 50.0),
)


@st.composite
def edge_boxes(draw):
    x0, x1 = sorted((draw(edge), draw(edge)))
    y0, y1 = sorted((draw(edge), draw(edge)))
    return (x0, x1, y0, y1)


# means far outside the rectangles, standard deviations from 1e-3 to 1e2
wide_beliefs = st.lists(
    st.tuples(
        st.floats(-1e3, 1e3),
        st.floats(-1e3, 1e3),
        st.floats(-3.0, 2.0).map(lambda e: 10.0**e),
        st.floats(-3.0, 2.0).map(lambda e: 10.0**e),
    ),
    min_size=1,
    max_size=6,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(edge_boxes(), min_size=1, max_size=8), wide_beliefs, st.data())
def test_expected_detections_is_bit_identical_to_the_literal_construction(
    box_list, beliefs, data
):
    ids = [f"k{i}" for i in range(len(box_list))]
    moments = np.array(beliefs).reshape(-1, 4)
    args = (moments[:, :2], moments[:, 2:], ids, np.array(box_list))
    got = ExpectedDetections(*args)
    want = oracles.LiteralExpectedDetections(*args)
    for members in [ids] + data.draw(st.lists(st.sets(st.sampled_from(ids)), max_size=5)):
        assert got.evaluate(members) == want.evaluate(members)


def edge_world(box_list, beliefs):
    """Ids, ``ExpectedDetections`` arguments, targets and their plain covers.

    The targets are the belief means and points on shared edge values;
    ``covers`` maps each id to the indices of the targets its box holds.
    """
    ids = [f"k{i}" for i in range(len(box_list))]
    moments = np.array(beliefs).reshape(-1, 4)
    targets = np.vstack([moments[:, :2], [(0.0, 0.0), (0.5, 1.0), (-2.0, 3.5)]])
    covers = {
        tid: {j for j, (x, y) in enumerate(targets.tolist()) if x0 <= x <= x1 and y0 <= y <= y1}
        for tid, (x0, x1, y0, y1) in zip(ids, box_list)
    }
    return ids, (moments[:, :2], moments[:, 2:], ids, np.array(box_list)), targets, covers


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(edge_boxes(), min_size=1, max_size=8), wide_beliefs, st.data())
def test_evaluate_all_is_bit_identical_to_evaluate(box_list, beliefs, data):
    # evaluate, evaluate_all on a list and on an iterator, and the generic
    # evaluate_all of a CountingOracle, against independent references: the
    # literal construction for expected
    # detections and a plain set-union count for coverage.  The same edges
    # and beliefs as the literal-construction test; targets at the belief
    # means and on shared edge values.  The empty set, sets with repeated
    # ids and any number of sets, painted in blocks of one row, a few rows
    # or the default size
    ids, args, targets, covers = edge_world(box_list, beliefs)
    sets = [(), tuple(ids), tuple(ids + ids)]
    sets += data.draw(st.lists(st.lists(st.sampled_from(ids), max_size=10), max_size=12))
    block_cells = data.draw(st.sampled_from([1, 40, objectives.BLOCK_CELLS]))
    for objective, reference in (
        (ExpectedDetections(*args), oracles.LiteralExpectedDetections(*args)),
        (CoverageCount(targets, ids, args[-1]), helpers.SetCover(covers)),
    ):
        want = [repr(reference.evaluate(members)) for members in sets]
        with mock.patch.object(objectives, "BLOCK_CELLS", block_cells):
            assert [repr(objective.evaluate(members)) for members in sets] == want
            assert [repr(v) for v in objective.evaluate_all(sets)] == want
            assert [repr(v) for v in objective.evaluate_all(iter(sets))] == want
            counting = helpers.CountingOracle(objective)
            assert [repr(v) for v in counting.evaluate_all(iter(sets))] == want
            assert counting.evaluated == [frozenset(members) for members in sets]


def test_evaluate_all_falls_back_to_one_evaluate_per_frozenset():
    # Objective's generic questions hand evaluate a frozenset of each set
    # they score, in order, whatever iterable the set came in
    seen = []
    objective = helpers.SetFunction(lambda s: seen.append(s) or len(s))
    assert objective.evaluate_all([("a", "b", "a"), (), ["c"]]) == [2, 0, 1]
    assert seen == [frozenset("ab"), frozenset(), frozenset("c")]
    seen.clear()
    assert objective.evaluate_extensions(("a", "a"), iter("ab")) == [1, 2]
    assert objective.best_extension(["b"], ["b", "a", "c"]) == (1, 2)
    assert objective.best_removal(iter("aab")) == (2, 1)
    assert seen == [frozenset(s) for s in ("a", "ab", "b", "ab", "bc", "ab", "ab", "a")]
    assert all(type(members) is frozenset for members in seen)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(edge_boxes(), min_size=1, max_size=8), wide_beliefs, st.data())
def test_evaluate_extensions_equals_evaluate_all_of_each_extension(box_list, beliefs, data):
    # CoverageCount's own extensions against a plain set-union count of
    # (*base, t), and every objective's extensions, its own or Objective's
    # generic ones, against evaluate_all of those sets; a CountingOracle,
    # which inherits the generic rule, scores exactly them, in order.  Empty bases and candidate lists, candidates
    # already in the base and ids repeated in either
    ids, args, targets, covers = edge_world(box_list, beliefs)
    coverage = CoverageCount(targets, ids, args[-1])
    expected = ExpectedDetections(*args)
    reference = helpers.SetCover(covers)
    cases = [((), ids), (tuple(ids), ids + ids), (tuple(ids[:1] * 3), []), ((), [])]
    cases.append(
        (
            tuple(data.draw(st.lists(st.sampled_from(ids), max_size=10))),
            data.draw(st.lists(st.sampled_from(ids), max_size=12)),
        )
    )
    for base, candidates in cases:
        sets = [(*base, tid) for tid in candidates]
        want = [repr(reference.evaluate(members)) for members in sets]
        assert [repr(v) for v in coverage.evaluate_extensions(base, iter(candidates))] == want
        for objective in (coverage, expected):
            counting = helpers.CountingOracle(objective)
            batched = [repr(v) for v in objective.evaluate_all(sets)]
            assert [repr(v) for v in objective.evaluate_extensions(base, candidates)] == batched
            assert [repr(v) for v in counting.evaluate_extensions(base, candidates)] == batched
            assert counting.evaluated == [frozenset(members) for members in sets]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(edge_boxes(), min_size=1, max_size=8), wide_beliefs, st.data())
# a block scored by a matrix product gives k0 0.2684249142758522 here,
# where the literal construction's dot product gives 0.26842491427585213
@example(
    [(-math.inf,) * 4] * 6 + [(-math.inf, -2.0, -math.inf, 0.0), (-math.inf, 0.0, -math.inf, -2.0)],
    [(0.0, 0.0, 1.0, 1.0), (0.0, 0.0, 1.0, 100.0)],
    helpers.Draws([], ["k0"], 40),
)
def test_expected_extensions_are_bit_identical_to_the_literal_construction(
    box_list, beliefs, data
):
    # ExpectedDetections paints the base into every row of a block and each
    # candidate into its own: its extensions and its best extension against
    # the literal construction's evaluate of each (*base, t), by repr.  The
    # empty base, a base with repeated ids and one of every id; candidate
    # lists with repeats and candidates already in the base; blocks of one
    # row, a few rows or the default size
    ids, args, _, _ = edge_world(box_list, beliefs)
    objective = ExpectedDetections(*args)
    reference = oracles.LiteralExpectedDetections(*args)
    drawn = st.lists(st.sampled_from(ids), max_size=10)
    bases = [(), tuple(ids[:1] * 3 + ids[1:2]), tuple(ids), tuple(data.draw(drawn))]
    candidates = data.draw(st.lists(st.sampled_from(ids), min_size=1, max_size=12))
    block_cells = data.draw(st.sampled_from([1, 40, objectives.BLOCK_CELLS]))
    for base in bases:
        values = [reference.evaluate((*base, tid)) for tid in candidates]
        want = [repr(v) for v in values]
        first = values.index(max(values))
        with mock.patch.object(objectives, "BLOCK_CELLS", block_cells):
            assert [repr(v) for v in objective.evaluate_extensions(base, candidates)] == want
            assert [repr(v) for v in objective.evaluate_extensions(base, iter(ids))] == [
                repr(reference.evaluate((*base, tid))) for tid in ids
            ]
            position, value = objective.best_extension(base, iter(candidates))
            assert (position, repr(value)) == (first, want[first])


def assert_first_best(choose, objective, sets, optimum):
    """``choose(f)``, for the objective and a ``CountingOracle`` of it, is
    the position of the first ``optimum`` (``max`` or ``min``) of
    ``evaluate_all`` on ``sets`` and the ``repr`` of its value; the oracle,
    which inherits ``Objective``'s generic rule, evaluates exactly
    ``sets``, in order.
    """
    values = objective.evaluate_all(sets)
    first = optimum(range(len(values)), key=values.__getitem__)
    counting = helpers.CountingOracle(objective)
    for f in (objective, counting):
        position, value = choose(f)
        assert (position, repr(value)) == (first, repr(values[first]))
    assert counting.evaluated == [frozenset(members) for members in sets]


def assert_best_extension(objective, base, candidates):
    sets = [(*base, tid) for tid in candidates]
    assert_first_best(lambda f: f.best_extension(base, candidates), objective, sets, max)


def assert_best_removal(objective, members):
    sets = [members[:i] + members[i + 1 :] for i in range(len(members))]
    assert_first_best(lambda f: f.best_removal(members), objective, sets, min)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(edge_boxes(), min_size=1, max_size=8), wide_beliefs, st.data())
def test_best_choices_are_the_first_optimum_of_evaluate_all(box_list, beliefs, data):
    # best_extension and best_removal, through CoverageCount's methods and
    # through Objective's generic ones (ExpectedDetections and every
    # CountingOracle),
    # against the first maximum or minimum of evaluate_all on the sets
    # (*base, t) and on the leave-one-out lists.  Repeated ids tie exactly,
    # so a choice that kept the last optimum would differ; candidates
    # already in the base, one candidate, one member
    ids, args, targets, _ = edge_world(box_list, beliefs)
    ids_drawn = st.lists(st.sampled_from(ids), min_size=1, max_size=10)
    extensions = [((), ids), (tuple(ids), ids + ids), (tuple(ids[:1] * 3), ids[:1])]
    extensions.append((tuple(data.draw(ids_drawn)), data.draw(ids_drawn)))
    removals = [ids, ids + ids, ids[::-1] + ids, ids[:1], ids[:1] * 3, data.draw(ids_drawn)]
    for objective in (CoverageCount(targets, ids, args[-1]), ExpectedDetections(*args)):
        for base, candidates in extensions:
            assert_best_extension(objective, base, candidates)
        for members in removals:
            assert_best_removal(objective, members)


def test_best_choices_break_exact_ties_by_first_position():
    # duplicate rectangles (a, b) tie exactly and z covers no target, so
    # its mask is zero; the coverage positions are worked out by hand
    rects = {
        "a": Rect(0.0, 2.0, 0.0, 2.0),
        "b": Rect(0.0, 2.0, 0.0, 2.0),
        "c": Rect(5.0, 6.0, 5.0, 6.0),
        "d": Rect(1.0, 6.0, 1.0, 1.5),
        "z": Rect(8.0, 9.0, 8.0, 9.0),
    }
    targets = [(1.0, 1.0), (5.5, 5.5), (3.0, 1.2)]
    cov = helpers.coverage(targets, rects)
    exp = helpers.expected([(x, y, 0.5, 0.5) for x, y in targets], rects)
    for objective in (cov, exp):
        for base, candidates in (
            ((), ["z", "a", "b", "c"]),
            (("a",), ["b", "z", "c", "d"]),
            (("z",), ["z"]),
            (("a", "c", "d"), ["z", "b", "a"]),
        ):
            assert_best_extension(objective, base, candidates)
        for members in (["a", "b", "c", "z"], ["z", "a", "b"], ["a"], ["a", "d", "c", "b"]):
            assert_best_removal(objective, members)
    assert cov.best_extension((), ["z", "a", "b", "c"]) == (1, 1)
    assert cov.best_extension(("a", "c", "d"), ["z", "b", "a"]) == (0, 3)
    assert cov.best_removal(["a", "b", "c", "z"]) == (2, 1)
    assert cov.best_removal(["z", "a", "b"]) == (0, 1)
    assert cov.best_removal(["a", "d", "c", "b"]) == (1, 2)
    assert cov.best_removal(["a"]) == (0, 0)


def test_best_choices_of_nothing_raise_value_error():
    # as max() and min() of nothing do, through CoverageCount's methods and
    # Objective's generic ones
    cov = helpers.coverage([(0.5, 0.5)], simple_rects())
    exp = helpers.expected([(0.5, 0.5, 1.0, 1.0)], simple_rects())
    bare = helpers.SetFunction(len)
    for objective in (cov, exp, bare, helpers.CountingOracle(cov), helpers.CountingOracle(exp)):
        with pytest.raises(ValueError):
            objective.best_extension(("a",), iter([]))
        with pytest.raises(ValueError):
            objective.best_removal([])
        with pytest.raises(ValueError):
            objective.best_removal(iter([]))


def test_vecdot_rows_equal_one_dot_per_row():
    # ExpectedDetections.evaluate_all relies on this: np.vecdot's float64
    # loop makes the same BLAS call per row that ndarray.dot makes, whatever
    # the row's place in the block; a matrix product block @ w does not
    rng = np.random.default_rng(20261018)
    for cells in (1, 9, 15, 16, 17, 33, 64, 225, 1001, 9801):
        weights = rng.random(cells) * 10.0 ** rng.integers(-6, 3, cells)
        block = (rng.random((24, cells)) < 0.5).astype(float)
        rows = [float(row.copy().dot(weights)) for row in block]
        assert np.vecdot(block, weights).tolist() == rows


def test_nan_coverage_bounds_are_refused_by_both_objectives():
    ids = ["a", "b"]
    for row in range(4):
        bounds = np.array([[0.0, 1.0, 0.0, 1.0], [2.0, 3.0, 2.0, 3.0]])
        bounds[1, row] = math.nan
        with pytest.raises(ValueError, match="trajectory 'b'"):
            ExpectedDetections([[0.5, 0.5]], [[1.0, 1.0]], ids, bounds)
        with pytest.raises(ValueError, match="trajectory 'b'"):
            CoverageCount([[0.5, 0.5]], ids, bounds)


def test_repeated_trajectory_ids_are_refused_by_both_objectives():
    # each objective keeps one rectangle per id, so a repeated id would
    # silently drop one of its rectangles: coverage of {'a'} below read 1
    # target, not 2, and the expected detections of a belief at (1, 1)
    # read 9.7e-19, not about 0.91
    with pytest.raises(ValueError, match="trajectory id 'a' is repeated"):
        CoverageCount([(1, 1), (5, 5)], ["a", "a"], [(0, 2, 0, 2), (4, 6, 4, 6)])
    with pytest.raises(ValueError, match="trajectory id 'a' is repeated"):
        ExpectedDetections([(1, 1)], [(1, 1)], ["a", "a"], [(0, 2, 0, 2), (4, 6, 4, 6)])
    # the first position whose id came before, in a list or a tuple
    bounds = np.array([[0.0, 1.0, 0.0, 1.0]] * 4)
    for ids, repeated in (
        (["b", "a", "a", "b"], "a"),
        (("a", "b", "c", "b"), "b"),
        (["c", "a", "b", "c"], "c"),
    ):
        with pytest.raises(ValueError, match=f"trajectory id '{repeated}' is repeated"):
            CoverageCount([[0.5, 0.5]], ids, bounds)
        with pytest.raises(ValueError, match=f"trajectory id '{repeated}' is repeated"):
            ExpectedDetections([[0.5, 0.5]], [[1.0, 1.0]], ids, bounds)


def test_infinite_coverage_bounds_still_evaluate():
    ids = ["half", "all"]
    bounds = [[-math.inf, math.inf, -math.inf, 0.0], [-math.inf, math.inf, -math.inf, math.inf]]
    exp = ExpectedDetections([[0.0, 0.0], [5.0, -3.0]], [[1.0, 1.0], [2.0, 0.5]], ids, bounds)
    assert exp.evaluate({"half"}) == pytest.approx(0.5 + normal_cdf(6.0).item(), abs=1e-12)
    assert exp.evaluate({"all"}) == 2.0
    assert exp.evaluate({"half", "all"}) == 2.0
    cov = CoverageCount([[0.0, 0.0], [5.0, 1.0], [1e300, -1e300]], ids, bounds)
    assert cov.evaluate({"half"}) == 2
    assert cov.evaluate({"all"}) == 3


@pytest.mark.parametrize(
    "layout",
    [
        [Rect(0.0, 4.0, 0.0, 4.0), Rect(1.0, 2.0, 1.0, 3.0)],  # nested
        [Rect(0.0, 2.0, 0.0, 2.0), Rect(2.0, 4.0, 0.0, 2.0)],  # shared side
        [Rect(0.0, 2.0, 0.0, 2.0), Rect(2.0, 3.0, 2.0, 3.0)],  # shared corner
        [Rect(0.0, 2.0, 0.0, 2.0), Rect(1.0, 1.0, -1.0, 3.0)],  # zero width
        [Rect(0.0, 1.0, 0.0, 1.0), Rect(3.0, 4.0, 3.0, 4.0)],  # disjoint
        [Rect(0.0, 2.0, 0.0, 2.0), Rect(0.0, 2.0, 0.0, 2.0)],  # duplicate
    ],
    ids=["nested", "shared-side", "shared-corner", "zero-width", "disjoint", "duplicate"],
)
def test_grid_union_on_degenerate_layouts(layout):
    beliefs = [(1.5, 1.0, 0.7, 1.3), (3.0, 3.5, 0.4, 0.4)]
    rects = dict(zip("ab", layout))
    exp = helpers.expected(beliefs, rects)
    assert exp.evaluate(frozenset()) == 0.0
    for members in ({"a"}, {"b"}, {"a", "b"}):
        want = oracles.inclusion_exclusion_union_mass(beliefs, [rects[k] for k in members])
        assert abs(exp.evaluate(members) - want) <= 1e-12
    if layout[1].x_min == layout[1].x_max:
        assert exp.evaluate({"b"}) == 0.0
        assert exp.evaluate({"a", "b"}) == exp.evaluate({"a"})


def test_grid_union_ignores_set_and_menu_order():
    rng = np.random.default_rng(17)
    inst = sample_instance(rng, 5, 20, 3.0, 7.0, helpers.ARENA)
    beliefs = [
        (x, y, float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.2, 2.0)))
        for x, y in inst.targets.tolist()
    ]
    rects = helpers.rects_of(inst)
    reversed_rects = dict(reversed(list(rects.items())))
    for _ in range(30):
        size = int(rng.integers(0, len(inst.matroid.ground_set) + 1))
        members = list(rng.choice(inst.matroid.ground_set, size=size, replace=False))
        forward = helpers.expected(beliefs, rects).evaluate(members)
        backward = helpers.expected(beliefs, reversed_rects).evaluate(members[::-1])
        assert forward == backward


def property_world(seed=20260815):
    rng = np.random.default_rng(seed)
    return sample_instance(rng, 4, 15, 3.0, 7.0, helpers.ARENA)


def test_coverage_is_monotone_and_submodular():
    inst = property_world()
    cov = CoverageCount(inst.targets, inst.ids, inst.bounds)
    assert check_monotone(cov, inst.matroid, 300, rng_seed=1) == []
    assert check_submodular(cov, inst.matroid, 300, rng_seed=2) == []


def test_expected_detections_is_monotone_and_submodular():
    rng = np.random.default_rng(8)
    inst = sample_instance(rng, 2, 8, 3.0, 7.0, helpers.ARENA)
    beliefs = [
        (x, y, float(rng.uniform(0.3, 1.5)), float(rng.uniform(0.3, 1.5)))
        for x, y in inst.targets.tolist()
    ]
    exp = helpers.expected(beliefs, helpers.rects_of(inst))
    assert check_monotone(exp, inst.matroid, 300, rng_seed=3) == []
    assert check_submodular(exp, inst.matroid, 300, rng_seed=4) == []


def test_negative_controls_trip_the_checkers():
    inst = property_world()
    decreasing = helpers.SetFunction(lambda s: -len(s))
    supermodular = helpers.SetFunction(lambda s: float(len(s)) ** 2)
    monotone_hits = check_monotone(decreasing, inst.matroid, 200, rng_seed=5)
    assert len(monotone_hits) == 200  # strictly nested pairs always violate
    submodular_hits = check_submodular(supermodular, inst.matroid, 200, rng_seed=6)
    assert len(submodular_hits) == 200
    assert all(v.kind == "monotone" for v in monotone_hits)
    assert all(v.kind == "submodular" for v in submodular_hits)


def test_violation_records_carry_the_witness():
    matroid = PartitionMatroid({"r0": ["a"], "r1": ["b"]})
    hits = check_monotone(helpers.SetFunction(lambda s: -len(s)), matroid, 50, rng_seed=9)
    for v in hits:
        assert v.smaller < v.larger
        assert v.lhs > v.rhs


def test_belief_validation():
    with pytest.raises(ValueError):
        helpers.expected([(0, 0, 0.0, 1.0)], simple_rects())
    with pytest.raises(ValueError):
        helpers.expected([(0, 0, 1.0, -1.0)], simple_rects())
    # one check covers every row: a bad belief after good ones, a
    # non-finite spread, a non-finite mean
    for bad in ((0, 0, 1.0, float("inf")), (0, 0, float("nan"), 1.0), (float("nan"), 0, 1.0, 1.0)):
        with pytest.raises(ValueError):
            helpers.expected([(1, 1, 1.0, 1.0), bad], simple_rects())

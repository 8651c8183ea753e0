"""Partition matroid: independence, bases, enumeration order, caps."""

import itertools
import math

import numpy as np
import pytest

from resilient_tracking.errors import EnumerationCapExceeded
from resilient_tracking.matroid import PartitionMatroid, require_enumerable


def two_by_two():
    return PartitionMatroid({"r0": ["a0", "a1"], "r1": ["b0", "b1"]})


def test_independence_basics():
    m = two_by_two()
    assert m.is_independent([])
    assert m.is_independent(["a0"])
    assert m.is_independent(["a0", "b1"])
    assert not m.is_independent(["a0", "a1"])
    assert not m.is_independent(["a0", "a1", "b0"])


def test_basis_requires_exactly_one_per_robot():
    m = two_by_two()
    assert m.is_basis(["a0", "b0"])
    assert not m.is_basis(["a0"])
    assert not m.is_basis(["a0", "a1"])


def test_enumerate_bases_counts():
    assert len(list(two_by_two().enumerate_bases())) == 4
    single = PartitionMatroid({"r0": ["a0"]})
    assert list(single.enumerate_bases()) == [frozenset(["a0"])]
    big = PartitionMatroid(
        {f"r{i}": [f"r{i}:t{j}" for j in range(4)] for i in range(6)}
    )
    bases = list(big.enumerate_bases())
    assert len(bases) == 4096
    assert len(set(bases)) == 4096


def test_enumeration_is_lexicographic_and_exhaustive():
    m = PartitionMatroid({"r1": ["y0", "y1"], "r0": ["x0", "x1", "x2"]})
    # robots sort to (r0, r1) regardless of construction order
    assert m.robots == ("r0", "r1")
    assert m.ground_set == ("x0", "x1", "x2", "y0", "y1")
    got = [tuple(sorted(b, key=m.index.__getitem__)) for b in m.enumerate_bases()]
    want = [
        (x, y) for x in ("x0", "x1", "x2") for y in ("y0", "y1")
    ]
    assert got == want


def test_menus_are_the_robots_menus_in_robot_order():
    m = PartitionMatroid({"r1": ["y0", "y1"], "r0": ["x0", "x1", "x2"], "r2": ["z0"]})
    assert m.menus == (("x0", "x1", "x2"), ("y0", "y1"), ("z0",))
    assert type(m.menus) is tuple and all(type(menu) is tuple for menu in m.menus)
    assert m.menus == tuple(m.blocks[robot] for robot in m.robots)
    assert list(m.enumerate_bases()) == [frozenset(c) for c in itertools.product(*m.menus)]


def test_every_basis_is_independent_and_downward_closed():
    rng = np.random.default_rng(5)
    m = PartitionMatroid(
        {f"r{i}": [f"r{i}:t{j}" for j in range(3)] for i in range(4)}
    )
    for basis in m.enumerate_bases():
        assert m.is_basis(basis)
        members = sorted(basis)
        for size in range(len(members) + 1):
            subset = rng.choice(members, size=size, replace=False)
            assert m.is_independent(list(subset))


def test_supersets_of_dependent_sets_stay_dependent():
    m = two_by_two()
    for extra in (["b0"], ["b1"], ["b0", "b1"]):
        assert not m.is_independent(["a0", "a1"] + extra)


def test_enumeration_cap():
    m = PartitionMatroid(
        {f"r{i}": [f"r{i}:t{j}" for j in range(10)] for i in range(7)}
    )
    with pytest.raises(EnumerationCapExceeded):
        m.enumerate_bases()
    # exact up to the cap, 10**6 included; past it the error names what was counted
    for sizes, choose in [
        ((4,) * 6, (0, 0)), ((2, 3), (9, 4)), ((), (23, 9)), ((), (23, 14)),
        ((1,), (5, 5)), ((10,) * 6, (1, 1)),
    ]:
        want = math.prod(sizes) * math.comb(*choose)
        assert require_enumerable("sets", sizes, choose) == want
    for sizes, choose in [((10,) * 7, (0, 0)), ((), (23, 10)), ((4,) * 8, (8, 2))]:
        with pytest.raises(EnumerationCapExceeded, match="^sets exceed the enumeration cap"):
            require_enumerable("sets", sizes, choose)


def test_ground_index_tracks_canonical_order():
    m = two_by_two()
    assert [m.index[t] for t in m.ground_set] == [0, 1, 2, 3]
    assert sorted(["b1", "a0", "a1"], key=m.index.__getitem__) == ["a0", "a1", "b1"]
    assert m.robot_of("b1") == "r1"
    assert m.owner == {t: m.robot_of(t) for t in m.ground_set}


def test_malformed_blocks_rejected():
    with pytest.raises(ValueError):
        PartitionMatroid({})
    with pytest.raises(ValueError):
        PartitionMatroid({"r0": []})
    with pytest.raises(ValueError):
        PartitionMatroid({"r0": ["a", "a"]})
    with pytest.raises(ValueError):
        PartitionMatroid({"r0": ["a"], "r1": ["a"]})
    m = two_by_two()
    with pytest.raises(ValueError):
        m.is_independent(["nope"])

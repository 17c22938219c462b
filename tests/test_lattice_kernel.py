"""The lattice layer's integer kernel against naive formulas.

pair, c1 and omega_area read data each lattice derives once (diagonal and
off-diagonal Gram entries, the vector -K.Q, integer area numerators over a
common denominator, a cached hash and b2+).  The tests here recompute
everything from the lattice's fields with the textbook formulas, count
positive eigenvalues by an independent route, and pin the semantics of
the caches under equality, copies and pickling.
"""

from __future__ import annotations

import copy
import json
import os
import pickle
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from gromov4 import (
    CoordinateError,
    HClass,
    IntersectionLattice,
    LatticeMismatchError,
    b2_plus,
    c1,
    in_forward_cone,
    load_model,
    omega_area,
    pair,
    preset,
)
from gromov4.lattice import _positive_index

SRC = Path(__file__).resolve().parents[1] / "src"

PRESETS = (
    "cp2",
    "cp2_blowup(1)",
    "cp2_blowup(2)",
    "cp2_blowup(3)",
    "cp2_blowup(9)",
    "s2xs2",
    "s2xt2",
    "elliptic(1)",
    "elliptic(2)",
    "elliptic(3)",
)


# --- naive formulas, read off the lattice's fields ---------------------------------


def naive_pair(lat, a, b):
    n = lat.rank
    return sum(a[i] * lat.gram[i][j] * b[j] for i in range(n) for j in range(n))


def naive_c1(lat, a):
    return -naive_pair(lat, lat.canonical, a)


def naive_area(lat, a):
    return sum((Fraction(w) * x for w, x in zip(lat.area, a)), start=Fraction(0))


def check_against_naive(lat, a, b):
    A, B = lat.class_from_coords(a), lat.class_from_coords(b)
    assert pair(A, B) == naive_pair(lat, a, b)
    assert pair(A, A) == naive_pair(lat, a, a)
    assert c1(A) == naive_c1(lat, a)
    w = omega_area(A)
    assert type(w) is Fraction
    assert w == naive_area(lat, a)
    sq = naive_pair(lat, a, a)
    assert in_forward_cone(A) == (sq >= 0 and w >= 0)
    assert in_forward_cone(A, strict=True) == (sq > 0 and w > 0)


def coords_for(rank):
    return st.lists(st.integers(min_value=-7, max_value=7), min_size=rank, max_size=rank)


DIAGONAL = ("cp2", "cp2_blowup(1)", "cp2_blowup(3)", "cp2_blowup(9)")
NON_DIAGONAL = ("s2xs2", "s2xt2", "elliptic(1)", "elliptic(3)")


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_kernel_matches_naive_formulas_on_presets(data):
    name = data.draw(st.sampled_from(DIAGONAL + NON_DIAGONAL))
    lat = preset(name).lattice
    check_against_naive(lat, data.draw(coords_for(lat.rank)), data.draw(coords_for(lat.rank)))


# Areas with mixed denominators, zero and negative entries: the sign tests
# read the integer numerator, so its denominator must not flip or hide a sign.
AREA_ENTRY = st.one_of(
    st.just(0),
    st.integers(min_value=-4, max_value=4),
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_kernel_matches_naive_formulas_after_area_replace(data):
    name = data.draw(st.sampled_from(("cp2_blowup(2)", "s2xs2", "elliptic(3)", "cp2_blowup(3)")))
    base = preset(name).lattice
    area = data.draw(st.lists(AREA_ENTRY, min_size=base.rank, max_size=base.rank))
    lat = replace(base, area=tuple(area))
    check_against_naive(lat, data.draw(coords_for(lat.rank)), data.draw(coords_for(lat.rank)))


def test_replaced_area_edge_cases():
    base = preset("cp2_blowup(2)").lattice
    zero = replace(base, area=(0, 0, 0))
    A = zero.class_from_coords((1, 2, -3))
    assert omega_area(A) == 0 and type(omega_area(A)) is Fraction
    assert in_forward_cone(zero.class_from_coords((1, 0, 0)))
    assert not in_forward_cone(zero.class_from_coords((1, 0, 0)), strict=True)
    mixed = replace(base, area=(Fraction(1, 2), Fraction(3, 4), "-5/6"))
    B = mixed.class_from_coords((3, -2, 0))
    assert pair(B, B) == 5 and omega_area(B) == 0  # 3/2 - 3/2
    assert in_forward_cone(B) and not in_forward_cone(B, strict=True)
    assert omega_area(mixed.class_from_coords((1, 0, 0))) == Fraction(1, 2)
    assert not in_forward_cone(mixed.class_from_coords((-1, 0, 0)))  # square 1, area -1/2
    assert omega_area(mixed.class_from_coords((0, 1, 1))) == Fraction(-1, 12)
    negative = replace(base, area=(-3, -1, -1))
    assert not in_forward_cone(negative.class_from_coords((1, 0, 0)))


@st.composite
def dense_lattices(draw):
    """A random symmetric Gram with even diagonal and K = 2v, so K is
    characteristic; most off-diagonal entries are nonzero."""
    n = draw(st.integers(min_value=1, max_value=6))
    entries = st.integers(min_value=-3, max_value=3)
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        gram[i][i] = 2 * draw(entries)
        for j in range(i + 1, n):
            gram[i][j] = gram[j][i] = draw(entries)
    K = tuple(2 * x for x in draw(st.lists(entries, min_size=n, max_size=n)))
    area = tuple(draw(st.lists(AREA_ENTRY, min_size=n, max_size=n)))
    basis = tuple(f"e{i}" for i in range(n))
    return IntersectionLattice("dense", basis, tuple(map(tuple, gram)), K, area)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_kernel_matches_naive_formulas_on_dense_grams(data):
    lat = data.draw(dense_lattices())
    check_against_naive(lat, data.draw(coords_for(lat.rank)), data.draw(coords_for(lat.rank)))


# --- b2+ against Descartes' rule on the characteristic polynomial ------------------


def char_poly(m):
    """Coefficients c_0..c_n of det(x I - m), by Faddeev-LeVerrier.  For an
    integer matrix every step stays integral: the trace is divisible by k."""
    n = len(m)
    c = [0] * n + [1]
    M = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        AM = [[sum(m[i][t] * M[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
        M = [[AM[i][j] + (c[n - k + 1] if i == j else 0) for j in range(n)] for i in range(n)]
        AM = [[sum(m[i][t] * M[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
        trace = sum(AM[i][i] for i in range(n))
        assert trace % k == 0
        c[n - k] = -trace // k
    return c


def positive_roots_by_descartes(coeffs):
    """Positive roots of a real-rooted polynomial, with multiplicity: after
    the zero roots are divided out, Descartes' bound is exact."""
    i = 0
    while coeffs[i] == 0:
        i += 1
    signs = [x > 0 for x in coeffs[i:] if x != 0]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def test_char_poly_hand_values():
    assert char_poly([[0, 1], [1, 0]]) == [-1, 0, 1]  # x^2 - 1
    assert char_poly([[2, 0], [0, 3]]) == [6, -5, 1]
    assert positive_roots_by_descartes([0, 0, -1, 0, 1]) == 1  # x^2 (x^2 - 1)
    assert positive_roots_by_descartes([6, -5, 1]) == 2


@st.composite
def symmetric_matrices(draw):
    """Entries in [-3, 3]; the diagonal is zero half the time, so zero
    pivots and hyperbolic blocks come up often."""
    n = draw(st.integers(min_value=1, max_value=6))
    entry = st.integers(min_value=-3, max_value=3)
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = draw(st.one_of(st.just(0), entry))
        for j in range(i + 1, n):
            m[i][j] = m[j][i] = draw(entry)
    return m


@settings(max_examples=300, deadline=None)
@given(symmetric_matrices())
@example([[0, 1], [1, 0]])
@example([[0, 0, 2], [0, 0, 0], [2, 0, 0]])
@example([[0, 1, 0], [1, 0, 0], [0, 0, -1]])
def test_positive_index_matches_descartes_count(m):
    assert _positive_index(m) == positive_roots_by_descartes(char_poly(m))


def test_cached_b2_plus_matches_fresh_computation_on_presets():
    for name in PRESETS:
        lat = preset(name).lattice
        want = lat.b2plus_override
        if want is None:
            want = _positive_index(lat.gram)
        assert b2_plus(lat) == want
        assert b2_plus(lat) == want  # the second call reads the cache
        plain = replace(lat, b2plus_override=None)
        assert b2_plus(plain) == _positive_index(lat.gram)


# --- equality, hashing and copies ----------------------------------------------------


MODEL_DOC = {
    "name": "custom",
    "basis": ["L", "E1"],
    "gram": [[1, 0], [0, -1]],
    "K": [-3, 1],
    "area": ["3", "1/2"],
    "exceptional": ["E1"],
    "sphere_table": [{"class": "L", "count": 1}, {"class": "L-E1", "count": 1}],
}


def equal_distinct_pairs(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(MODEL_DOC), encoding="utf-8")
    yield preset("cp2_blowup(2)"), preset("cp2_blowup(2)")
    yield preset("elliptic(3)"), preset("elliptic(3)")
    yield load_model(path), load_model(path)


def test_equal_distinct_lattices_share_classes(tmp_path):
    for m1, m2 in equal_distinct_pairs(tmp_path):
        assert m1.lattice is not m2.lattice
        assert m1.lattice == m2.lattice and hash(m1.lattice) == hash(m2.lattice)
        for expr in m1.lattice.basis:
            A1, A2 = m1.parse(expr), m2.parse(expr)
            assert A1 == A2 and hash(A1) == hash(A2)
            table = {A1: "first"}
            table[A2] = "second"
            assert table == {A1: "second"}
            assert pair(A1, A2) == pair(A1, A1)
            assert (A1 + A2).coords == (2 * A1).coords
        assert set(m1.sphere_table) == set(m2.sphere_table)
        assert all(m2.sphere_table[A] == v for A, v in m1.sphere_table.items())


def test_lattices_differing_in_area_or_override_do_not_mix():
    lat = preset("cp2_blowup(2)").lattice
    others = (
        replace(lat, area=(3, 1, 2)),
        replace(lat, area=(Fraction(6, 2), 1, Fraction(3, 2))),
        replace(lat, b2plus_override=1),
        replace(lat, b2plus_override=2),
    )
    A = lat.basis_class(1)
    for other in others:
        assert other != lat and lat != other
        B = other.basis_class(1)
        assert A != B
        with pytest.raises(LatticeMismatchError):
            pair(A, B)
        with pytest.raises(LatticeMismatchError):
            A + B
    same = replace(lat, area=(Fraction(6, 2), Fraction(2, 2), 1))
    assert same == lat and hash(same) == hash(lat)


def _tampered(lat):
    """lat with every derived cache overwritten by a wrong value."""
    for attr, value in (("_hash", 12345), ("_b2plus", 99), ("_c1", (0,) * lat.rank)):
        object.__setattr__(lat, attr, value)
    return lat


@pytest.mark.parametrize(
    "rebuild",
    [
        lambda lat: replace(lat),
        copy.copy,
        copy.deepcopy,
        lambda lat: pickle.loads(pickle.dumps(lat)),
    ],
    ids=["replace", "copy", "deepcopy", "pickle"],
)
def test_copies_rebuild_the_derived_caches(rebuild):
    fresh = preset("cp2_blowup(3)").lattice
    copied = rebuild(_tampered(preset("cp2_blowup(3)").lattice))
    assert hash(copied) == hash(fresh)
    assert b2_plus(copied) == 1
    L = copied.basis_class(0)
    assert c1(L) == 3 and c1(L) == c1(fresh.basis_class(0))
    assert copied == fresh and {fresh.basis_class(0): 1}[L] == 1


def test_pickled_model_from_another_hash_seed_keys_like_a_local_one():
    script = (
        "import pickle, sys; from gromov4 import preset; "
        "sys.stdout.buffer.write(pickle.dumps(preset('cp2_blowup(2)')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="12345"),
    ).stdout
    remote = pickle.loads(out)
    local = preset("cp2_blowup(2)")
    assert hash(remote.lattice) == hash(local.lattice)
    for A in local.sphere_table:
        assert remote.sphere_table[A] == local.sphere_table[A]
    E1 = local.parse("E1")
    assert E1 in remote.exceptional and pair(remote.parse("E1"), E1) == -1


# --- class coordinates ----------------------------------------------------------------


@pytest.mark.parametrize(
    "bad, index",
    [
        ((2.7, 1, 0), 0),
        ((2, True, 0), 1),
        ((2, 1, False), 2),
        ((Fraction(7, 2), 1, 0), 0),
        ((2, Fraction(2), 0), 1),
        ((2, 1, "0"), 2),
        ((2, 1, None), 2),
    ],
)
def test_non_integer_coordinates_are_rejected(bad, index):
    lat = preset("cp2_blowup(2)").lattice
    for build in (lambda: lat.class_from_coords(list(bad)), lambda: HClass(bad, lat)):
        with pytest.raises(CoordinateError) as info:
            build()
        assert isinstance(info.value, ValueError)
        assert info.value.index == index
        assert f"coordinate {index}" in str(info.value)


def test_an_int_subclass_is_an_integer_coordinate():
    class Count(int):
        pass

    lat = preset("cp2_blowup(2)").lattice
    A = HClass((Count(2), 1, 0), lat)
    assert A == lat.class_from_coords((2, 1, 0)) and A.coords[0] == 2


def test_coordinate_lists_become_tuples():
    lat = preset("cp2_blowup(2)").lattice
    A = HClass([3, -1, 0], lat)
    assert A.coords == (3, -1, 0) and type(A.coords) is tuple
    assert lat.class_from_coords([3, -1, 0]) == A
    assert hash(lat.class_from_coords(x for x in (3, -1, 0))) == hash(A)
    with pytest.raises(CoordinateError) as info:
        HClass([1, 2], lat)
    assert info.value.index is None

"""The per-model table of exceptional pairings against pairing every time.

A model keeps one sparse table of its stored exceptional classes: the
nonzero entries e_i.E of each covector and the nonzero coordinates of each
E.  k', goodness, m_E and the reduction read it instead of calling
pair(A, E).  The tests here compare them with bench/refs.py, which pairs
afresh on every call, count the pair calls the table costs, and check that
copies and pickles of a model rebuild it.
"""

from __future__ import annotations

import copy
import pickle
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gromov4 import (
    IntersectionLattice,
    LatticeMismatchError,
    ManifoldModel,
    ReductionConsistencyWarning,
    invariants,
    is_good_class,
    k,
    k_prime,
    lattice,
    m_e,
    preset,
    reduce_multicovers,
)
import oracle


def _s2xs2_blown_up_twice() -> ManifoldModel:
    """S^2 x S^2 # 2 CP2-bar with exceptional E1, E2; A1 - E1 pairs with the
    Gram neighbour A2 of A1, so its covector has an entry off its support."""
    lat = IntersectionLattice(
        name="s2xs2#2",
        basis=("A1", "A2", "E1", "E2"),
        gram=((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1)),
        canonical=(-2, -2, 1, 1),
        area=(Fraction(2), Fraction(2), Fraction(1), Fraction(1)),
    )
    return ManifoldModel(lat, exceptional=(lat.parse("E1"), lat.parse("E2")))


def _families():
    """Lists of models on equal lattices; a class of any of their lattices
    is queried on every model of its list."""
    out = [[preset(f"cp2_blowup({n})")] for n in range(1, 17)]
    b3 = preset("cp2_blowup(3)")
    out.append([b3, b3.with_exceptional(b3.parse("L - E1 - E2")), preset("cp2_blowup(3)")])
    base = _s2xs2_blown_up_twice()
    out.append([base, base.with_exceptional(base.parse("A1 - E1")), _s2xs2_blown_up_twice()])
    # Exceptional classes from an equal lattice that is another object.
    other = _s2xs2_blown_up_twice().lattice
    out.append([ManifoldModel(base.lattice, exceptional=(other.parse("E2"), other.parse("A1 - E1")))])
    return out


FAMILIES = _families()


def observed(model, A):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        red = reduce_multicovers(model, A)
    warns = any(issubclass(w.category, ReductionConsistencyWarning) for w in caught)
    ms = [m_e(model, A, E) for E in model.exceptional]
    return k_prime(model, A), is_good_class(model, A), ms, tuple(red), warns


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_table_matches_pairing_every_time(data):
    family = data.draw(st.sampled_from(FAMILIES))
    lat = data.draw(st.sampled_from([m.lattice for m in family]))
    coord = st.one_of(st.integers(-4, 4), st.integers(-10**20, 10**20))
    classes = data.draw(
        st.lists(st.lists(coord, min_size=lat.rank, max_size=lat.rank), min_size=1, max_size=3)
    )
    order = data.draw(st.lists(st.sampled_from(family), min_size=1, max_size=2 * len(family)))
    for coords in classes:
        A = lat.class_from_coords(coords)
        for model in order:
            want = oracle.invariants(model, A)[1:6]
            assert observed(model, A) == want  # cold on this model's tuple
            assert observed(model, A) == want  # warm


def test_reduction_by_sparse_rows_on_hand_values():
    m = _s2xs2_blown_up_twice().with_exceptional(_s2xs2_blown_up_twice().parse("A1 - E1"))
    A = m.parse("A1 + 3A2 + 2E1 + 4E2")  # A.E1 = -2, A.E2 = -4, A.(A1-E1) = 3 + 2 = 5
    assert lattice._exceptional_pairings(m, A) == (-2, -4, 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        B, strips = reduce_multicovers(m, A)
    assert B == m.parse("A1 + 3A2") and [n for _, n in strips] == [2, 4]
    assert lattice._exceptional_table(m) == (
        ((0, 2, -1), (1, 3, -1), (2, 1, 1), (2, 2, 1)),
        (((2, 1),), ((3, 1),), ((0, 1), (2, -1))),
    )


def test_class_from_another_lattice_names_its_lattice_first():
    m = preset("cp2_blowup(3)")
    A = preset("cp2_blowup(2)").parse("L - 2E1")
    want = "classes live in different lattices (cp2_blowup(2) vs cp2_blowup(3))"
    for query in (
        lambda: k_prime(m, A),
        lambda: is_good_class(m, A),
        lambda: m_e(m, A, m.exceptional[0]),
        lambda: reduce_multicovers(m, A),
    ):
        with pytest.raises(LatticeMismatchError) as err:
            query()
        assert str(err.value) == want


def test_class_from_another_lattice_on_a_model_without_exceptional_classes():
    m = preset("cp2")
    A = preset("s2xs2").parse("A1+A2")
    assert m.minimal and not m.exceptional
    for query in (k_prime, is_good_class, reduce_multicovers):
        with pytest.raises(LatticeMismatchError) as err:
            query(m, A)
        assert str(err.value) == "classes live in different lattices (s2xs2 vs cp2)"


@pytest.fixture
def pair_calls(monkeypatch):
    calls = []
    original = lattice.pair

    def counted(A, B):
        calls.append((A, B))
        return original(A, B)

    monkeypatch.setattr(lattice, "pair", counted)
    return calls


@pytest.mark.parametrize("n", [1, 2, 5, 16, 64])
def test_first_k_prime_pairs_once_per_exceptional_class(n, pair_calls):
    m = preset(f"cp2_blowup({n})")
    A = m.parse("3L - 2E1")
    B = m.parse("L - E1")
    assert k(B) == 1 and m._exceptional_table is None  # k never builds the table
    pair_calls.clear()
    k_prime(m, A)
    # One call per E for the table, at the support of E, and A.A.
    assert len(pair_calls) == n + 1
    assert pair_calls[:n] == [(m.lattice.basis_class(i + 1), E) for i, E in enumerate(m.exceptional)]
    pair_calls.clear()
    C = m.parse("5L - 3E1")
    k_prime(m, C), is_good_class(m, C), reduce_multicovers(m, C)
    assert [(X, Y) for X, Y in pair_calls if Y in m.exceptional] == []


def test_table_build_pairs_at_support_and_gram_neighbours(pair_calls):
    m = _s2xs2_blown_up_twice()
    m = m.with_exceptional(m.parse("A1 - E1"))
    pair_calls.clear()
    is_good_class(m, m.parse("A1"))
    # E1 and E2 at their own coordinate; A1 - E1 at A1, E1 and A1's neighbour A2.
    assert [(str(X), str(E)) for X, E in pair_calls] == [
        ("E1", "E1"), ("E2", "E2"), ("A1", "A1-E1"), ("A2", "A1-E1"), ("E1", "A1-E1"),
    ]


@pytest.mark.parametrize(
    "rebuild",
    [copy.copy, copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copies_of_a_model_carry_no_table(rebuild):
    m = preset("cp2_blowup(2)")
    k_prime(m, m.parse("L + 2E1"))
    assert "_exceptional_table" in vars(m)
    # A wrong table on the original must not reach the copy.
    object.__setattr__(m, "_exceptional_table", lattice._ExceptionalTable(((0, 0, 50), (1, 0, 50)), ((), ())))
    c = rebuild(m)
    assert "_exceptional_table" not in vars(c)
    assert (c.lattice, c.exceptional, c.minimal) == (m.lattice, m.exceptional, m.minimal)
    assert (c.gr0_table, c.torus_table, c.sphere_table) == (m.gr0_table, m.torus_table, m.sphere_table)
    A = c.parse("L + 2E1 - 3E2")
    assert (k_prime(c, A), is_good_class(c, A)) == (-4, False)
    assert tuple(reduce_multicovers(c, A)) == (c.parse("L - 3E2"), ((c.exceptional[0], 2),))


def test_reduction_reads_the_pairings_of_a_once(monkeypatch):
    m = preset("cp2_blowup(3)")
    A = m.parse("L + 2E1 - 3E2")
    seen = []
    original = invariants._exceptional_pairings

    def counted(model, X):
        seen.append(str(X))
        return original(model, X)

    monkeypatch.setattr(invariants, "_exceptional_pairings", counted)
    B, strips = reduce_multicovers(m, A)
    # A's pass gives the strips and k'(A); B's pass checks that B is good.
    assert seen == ["L+2E1-3E2", "L-3E2"]
    assert (str(B), strips) == ("L-3E2", ((m.exceptional[0], 2),))

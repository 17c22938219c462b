"""The shared search kernel on integer rows, and the sphere table per model.

_orthogonal_combinations runs on a candidate table of integer rows.  The
tests here compare it with a brute-force walk over every multiplicity
vector, check that it pairs nothing and builds no class, check that a
model's sphere table is built once and that copies drop it, and check that
every search rejects a class from another lattice before any early return.
"""

from __future__ import annotations

import copy
import itertools
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gromov4 import (
    IntersectionLattice,
    LatticeMismatchError,
    enumerate_decompositions,
    enumerate_sphere_configs,
    gr_s,
    gromov_via_decompositions,
    lattice,
    omega_area,
    preset,
)
from gromov4.structure import _CandidateTable, _candidate_table, _orthogonal_combinations


def _s2xs2_blown_up() -> IntersectionLattice:
    # An off-diagonal Gram, so covectors differ from the coordinates.
    return IntersectionLattice(
        name="s2xs2#1",
        basis=("A1", "A2", "E"),
        gram=((0, 1, 0), (1, 0, 0), (0, 0, -1)),
        canonical=(-2, -2, 1),
        area=(Fraction(2), Fraction(2), Fraction(1)),
    )


LATTICES = [
    preset("cp2").lattice,
    preset("s2xs2").lattice,
    preset("s2xt2").lattice,
    preset("cp2_blowup", 2).lattice,
    preset("elliptic", 3).lattice,
    _s2xs2_blown_up(),
]


def dot(lat, u, v):
    return sum(u[r] * lat.gram[r][s] * v[s] for r in range(lat.rank) for s in range(lat.rank))


def brute_force(A, classes, caps):
    """Every selection [(index, n), ...] in lexicographic order: each
    multiplicity vector within the area and cap bounds whose picked classes
    pair pairwise to zero and sum to A."""
    lat, w = A.lattice, omega_area(A)
    if w <= 0:
        return []

    def vectors(i, w_left):
        if i == len(classes):
            yield ()
            return
        n = 0
        while n * omega_area(classes[i]) <= w_left and (caps[i] is None or n <= caps[i]):
            for rest in vectors(i + 1, w_left - n * omega_area(classes[i])):
                yield (n,) + rest
            n += 1

    out = []
    for vec in vectors(0, w):
        picked = [(i, n) for i, n in enumerate(vec) if n]
        total = tuple(sum(n * classes[i].coords[r] for i, n in picked) for r in range(lat.rank))
        if total != A.coords:
            continue
        if all(dot(lat, classes[i].coords, classes[j].coords) == 0 for (i, _), (j, _) in itertools.combinations(picked, 2)):
            out.append(picked)
    return sorted(out)


def kernel(A, classes, caps):
    """The kernel's selections as [(index, n), ...], in the order it yields them."""
    index = {id(B): i for i, B in enumerate(classes)}
    table = _candidate_table(classes, lambda B, sq: caps[index[id(B)]])
    return [[(index[id(B)], n) for B, n in sel] for sel in _orthogonal_combinations(A, table)]


def positive_class(lat, coords):
    B = lat.class_from_coords(coords)
    return B if omega_area(B) > 0 else None


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_kernel_matches_brute_force(data):
    lat = data.draw(st.sampled_from(LATTICES))
    coords = st.lists(st.integers(-1, 2), min_size=lat.rank, max_size=lat.rank)
    classes = [B for B in map(lambda c: positive_class(lat, c), data.draw(st.lists(coords, max_size=5))) if B]
    if classes and data.draw(st.booleans()):  # a ray: further multiples of one class
        base = data.draw(st.sampled_from(classes))
        classes += [n * base for n in range(2, data.draw(st.integers(2, 4)))]
    classes = [B for B in classes if omega_area(B) <= 6]
    caps = data.draw(st.lists(st.sampled_from([0, 1, None]), min_size=len(classes), max_size=len(classes)))
    A = lat.class_from_coords(data.draw(coords))
    if classes and data.draw(st.booleans()):  # a sum of candidates, so that answers are not all empty
        A = lat.zero()
        for B in classes:
            A = A + data.draw(st.integers(0, 2)) * B
    if omega_area(A) > 10:
        A = classes[0]
    assert kernel(A, classes, caps) == brute_force(A, classes, caps)


def test_kernel_on_hand_cases():
    cp2 = preset("cp2").lattice
    L = cp2.parse("L")
    # All clash: every pair of multiples of L pairs nonzero, so each
    # selection has one part, and 2L cannot reach 3L (6 / 4 is no integer).
    clash = [L, 2 * L, 3 * L]
    assert kernel(3 * L, clash, [None] * 3) == [[(0, 3)], [(2, 1)]]
    assert kernel(3 * L, clash, [1, None, None]) == [[(2, 1)]]
    assert kernel(3 * L, clash, [2, None, 0]) == []
    assert kernel(3 * L, [], []) == []
    assert kernel(cp2.zero(), clash, [None] * 3) == []
    # A square-zero ray: the multiples add up freely, within their caps.
    ruled = preset("s2xt2").lattice
    B = ruled.parse("B")
    ray = [B, 2 * B, 3 * B]
    assert kernel(3 * B, ray, [None] * 3) == [[(0, 1), (1, 1)], [(0, 3)], [(2, 1)]]
    assert kernel(3 * B, ray, [2, None, None]) == [[(0, 1), (1, 1)], [(2, 1)]]
    assert kernel(3 * B, ray, [0, None, 1]) == [[(2, 1)]]
    # Four classes that are not pairwise orthogonal, yet A.B = B.B for each
    # of them and for their sum A: only the clash test rejects the sum.
    b3 = preset("cp2_blowup", 3).lattice
    four = [b3.parse(e) for e in ("2L+E1", "L+E1+E2", "E1-E2+E3", "E2")]
    A = b3.parse("3L+3E1+E2+E3")
    assert kernel(A, four, [None] * 4) == brute_force(A, four, [None] * 4) == []
    # L+E1 twice leaves -L-E1+2E2+2E3, of zero area: that branch ends
    # there, before any candidate is tried on it.
    three = [b3.parse(e) for e in ("L+E1", "E3", "2L+E1+E2")]
    A = b3.parse("2L+2E1+2E2+2E3")
    assert kernel(A, three, [None] * 3) == brute_force(A, three, [None] * 3) == []


def test_kernel_pairs_nothing_and_builds_no_class(monkeypatch):
    m = preset("cp2_blowup", 3)
    cands = [m.parse(e) for e in ("L", "L-E1", "L-E2", "L-E1-E2", "2L", "E1", "E2", "E3")]
    table = _candidate_table(cands, lambda B, sq: None)
    A = m.parse("2L+E1+E3")
    built = []
    post_init = lattice.HClass.__post_init__

    def counted(obj):
        built.append(obj.coords)
        post_init(obj)

    def no_pair(A, B):
        raise AssertionError("the kernel paired two classes")

    monkeypatch.setattr(lattice.HClass, "__post_init__", counted)
    monkeypatch.setattr(lattice, "pair", no_pair)
    got = list(_orthogonal_combinations(A, table))
    assert built == []
    assert [[(str(B), n) for B, n in sel] for sel in got] == [
        [("L", 2), ("E1", 1), ("E3", 1)],
        [("2L", 1), ("E1", 1), ("E3", 1)],
    ]
    assert all(B is cands[cands.index(B)] for sel in got for B, _ in sel)  # the given objects


# --- the sphere table, one per model ---------------------------------------------


def test_sphere_table_is_built_once_per_model():
    m = preset("cp2_blowup", 2)
    assert m._sphere_candidates is None
    assert enumerate_sphere_configs(m, m.parse("-L")) == []  # c1 < 1 builds nothing
    assert m._sphere_candidates is None
    enumerate_sphere_configs(m, m.parse("2L"))
    table = m._sphere_candidates
    assert isinstance(table, _CandidateTable)
    assert [str(B) for B in table.classes] == ["E2", "E1", "L-E1-E2", "L-E1", "L-E2", "L", "2L", "3L"]
    assert table.caps == (None, None, 1, None, None, 1, 1, 1)
    gr_s(m, m.parse("3L"))
    enumerate_sphere_configs(m, m.parse("L+E1"))
    assert m._sphere_candidates is table


@pytest.mark.parametrize(
    "rebuild",
    [copy.copy, copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m)), lambda m: m.with_exceptional()],
    ids=["copy", "deepcopy", "pickle", "with_exceptional"],
)
def test_copies_of_a_model_carry_no_sphere_table(rebuild):
    m = preset("cp2_blowup", 2)
    A = m.parse("L+E1")
    want = [cfg.parts for cfg in enumerate_sphere_configs(m, A)]
    assert "_sphere_candidates" in vars(m)
    # A wrong table on the original must not reach the copy.
    object.__setattr__(m, "_sphere_candidates", _candidate_table([m.parse("L")], lambda B, sq: 1))
    c = rebuild(m)
    assert "_sphere_candidates" not in vars(c)
    assert c.sphere_table == m.sphere_table
    assert [cfg.parts for cfg in enumerate_sphere_configs(c, c.parse("L+E1"))] == want


def test_an_added_exceptional_class_changes_the_copy_cap():
    m = preset("cp2_blowup", 2)
    A = m.parse("2L-2E1-2E2")  # twice L-E1-E2, which needs a cap above 1
    assert enumerate_sphere_configs(m, A) == []
    e = m.with_exceptional(m.parse("L-E1-E2"))
    assert [[str(B) for B in cfg.parts] for cfg in enumerate_sphere_configs(e, A)] == [["L-E1-E2", "L-E1-E2"]]
    assert m._sphere_candidates is not e._sphere_candidates


# --- a class from another lattice --------------------------------------------------


MISMATCH = "classes live in different lattices (s2xs2 vs cp2)"


@pytest.mark.parametrize(
    "query",
    [
        lambda m, A: gr_s(m, -A),  # c1(-A1 - A2) = -4 < 1
        lambda m, A: enumerate_sphere_configs(m, -A),
        lambda m, A: gr_s(m, A),
        lambda m, A: enumerate_sphere_configs(m, A),
        lambda m, A: enumerate_decompositions(m, A),  # default candidates L, 2L, 3L
        lambda m, A: enumerate_decompositions(m, A, []),
        lambda m, A: gromov_via_decompositions(m, A, []),
        lambda m, A: gromov_via_decompositions(m, A),
        lambda m, A: gromov_via_decompositions(m, A.lattice.zero()),  # Gr(0) = 1 otherwise
    ],
    ids=[
        "gr_s-c1<1", "spheres-c1<1", "gr_s", "spheres", "decompositions-default",
        "decompositions-empty", "gr-empty", "gr-default", "gr-zero",
    ],
)
def test_a_class_from_another_lattice_is_rejected_first(query):
    with pytest.raises(LatticeMismatchError) as err:
        query(preset("cp2"), preset("s2xs2").parse("A1+A2"))
    assert str(err.value) == MISMATCH

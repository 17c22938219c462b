"""The shared search kernel on integer rows, and the sphere table per model.

_orthogonal_combinations runs on a candidate table of integer rows.  The
tests here compare it with a brute-force walk over every multiplicity
vector, also on drawn parts that each fit A but clash pairwise, check
that it pairs nothing and builds no class, check that a model's sphere
table is built once, that its decomposition table is kept for one
candidate set and every candidate still checked, and that copies drop
both, and check that every search rejects a target that is not a class,
or a class from another lattice, before any early return.
"""

from __future__ import annotations

import copy
import itertools
import pickle
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gromov4 import (
    IntersectionLattice,
    InvalidCandidateError,
    LatticeMismatchError,
    ManifoldModel,
    PreconditionError,
    b2_plus,
    enumerate_decompositions,
    enumerate_sphere_configs,
    gr_s,
    gromov_via_decompositions,
    k,
    lattice,
    omega_area,
    pair,
    preset,
)
from gromov4.structure import (
    _CandidateTable,
    _candidate_table,
    _decomposition_cap,
    _orthogonal_combinations,
)
from oracle import ref_model, refs


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
    preset("cp2_blowup(2)").lattice,
    preset("elliptic(3)").lattice,
    _s2xs2_blown_up(),
]


def brute_force(A, classes, caps):
    """Every selection [(index, n), ...] in lexicographic order: each
    multiplicity vector within the area and cap bounds whose picked classes
    pair pairwise to zero and sum to A."""
    lat, w = A.lattice, omega_area(A)
    if w <= 0:
        return []
    ref = ref_model(ManifoldModel(lat))

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
        if all(refs.pair(ref, classes[i].coords, classes[j].coords) == 0 for (i, _), (j, _) in itertools.combinations(picked, 2)):
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
    b3 = preset("cp2_blowup(3)").lattice
    four = [b3.parse(e) for e in ("2L+E1", "L+E1+E2", "E1-E2+E3", "E2")]
    A = b3.parse("3L+3E1+E2+E3")
    assert kernel(A, four, [None] * 4) == brute_force(A, four, [None] * 4) == []
    # L+E1 twice leaves -L-E1+2E2+2E3, of zero area: that branch ends
    # there, before any candidate is tried on it.
    three = [b3.parse(e) for e in ("L+E1", "E3", "2L+E1+E2")]
    A = b3.parse("2L+2E1+2E2+2E3")
    assert kernel(A, three, [None] * 3) == brute_force(A, three, [None] * 3) == []


@pytest.mark.parametrize("n", [12, 14, 16])
def test_a_sign_that_no_row_takes_is_refused_before_the_search(n):
    # Every sphere row of a blow-up has L coefficient >= 0, so no sum of them
    # is K = -3L + E1 + ... + En, which has positive area from 10 blow-ups on:
    # the kernel's inner search is never entered.  The hook fails the first
    # entry, so a search that walks for minutes under it is not waited for.
    consts = _orthogonal_combinations.__code__.co_consts
    (search,) = (c for c in consts if getattr(c, "co_name", "") == "search")

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is search:
            raise AssertionError("the search was entered")

    m = preset(f"cp2_blowup({n})")
    K = m.canonical_class()
    assert omega_area(K) > 0
    sys.setprofile(profile)
    try:
        count = gr_s(m, K)
    finally:
        sys.setprofile(None)
    assert count == 0


# The hand case's four cp2_blowup(3) classes as coordinates on (L, E1, E2, E3):
# 2L+E1, L+E1+E2, E1-E2+E3 and E2.  They pair pairwise nonzero, yet the
# cross pairings cancel in A.B for their sum A, so A.B = B.B for each.
CLASHING_FOUR = ((2, 1, 0, 0), (1, 1, 1, 0), (0, 1, -1, 1), (0, 0, 1, 0))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_kernel_rejects_clashing_parts_that_each_fit(data):
    # The four with the E_i moved by a permutation on cp2_blowup(3..6), all
    # taken t times, plus disjoint E_j parts: A.B = n * B.B holds for every
    # part, so only the clash test keeps the kernel from summing them.
    n = data.draw(st.integers(3, 6))
    lat = preset(f"cp2_blowup({n})").lattice
    moved = data.draw(st.permutations(range(1, n + 1)))
    t = data.draw(st.integers(1, 2))
    classes, caps = [], []
    for row in CLASHING_FOUR:
        coords = [0] * (n + 1)
        coords[0] = row[0]
        for i, x in enumerate(row[1:]):
            coords[moved[i]] = x
        classes.append(lat.class_from_coords(coords))
        caps.append(data.draw(st.integers(t, 3)))
    A = t * sum(classes[1:], classes[0])
    for j in moved[3:]:
        m = data.draw(st.integers(0, 2))
        E = lat.class_from_coords([int(r == j) for r in range(n + 1)])
        A = A + m * E
        if data.draw(st.booleans()):
            classes.append(E)
            caps.append(data.draw(st.integers(m, 3)))
    order = data.draw(st.permutations(range(len(classes))))
    classes, caps = [classes[i] for i in order], [caps[i] for i in order]
    assert kernel(A, classes, caps) == brute_force(A, classes, caps)


def test_kernel_pairs_nothing_and_builds_no_class(monkeypatch):
    m = preset("cp2_blowup(3)")
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
    m = preset("cp2_blowup(2)")
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
    m = preset("cp2_blowup(2)")
    A = m.parse("L+E1")
    want = [cfg.parts for cfg in enumerate_sphere_configs(m, A)]
    cands = [m.parse(e) for e in ("L", "L-E1", "L-E2", "2L", "E1", "E2")]
    B = m.parse("2L")
    decs = enumerate_decompositions(m, B, cands)
    assert [d.parts for d in decs] == [(B,)]
    assert "_sphere_candidates" in vars(m) and "_decomposition_candidates" in vars(m)
    # Wrong tables on the original must not reach the copy.
    object.__setattr__(m, "_sphere_candidates", _candidate_table([m.parse("L")], lambda B, sq: 1))
    wrong = _candidate_table([m.parse("L")], _decomposition_cap)
    object.__setattr__(m, "_decomposition_candidates", (frozenset(c.coords for c in cands), wrong))
    assert enumerate_decompositions(m, B, cands) == []
    c = rebuild(m)
    assert "_sphere_candidates" not in vars(c) and "_decomposition_candidates" not in vars(c)
    assert c.sphere_table == m.sphere_table
    assert [cfg.parts for cfg in enumerate_sphere_configs(c, c.parse("L+E1"))] == want
    assert enumerate_decompositions(c, c.parse("2L"), [c.parse(str(x)) for x in cands]) == decs


def test_an_added_exceptional_class_changes_the_copy_cap():
    m = preset("cp2_blowup(2)")
    A = m.parse("2L-2E1-2E2")  # twice L-E1-E2, which needs a cap above 1
    assert enumerate_sphere_configs(m, A) == []
    e = m.with_exceptional(m.parse("L-E1-E2"))
    assert [[str(B) for B in cfg.parts] for cfg in enumerate_sphere_configs(e, A)] == [["L-E1-E2", "L-E1-E2"]]
    assert m._sphere_candidates is not e._sphere_candidates


# --- the decomposition table, one slot per model -----------------------------------


BLOWUP4 = ("L", "L-E1", "L-E2", "L-E3", "L-E4", "2L", "E1", "E2", "E3")


def test_a_decomposition_table_is_kept_for_its_candidate_set():
    m = preset("cp2_blowup(4)")
    cands = [m.parse(e) for e in BLOWUP4]
    assert m._decomposition_candidates is None
    want = {d: enumerate_decompositions(preset("cp2_blowup(4)"), m.parse(d), cands) for d in ("2L", "3L")}
    assert [d.parts for d in want["2L"]] == [(m.parse("2L"),)] and want["3L"] == []
    assert enumerate_decompositions(m, m.parse("2L"), cands) == want["2L"]
    held = m._decomposition_candidates
    key, table = held
    assert key == frozenset(c.coords for c in cands)
    assert [str(B) for B in table.classes] == sorted(BLOWUP4, key=lambda e: m.parse(e).coords)
    # The same set in another order, with repeats, as new objects or as a
    # generator: the kept rows answer.
    again = [m.parse(e) for e in reversed(BLOWUP4)] + [m.parse("E2")]
    assert enumerate_decompositions(m, m.parse("3L"), again) == want["3L"]
    assert enumerate_decompositions(m, m.parse("2L"), (c for c in again)) == want["2L"]
    assert gromov_via_decompositions(m, m.parse("3L"), again) == 0
    assert m._decomposition_candidates is held
    # Another set replaces the table, and the first set builds it again.
    assert enumerate_decompositions(m, m.parse("2L"), cands[:-1]) == want["2L"]
    assert m._decomposition_candidates[0] == key - {m.parse("E3").coords}
    assert enumerate_decompositions(m, m.parse("2L"), cands) == want["2L"]
    assert m._decomposition_candidates[0] == key and m._decomposition_candidates is not held


def test_every_candidate_is_checked_with_a_table_kept():
    m = preset("s2xs2")
    A1, A2 = m.parse("A1"), m.parse("A2")
    foreign = preset("s2xt2").parse("S+B")  # the coordinates of A1 + A2
    assert foreign.coords == (A1 + A2).coords
    for warm in (False, True):
        m = preset("s2xs2")
        if warm:
            assert len(enumerate_decompositions(m, A1 + A2, [A1, A2, A1 + A2])) == 1
            assert m._decomposition_candidates[0] == frozenset([A1.coords, A2.coords, foreign.coords])
        for query in (enumerate_decompositions, gromov_via_decompositions):
            with pytest.raises(InvalidCandidateError, match="^candidate S\\+B lives in another lattice$"):
                query(m, A1 + A2, [A1, A2, foreign])
            # The first bad candidate in input order is reported.
            with pytest.raises(InvalidCandidateError, match="^candidate -A1 must have positive area$"):
                query(m, A1 + A2, [A2, -A1, foreign])
            with pytest.raises(InvalidCandidateError, match="^candidate S\\+B lives in another lattice$"):
                query(m, A1 + A2, [A2, foreign, -A1])
        assert (m._decomposition_candidates is None) is not warm


def test_the_minimal_model_filter_holds_on_a_kept_table():
    el = preset("elliptic(3)")
    F, C = el.parse("F"), el.parse("S+3F")
    assert el.minimal and b2_plus(el.lattice) > 1 and k(C) == 1 and pair(C, C) > 0
    # Without the filter C alone decomposes C.
    assert [d.parts for d in enumerate_decompositions(ManifoldModel(el.lattice), C, [F, C])] == [(C,)]
    assert [d.parts for d in enumerate_decompositions(el, 5 * F, [F, C])] == [(5 * F,)]
    held = el._decomposition_candidates
    assert held[1].classes == (F,)
    assert enumerate_decompositions(el, C, [C, F, C]) == []
    assert [d.parts for d in enumerate_decompositions(el, 3 * F, [C, F])] == [(3 * F,)]
    assert el._decomposition_candidates is held


# --- a target that is not a class, or from another lattice ---------------------------


@pytest.mark.parametrize(
    "query",
    [
        lambda m, A: enumerate_decompositions(m, A, [m.parse("A1")]),
        lambda m, A: enumerate_decompositions(m, A),
        lambda m, A: gromov_via_decompositions(m, A),
        lambda m, A: enumerate_sphere_configs(m, A),
        lambda m, A: gr_s(m, A),
    ],
    ids=["decompositions", "decompositions-default", "gr", "spheres", "gr_s"],
)
@pytest.mark.parametrize("A", [None, "A1", (1, 1)], ids=["None", "text", "coordinates"])
def test_a_target_that_is_not_a_class_is_a_precondition_error(query, A):
    with pytest.raises(PreconditionError) as err:
        query(preset("s2xs2"), A)
    assert str(err.value) == f"A is not a homology class: {A!r}"


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

"""The paper's laws: the fiber-sum ledger's on drawn glue trees; the light
cone lemma's, the exceptional-sphere reduction's, the positivity of a
nonzero count's, the blow-up pull-back's (of Gr, Gr_s and the connected
count N), N's Cremona invariance and the duality Gr(A) = +-Gr(K - A) on
drawn classes; the stored exceptional spheres' on every preset that
stores them; and the others each on a fixed case the package is known to
get wrong.

Each known-wrong case is a strict xfail naming the ROADMAP direction that
mends it, and only a failed assertion counts as the expected failure: when
that direction lands, the case passes, the run fails, and the mark comes
off.  A drawn law leaves out the same known cases through one named
predicate per direction.  Drawn cases of the other laws come later.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from gromov4 import (
    HClass,
    ManifoldModel,
    UnknownGr0Error,
    UnknownSphereCountError,
    b2_plus,
    base_pieces,
    classify_negative,
    fiber_tori,
    genus_embedded,
    glue,
    gr_s,
    gr_torus_class,
    gromov_via_decompositions,
    in_forward_cone,
    is_good_class,
    light_cone_pair_check,
    omega_area,
    pair,
    preset,
    reduce_multicovers,
)
from oracle import ref_model, refs

# The tori of each stock piece, written out: all fiber tori of cover 1.
STOCK_TORI = {
    "D2xT2": [("+0", 1)],
    "V1": [("+0", 1)],
    "V1_minus_NF": [],
    "N_minus_P": [("-0", 1)],
}
ORDER = 6


def _glued(pair_of_trees):
    # Two trees glue when each has a boundary torus; else the first stands.
    # A tree is a piece with the labels of the stock pieces glued into it.
    (a, a_leaves), (b, b_leaves) = pair_of_trees
    if a.boundary_count and b.boundary_count:
        return glue(a, b), a_leaves + b_leaves
    return a, a_leaves


GLUE_TREES = st.recursive(
    st.sampled_from(sorted(STOCK_TORI)).map(lambda name: (base_pieces()[name], (name,))),
    lambda trees: st.tuples(trees, trees).map(_glued),
    max_leaves=8,
)


def _series(tori) -> list[int]:
    return [gr_torus_class(tori, k) for k in range(ORDER + 1)]


@settings(max_examples=200, deadline=None)
@given(GLUE_TREES)
def test_a_glued_piece_counts_the_product_of_its_leaves_tori(tree):
    # Gluing adds fiber counts; the count's tori multiply the leaves' series.
    piece, leaves = tree
    product = [1] + [0] * ORDER
    for label in leaves:
        leaf = _series(STOCK_TORI[label])
        product = [sum(product[i] * leaf[k - i] for i in range(k + 1)) for k in range(ORDER + 1)]
    got = _series(fiber_tori(piece.fiber_gr))
    assert got == product
    assert got[1] == piece.fiber_gr


def blowup_area_is_timelike(n: int) -> bool:
    """ROADMAP direction 6: the area class 3L - E1 - ... - En of cp2_blowup(n)
    has square 9 - n, so from n = 9 on the forward cone read off the area is
    not half of the light cone, and the light cone law is not drawn there."""
    return 9 - n > 0


# Every b2+ = 1 preset the light cone law holds on today.
CONE_PRESETS = ["cp2", "s2xs2", "s2xt2", "elliptic(1)"] + [
    f"cp2_blowup({n})" for n in range(1, 17) if blowup_area_is_timelike(n)
]


@st.composite
def drawn_class(draw, lattice):
    # Coordinates in [-6, 6], L's as well, on a drawn support (a large
    # blow-up's class drawn on its full support is almost never in the
    # cone), or within 1 of K or -K on a drawn support, near the cone's edge.
    aim = draw(st.sampled_from((0, 1, -1)))
    step = 1 if aim else 6
    support = draw(st.sets(st.integers(0, lattice.rank - 1)))
    coords = [aim * c for c in lattice.canonical]
    for i in support:
        coords[i] += draw(st.integers(-step, step))
    return HClass(tuple(coords), lattice)


CONE_DRAWS = st.sampled_from(CONE_PRESETS).flatmap(
    lambda name: st.lists(drawn_class(preset(name).lattice), min_size=2, max_size=12)
)


@settings(max_examples=150, deadline=None)
@given(CONE_DRAWS)
def test_two_classes_in_the_closed_forward_cone_pair_nonnegatively(classes):
    assert b2_plus(classes[0].lattice) == 1
    cone = [A for A in classes if in_forward_cone(A)]
    for i, A in enumerate(cone):
        for B in cone[i:]:
            assert light_cone_pair_check(A, B).ok, (A, B)


def classes_on(names):
    """A drawn preset of names and a list of classes drawn on it."""
    return st.sampled_from(names).map(preset).flatmap(
        lambda m: st.tuples(st.just(m), st.lists(drawn_class(m.lattice), min_size=1, max_size=12))
    )


# The presets that store exceptional classes, and then every preset.
EXCEPTIONAL_PRESETS = [f"cp2_blowup({n})" for n in range(1, 17)] + ["elliptic(1)"]
ELLIPTIC_PRESETS = [f"elliptic({n})" for n in range(2, 7)]
ALL_PRESETS = ["cp2", "s2xs2", "s2xt2", *EXCEPTIONAL_PRESETS, *ELLIPTIC_PRESETS]


@settings(max_examples=60, deadline=None)
@given(classes_on(EXCEPTIONAL_PRESETS))
def test_a_class_is_good_exactly_when_no_stored_sphere_meets_it_below_minus_one(drawn):
    # The stored spheres are disjoint, so stripping each E with A.E < -1
    # leaves a good part B, and reducing B again strips nothing.
    m, classes = drawn
    M = ref_model(m)
    assert M.exceptional
    for A in classes:
        assert is_good_class(m, A) == refs.is_good(M, A.coords), A
        B = HClass(refs.reduce(M, A.coords)[0], A.lattice)
        assert is_good_class(m, B), (A, B)
        assert reduce_multicovers(m, B) == (B, ()), (A, B)


@settings(max_examples=60, deadline=None)
@given(classes_on(ALL_PRESETS))
def test_a_nonzero_count_is_of_the_empty_class_or_of_positive_area(drawn):
    # Every part of a decomposition has positive area, so a class that
    # decomposes has too.  A missing count is no answer.
    m, classes = drawn
    for A in classes:
        try:
            count = gromov_via_decompositions(m, A)
        except UnknownGr0Error:
            continue
        assert count == 0 or A.is_zero or omega_area(A) > 0, A


def base_has_gr_tables(base) -> bool:
    """ROADMAP direction 3: cp2 stores Gr0 of L, 2L and 3L, but no blow-up
    stores a Gr0 or torus row, so Gr of a class pulled back from cp2 reads 0
    upstairs (the strict xfail below), and the Gr half of the pull-back law
    is not drawn from such a base."""
    return bool(base.gr0_table or base.torus_table)


# Each base and its blow-up at one more point.
PULL_BACKS = [("cp2", "cp2_blowup(1)")] + [
    (f"cp2_blowup({n - 1})", f"cp2_blowup({n})") for n in range(2, 17)
]


def _answer(count, model, A):
    """count(model, A), or None where the model lacks the data."""
    try:
        return count(model, A)
    except (UnknownGr0Error, UnknownSphereCountError):
        return None


def drawn_or_stored_sphere(model):
    # A drawn class seldom has a nonzero count; a stored sphere has.
    spheres = st.sampled_from(list(model.sphere_table))
    return st.one_of(drawn_class(model.lattice), spheres)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(PULL_BACKS).flatmap(
        lambda names: st.tuples(
            st.just(names), st.lists(drawn_or_stored_sphere(preset(names[0])), min_size=1, max_size=8)
        )
    )
)
def test_a_class_pulled_back_to_a_blowup_keeps_its_counts(drawn):
    # The pull-back of A has A's coordinates and 0 on the new E, so it
    # misses the exceptional sphere and counts the curves A counts.
    (base_name, up_name), classes = drawn
    base, up = preset(base_name), preset(up_name)
    for A in classes:
        lifted = HClass(A.coords + (0,), up.lattice)
        counts = [gr_s] + [gromov_via_decompositions] * (not base_has_gr_tables(base))
        for count in counts:
            below, above = _answer(count, base, A), _answer(count, up, lifted)
            assert None in (below, above) or below == above, (count.__name__, A)


N = ManifoldModel.sphere_count


def drawn_and_stored(model):
    # Drawn classes, then every class of the sphere table: a drawn sample of
    # the table would miss most single entries.
    return st.lists(drawn_class(model.lattice), max_size=8).map(lambda drawn: drawn + list(model.sphere_table))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(PULL_BACKS[1:]).flatmap(
        lambda names: st.tuples(st.just(names), drawn_and_stored(preset(names[0])))
    )
)
def test_a_class_pulled_back_to_a_blowup_keeps_its_connected_count(drawn):
    # The rational curves in the pull-back of A miss the new exceptional
    # sphere, so N counts the same curves on both sides.
    (base_name, up_name), classes = drawn
    base, up = preset(base_name), preset(up_name)
    for A in classes:
        below, above = _answer(N, base, A), _answer(N, up, HClass(A.coords + (0,), up.lattice))
        assert None in (below, above) or below == above, A


def cremona(A, i, j, k):
    """The quadratic Cremona move of A = dL - sum a_r E_r at the points i, j, k."""
    coords = list(A.coords)
    d, a = coords[0], {r: -coords[r] for r in (i, j, k)}
    coords[0] = 2 * d - a[i] - a[j] - a[k]
    for r, s, t in ((i, j, k), (j, i, k), (k, i, j)):
        coords[r] = a[s] + a[t] - d
    return HClass(tuple(coords), A.lattice)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([f"cp2_blowup({n})" for n in range(3, 17)]).map(preset).flatmap(
        lambda m: st.tuples(
            st.just(m),
            st.lists(st.integers(1, m.lattice.rank - 1), min_size=3, max_size=3, unique=True).map(sorted),
            drawn_and_stored(m),
        )
    )
)
def test_a_connected_count_is_invariant_under_the_cremona_move(drawn):
    # The move is the reflection in L - Ei - Ej - Ek, of square -2 and
    # orthogonal to K, and it keeps the genus-0 counts of a blown-up plane.
    m, (i, j, k), classes = drawn
    for A in classes:
        here, there = _answer(N, m, A), _answer(N, m, cremona(A, i, j, k))
        assert None in (here, there) or here == there, (A, (i, j, k))


@settings(max_examples=60, deadline=None)
@given(classes_on(ELLIPTIC_PRESETS))
def test_a_count_and_the_count_of_its_dual_class_agree_up_to_sign(drawn):
    # On b2+ > 1, Gr(A) = +-Gr(K - A) wherever both sides have data.
    m, classes = drawn
    K, gr = m.canonical_class(), gromov_via_decompositions
    for A in classes:
        here, dual = _answer(gr, m, A), _answer(gr, m, K - A)
        assert None in (here, dual) or abs(here) == abs(dual), A


@pytest.mark.parametrize("name", EXCEPTIONAL_PRESETS)
def test_a_stored_exceptional_class_is_a_sphere_counted_once(name):
    m = preset(name)
    assert m.exceptional
    for E in m.exceptional:
        assert genus_embedded(E) == 0, E
        assert m.sphere_table.get(E, 1) == 1, E


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP direction 6: the blow-up area picks the wrong half-cone for n >= 9",
)
def test_canonical_class_of_the_nine_point_blowup_is_not_in_the_forward_cone():
    # L is in the forward cone and K.L = -3, so the light cone lemma keeps K out.
    m = preset("cp2_blowup(9)")
    K = m.parse("-3L+E1+E2+E3+E4+E5+E6+E7+E8+E9")
    L = m.parse("L")
    assert in_forward_cone(L) and pair(K, L) == -3
    assert not in_forward_cone(K)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP direction 12: the blow-ups store only E1..En as exceptional classes",
)
def test_an_exceptional_sphere_of_positive_area_is_in_the_exceptional_set():
    m = preset("cp2_blowup(2)")
    E = m.parse("L-E1-E2")
    assert classify_negative(E).is_exceptional_sphere and omega_area(E) > 0
    assert E in m.exceptional
    assert not is_good_class(m, m.parse("2L-2E1-2E2"))  # its product with E is -2


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP direction 3: Gr on b2+ = 1 blow-ups reads empty tables as 0",
)
def test_gr_of_the_line_is_the_same_after_one_blowup():
    base, up = preset("cp2"), preset("cp2_blowup(1)")
    assert gromov_via_decompositions(base, base.parse("L")) == 1
    assert gromov_via_decompositions(up, up.parse("L")) == 1

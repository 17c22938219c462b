"""Point budgets, adjunction, negative classes, reductions, cone checks."""

from __future__ import annotations

import copy
import itertools
import pickle
import random
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from gromov4 import (
    NegClassVerdict,
    NotInExceptionalSetError,
    PreconditionError,
    ReductionConsistencyWarning,
    c1,
    classify_negative,
    ell_g,
    genus_embedded,
    in_forward_cone,
    is_good_class,
    k,
    k_prime,
    light_cone_pair_check,
    m_e,
    moduli_dimension,
    pair,
    preset,
    reduce_multicovers,
)
from oracle import invariants


def test_point_budgets_on_presets():
    ss = preset("s2xs2")
    A1, A2 = ss.parse("A1"), ss.parse("A2")
    assert k(A1) == 1
    assert k(2 * A1) == 2
    assert k(A1 + A2) == 3
    assert k(preset("cp2").parse("3L")) == 9
    b1 = preset("cp2_blowup(1)")
    assert k(b1.parse("L + E1")) == 2
    assert k(b1.parse("L + 2E1")) == 1


def test_budget_of_canonical_class_vanishes_everywhere():
    models = [
        preset("cp2"),
        preset("cp2_blowup(1)"),
        preset("cp2_blowup(4)"),
        preset("s2xs2"),
        preset("s2xt2"),
        preset("elliptic(1)"),
        preset("elliptic(2)"),
        preset("elliptic(5)"),
    ]
    for m in models:
        assert k(m.canonical_class()) == 0


def test_exceptional_multiplicity():
    m = preset("cp2_blowup(2)")
    A = m.parse("L + 2E1")
    E1, E2 = m.parse("E1"), m.parse("E2")
    assert m_e(m, A, E1) == 2
    assert m_e(m, A, E2) == 0
    assert m_e(m, m.parse("L - E1"), E1) == 0
    with pytest.raises(NotInExceptionalSetError):
        m_e(m, A, m.parse("L"))


def test_corrected_budget():
    b1 = preset("cp2_blowup(1)")
    A = b1.parse("L + 2E1")
    assert k(A) == 1
    assert k_prime(b1, A) == 2
    assert k_prime(b1, A) == k(b1.parse("L"))
    # no exceptional classes, so the correction is trivial
    assert k_prime(preset("cp2"), preset("cp2").parse("3L")) == 9


def test_corrected_budget_dominates_plain_budget():
    m = preset("cp2_blowup(3)")
    rng = random.Random(11)
    for _ in range(200):
        A = m.lattice.class_from_coords([rng.randint(-6, 6) for _ in range(4)])
        assert k_prime(m, A) >= k(A)


def test_constraint_budget():
    cp2 = preset("cp2")
    A = cp2.parse("3L")
    assert ell_g(A, 0) == 8
    assert ell_g(A, 1) == 9
    st = preset("s2xt2")
    assert c1(st.parse("B")) == 0
    assert ell_g(st.parse("B"), 1) == 0
    with pytest.raises(PreconditionError):
        ell_g(A, -1)


def test_adjunction_genus():
    assert genus_embedded(preset("cp2").parse("3L")) == 1
    assert genus_embedded(preset("elliptic(3)").parse("F")) == 1
    b1 = preset("cp2_blowup(1)")
    assert genus_embedded(b1.parse("E1")) == 0
    assert genus_embedded(b1.parse("L - E1")) == 0
    # negative answers mark classes with no embedded connected representative
    assert genus_embedded(b1.parse("2E1")) == -2


def test_budget_equals_constraint_count_at_adjunction_genus():
    m = preset("cp2_blowup(2)")
    rng = random.Random(5)
    seen = 0
    for _ in range(400):
        A = m.lattice.class_from_coords([rng.randint(-5, 5) for _ in range(3)])
        g = genus_embedded(A)
        if g < 0:
            continue
        seen += 1
        assert k(A) == ell_g(A, g)
    assert seen > 50


def test_moduli_dimension():
    st = preset("s2xt2")
    assert moduli_dimension(st.parse("B"), 1) == 2
    ss = preset("s2xs2")
    assert moduli_dimension(ss.parse("A1"), 0) == 8
    assert moduli_dimension(preset("cp2").parse("3L"), 0) == 22
    el = preset("elliptic(3)")
    assert c1(3 * el.parse("F")) == 0
    assert moduli_dimension(3 * el.parse("F"), 1) == 2
    with pytest.raises(PreconditionError):
        moduli_dimension(el.parse("F"), -2)


def test_moduli_dimension_vanishes_at_critical_c1():
    # any class with c1 = 1 - g and g >= 2 sits in a zero-dimensional space
    el = preset("elliptic(4)")
    F, S = el.parse("F"), el.parse("S")
    hit = 0
    for g in (2, 3, 4, 5):
        for A in (S, S + F, 2 * S - F, 2 * S, 3 * S - 2 * F):
            if c1(A) == 1 - g:
                assert moduli_dimension(A, g) == 0
                hit += 1
    assert hit > 0


def test_good_classes():
    m = preset("cp2_blowup(2)")
    assert is_good_class(m, m.parse("L + E1"))
    assert is_good_class(m, m.parse("L - E1"))
    assert not is_good_class(m, m.parse("L + 2E1"))
    assert not is_good_class(m, m.parse("2L + 3E2"))
    # minimal models have no stored exceptional classes
    el = preset("elliptic(2)")
    assert is_good_class(el, el.parse("7F + 3S"))


def test_classify_negative_square_classes():
    m = preset("cp2_blowup(2)")
    v = classify_negative(m.parse("E1"))
    assert v.kind == "ExceptionalSphere"
    assert v.witness == (0, 1, -1)
    assert v.is_exceptional_sphere
    w = classify_negative(m.parse("L - 2E1"))
    assert w.kind == "NotRepresentable"
    assert w.witness is None
    el4 = preset("elliptic(4)")
    S = el4.parse("S")
    assert pair(S, S) == -4 and c1(S) == -2
    assert classify_negative(S).kind == "NotRepresentable"
    with pytest.raises(PreconditionError):
        classify_negative(m.parse("L"))
    with pytest.raises(PreconditionError):
        classify_negative(m.lattice.zero())
    # c1 far below A.A: A = -N L - (N+1) E1 has c1 = -4N-1 and A.A = -2N-1,
    # and the verdict needs no search over g up to about N.
    b1 = preset("cp2_blowup(1)")
    far = classify_negative(b1.lattice.class_from_coords((-10**30, -10**30 - 1)))
    assert (far.kind, far.witness) == ("NotRepresentable", None)
    with pytest.raises(ValueError, match=r"^bad verdict kind 'Sphere'$"):
        NegClassVerdict("Sphere")


def test_classify_negative_matches_charge_one_square_minus_one():
    m = preset("cp2_blowup(2)")
    hits = 0
    for coords in itertools.product(range(-3, 4), repeat=3):
        A = m.lattice.class_from_coords(coords)
        sq = pair(A, A)
        if sq >= 0:
            continue
        expected = c1(A) == 1 and sq == -1
        got = classify_negative(A).is_exceptional_sphere
        assert got is expected, coords
        hits += got
    assert hits > 0


def test_reduction_strips_multiple_covers():
    b1 = preset("cp2_blowup(1)")
    good, strips = reduce_multicovers(b1, b1.parse("L + 2E1"))
    assert good == b1.parse("L")
    assert strips == ((b1.parse("E1"), 2),)
    b2 = preset("cp2_blowup(2)")
    good2, strips2 = reduce_multicovers(b2, b2.parse("L + 3E1 + 2E2"))
    assert good2 == b2.parse("L")
    assert dict(strips2) == {b2.parse("E1"): 3, b2.parse("E2"): 2}
    assert k(good2) == k_prime(b2, b2.parse("L + 3E1 + 2E2")) == 2
    # classes hitting every exceptional sphere at least -1 come back whole
    untouched, none = reduce_multicovers(b2, b2.parse("L + E1"))
    assert untouched == b2.parse("L + E1")
    assert none == ()


def test_reduction_consistency_warning_on_overlapping_exceptional_set():
    m = preset("cp2_blowup(2)").with_exceptional(
        preset("cp2_blowup(2)").parse("L - E1 - E2")
    )
    A = m.parse("2E1 - 4E2")
    with pytest.warns(ReductionConsistencyWarning):
        good, strips = reduce_multicovers(m, A)
    assert len(strips) == 2


def test_forward_cone_membership():
    cp2 = preset("cp2")
    L = cp2.parse("L")
    assert in_forward_cone(L)
    assert in_forward_cone(L, strict=True)
    assert in_forward_cone(cp2.lattice.zero())
    assert not in_forward_cone(cp2.lattice.zero(), strict=True)
    assert not in_forward_cone(-L)
    ss = preset("s2xs2")
    assert in_forward_cone(ss.parse("A1"))
    assert not in_forward_cone(ss.parse("A1"), strict=True)
    assert not in_forward_cone(ss.parse("A1 - A2"))


def test_light_cone_pairs():
    ss = preset("s2xs2")
    A1, A2 = ss.parse("A1"), ss.parse("A2")
    assert light_cone_pair_check(A1, A2).ok
    assert light_cone_pair_check(A1, A1).ok
    assert light_cone_pair_check(A1, 3 * A1).ok
    assert light_cone_pair_check(ss.lattice.zero(), A1).ok
    rep = light_cone_pair_check(A1, A1 + A2)
    assert rep.ok and rep.check("nonnegative-product")
    with pytest.raises(PreconditionError):
        light_cone_pair_check(A1, A2 - A1)
    el = preset("elliptic(3)")
    with pytest.raises(PreconditionError):
        light_cone_pair_check(el.parse("F"), el.parse("F"))


def test_light_cone_random_pairs_all_presets():
    models = [
        preset("cp2"),
        preset("cp2_blowup(2)"),
        preset("s2xs2"),
        preset("s2xt2"),
        preset("elliptic(1)"),
    ]
    rng = random.Random(99)
    for m in models:
        n = m.lattice.rank
        done = 0
        while done < 2000:
            A = m.lattice.class_from_coords([rng.randint(-9, 9) for _ in range(n)])
            B = m.lattice.class_from_coords([rng.randint(-9, 9) for _ in range(n)])
            if not (in_forward_cone(A) and in_forward_cone(B)):
                continue
            rep = light_cone_pair_check(A, B)
            assert rep.ok, (m.name, A.coords, B.coords, rep.failed())
            done += 1


def test_multiple_cover_budget_chain():
    m = preset("cp2_blowup(2)")
    rng = random.Random(17)
    checked = 0
    while checked < 500:
        B = m.lattice.class_from_coords([rng.randint(-4, 4) for _ in range(3)])
        if pair(B, B) < 0 or c1(B) < 0:
            continue
        gmax = genus_embedded(B)
        if gmax < 0:
            continue
        g = rng.randint(0, min(gmax, 6))
        if c1(B) + g - 1 < 0:
            continue
        mult = rng.randint(1, 4)
        lhs = k(mult * B)
        rhs = ell_g(B, g)
        assert lhs >= rhs, (B.coords, g, mult)
        if lhs == rhs:
            assert mult == 1 or (pair(B, B) == 0 and g == 1), (B.coords, g, mult)
        checked += 1


# --- the per-class memo of A.A and A.E against pairing every time ------------


def _entangled(n: int):
    m = preset(f"cp2_blowup({n})")
    return m.with_exceptional(m.parse("L - E1 - E2"))


MEMO_MODELS = (
    preset("cp2_blowup(1)"),
    preset("cp2_blowup(3)"),
    preset("cp2_blowup(8)"),
    preset("elliptic(1)"),
    _entangled(2),
    _entangled(3).with_exceptional(preset("cp2_blowup(3)").parse("L - E2 - E3")),
)


def observed(model, A, order):
    got = {}
    for name in order:
        if name == "reduce":
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                red = reduce_multicovers(model, A)
            got["reduce"] = (tuple(red), any(issubclass(w.category, ReductionConsistencyWarning) for w in caught))
        elif name == "k":
            got["k"] = k(A)
        elif name == "kprime":
            got["kprime"] = k_prime(model, A)
        elif name == "good":
            got["good"] = is_good_class(model, A)
        elif name == "c1":
            got["c1"] = c1(A)
        elif name == "genus":
            got["genus"] = genus_embedded(A)
        elif name == "dim":
            got["dim"] = [moduli_dimension(A, g) for g in (0, 1, 2)]
        elif name == "classify":
            try:
                verdict = classify_negative(A)
                got["classify"] = (verdict.kind, verdict.witness)
            except PreconditionError:
                got["classify"] = None
        elif name == "cone":
            got["cone"] = (in_forward_cone(A), in_forward_cone(A, strict=True))
        else:
            got["m_e"] = [m_e(model, A, E) for E in model.exceptional]
    red, warned = got["reduce"]
    head = (got["k"], got["kprime"], got["good"], got["m_e"], red, warned)
    return head + tuple(got[name] for name in ("c1", "genus", "dim", "classify", "cone"))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_memoised_invariants_match_pairing_every_time(data):
    model = data.draw(st.sampled_from(MEMO_MODELS))
    coord = st.one_of(st.integers(-5, 5), st.sampled_from([-1, 1]), st.integers(-10**20, 10**20))
    coords = data.draw(st.lists(coord, min_size=model.lattice.rank, max_size=model.lattice.rank))
    names = ["reduce", "k", "kprime", "good", "m_e", "c1", "genus", "dim", "classify", "cone"]
    order = data.draw(st.permutations(names))
    A = model.lattice.class_from_coords(coords)
    want = invariants(model, A)
    assert observed(model, A, order) == want  # cold, in a drawn order
    assert observed(model, A, order) == want  # warm


def test_one_class_against_models_with_different_exceptional_sets():
    plain = preset("cp2_blowup(2)")
    entangled = _entangled(2)
    assert plain.lattice == entangled.lattice
    A = plain.parse("-4L + 2E1")  # A.E1 = A.(L-E1-E2) = -2
    for model in (plain, entangled, plain, preset("cp2_blowup(2)"), entangled):
        kA, kp, good, ms, red, warns, *_ = invariants(model, A)
        assert (k_prime(model, A), is_good_class(model, A)) == (kp, good)
        assert [m_e(model, A, E) for E in model.exceptional] == ms
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert tuple(reduce_multicovers(model, A)) == red
        assert bool(caught) == warns
    assert k_prime(plain, A) != k_prime(entangled, A)


@pytest.mark.parametrize(
    "rebuild",
    [copy.copy, copy.deepcopy, lambda A: pickle.loads(pickle.dumps(A))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copies_of_a_class_carry_no_memo(rebuild):
    m = preset("cp2_blowup(2)")
    A = m.parse("L + 2E1 - 3E2")
    reduce_multicovers(m, A)
    assert getattr(A, "_c1") is not None and getattr(A, "_square") is not None
    # A.E is read from the model's table on every call, never kept on A.
    assert getattr(A, "_exceptional_pairings", None) is None
    # A wrong memo on the original must not reach the copy.
    object.__setattr__(A, "_c1", 1000)
    object.__setattr__(A, "_square", 1000)
    B = rebuild(A)
    assert B == A and hash(B) == hash(A)
    assert getattr(B, "_c1") is None and getattr(B, "_square") is None
    assert (c1(B), k(B), k_prime(m, B), is_good_class(m, B)) == (2, -5, -4, False)

"""Acceptance gate: one test per headline criterion.

Each test bundles the frozen numbers and property sweeps for one
criterion of the release checklist; conftest.py prints a per-criterion
pass/fail line in the terminal summary.
"""

from __future__ import annotations

import itertools
import random

from gromov4 import (
    ALL_LABELS,
    Component,
    Configuration,
    b2_plus,
    base_pieces,
    c1,
    check_kmin_constraints,
    classify_negative,
    ell_g,
    enumerate_decompositions,
    enumerate_sphere_configs,
    fiber_gr_table,
    genus_embedded,
    glue,
    gr_elliptic_fiber,
    gr_s,
    gr_torus_class,
    in_forward_cone,
    k,
    k_prime,
    light_cone_pair_check,
    moduli_dimension,
    omega_area,
    pair,
    preset,
    reduce_multicovers,
    verify_kprime_configuration,
)
from oracle import ref_model, refs


def _all_presets():
    return [
        preset("cp2"),
        preset("cp2_blowup(1)"),
        preset("cp2_blowup(2)"),
        preset("s2xs2"),
        preset("s2xt2"),
        preset("elliptic(1)"),
        preset("elliptic(2)"),
        preset("elliptic(3)"),
    ]


def test_criterion_1_point_counts():
    ss = preset("s2xs2")
    A1, A2 = ss.parse("A1"), ss.parse("A2")
    assert k(A1) == 1
    assert k(2 * A1) == 2
    assert k(A1 + A2) == 3
    cp = preset("cp2")
    assert k(cp.parse("3L")) == 9
    b1 = preset("cp2_blowup(1)")
    assert k(b1.parse("L + E1")) == 2
    assert k(b1.parse("L + 2E1")) == 1
    for m in _all_presets():
        assert k(m.canonical_class()) == 0, m.name


def test_criterion_2_reduction():
    m = preset("cp2_blowup(1)")
    L, E = m.parse("L"), m.parse("E1")
    A = L + 2 * E
    assert k_prime(m, A) == 2 == k(L)
    red = reduce_multicovers(m, A)
    assert red.good_part == L
    assert red.strips == ((E, 2),)
    ok = verify_kprime_configuration(
        m, Configuration((Component(L, 1, 0), Component(E, 2, 0)))
    )
    assert ok.ok
    rep = verify_kprime_configuration(
        m, Configuration((Component(L - E, 1, 0), Component(E, 3, 0)))
    )
    assert not rep.ok
    crossing = rep.check("disjoint")
    assert not crossing.passed
    assert (L - E, E, 1) in crossing.witness


def test_criterion_3_torus_counts():
    two_plain = [("+0", 1), ("+0", 1)]
    for kk in range(51):
        assert gr_torus_class(two_plain, kk) == kk + 1
    assert gr_torus_class([("+0", 1)] * 3 + [("-0", 1)], 2) == 3
    for kk in range(2, 30):
        assert gr_torus_class([("-0", 1)], kk) == 0
    rng = random.Random(6021)
    for _ in range(1000):
        tori = [(rng.choice(ALL_LABELS), rng.randint(1, 3)) for _ in range(rng.randint(0, 3))]
        base = [gr_torus_class(tori, kk) for kk in range(13)]
        m = rng.randint(1, 3)
        for label in ALL_LABELS:
            flipped = {"+": "-", "-": "+"}[label[0]] + label[1:]
            born = tori + [(label, m), (flipped, m)]
            assert [gr_torus_class(born, kk) for kk in range(13)] == base


def test_criterion_4_elliptic_fibers():
    for n in range(1, 21):
        assert gr_elliptic_fiber(n).value == 2 - n
    cap = base_pieces()["D2xT2"]
    doubled = glue(cap, cap)
    assert doubled.closed
    assert doubled.fiber_gr == 2
    assert gr_elliptic_fiber(2).value == 0


def test_criterion_5_spherical_counts():
    cp = preset("cp2")
    L = cp.parse("L")
    assert cp.sphere_table[2 * L] == 1
    assert cp.sphere_table[3 * L] == 12
    assert gr_s(cp, 2 * L) == 1
    assert gr_s(cp, 3 * L) == 12
    b1 = preset("cp2_blowup(1)")
    assert gr_s(b1, b1.parse("3L + E1")) == 12
    b2 = preset("cp2_blowup(2)")
    assert gr_s(b2, b2.parse("L + E1 + E2")) == 1
    assert gr_s(b2, b2.parse("L - E1 + E2")) == 1
    ruled = preset("s2xt2")
    assert gr_s(ruled, 2 * ruled.parse("S")) == 1
    configs = enumerate_sphere_configs(cp, 2 * L)
    assert all(cfg.parts != (L, L) for cfg in configs)
    assert [cfg.parts for cfg in configs] == [(2 * L,)]


def _cone_class(m, ref, rng):
    # Drawn from the box [-9, 9]^rank until it lies in the forward cone, which
    # the oracle confirms.  Two such draws are uniform on (cone and box)^2, as
    # a pair drawn whole and rejected unless both lie in the cone would be.
    while True:
        A = m.lattice.class_from_coords([rng.randint(-9, 9) for _ in range(m.lattice.rank)])
        if in_forward_cone(A):
            assert refs.in_cone(ref, A.coords), (m.name, A.coords)
            return A


def test_criterion_6_structure_properties():
    cone_models = [
        preset("cp2"),
        preset("cp2_blowup(2)"),
        preset("s2xs2"),
        preset("s2xt2"),
        preset("elliptic(1)"),
    ]
    rng = random.Random(4242)
    for m in cone_models:
        assert b2_plus(m.lattice) == 1
        ref = ref_model(m)
        for _ in range(10_000):
            A, B = _cone_class(m, ref, rng), _cone_class(m, ref, rng)
            rep = light_cone_pair_check(A, B)
            assert rep.ok, (m.name, A.coords, B.coords, rep.failed())

    scan = preset("cp2_blowup(2)")
    for coords in itertools.product(range(-5, 6), repeat=3):
        A = scan.lattice.class_from_coords(list(coords))
        if A.is_zero or pair(A, A) >= 0:
            continue
        expected = c1(A) == 1 and pair(A, A) == -1
        assert classify_negative(A).is_exceptional_sphere == expected, coords

    _decompositions_match_oracle()


def _decompositions_match_oracle():
    cp = preset("cp2")
    L = cp.parse("L")
    b1 = preset("cp2_blowup(1)")
    b2 = preset("cp2_blowup(2)")
    ss = preset("s2xs2")
    A1, A2 = ss.parse("A1"), ss.parse("A2")
    st = preset("s2xt2")
    S, B = st.parse("S"), st.parse("B")
    el1 = preset("elliptic(1)")
    el2 = preset("elliptic(2)")
    F1, S1 = el1.parse("F"), el1.parse("S")
    F2, S2 = el2.parse("F"), el2.parse("S")
    cases = [
        (cp, [L, 2 * L, 3 * L]),
        (b1, [b1.parse("L"), b1.parse("E1"), b1.parse("L - E1")]),
        (b2, [b2.parse("L"), b2.parse("L - E1"), b2.parse("L - E2"),
              b2.parse("2L - E1 - E2")]),
        (ss, [A1, A2, A1 + A2]),
        (st, [S, B, S + B]),
        (el1, [F1, F1 + S1]),
        (el2, [F2, 2 * F2, S2 + 2 * F2, S2 + 3 * F2]),
    ]
    for model, candidates in cases:
        assert model.lattice.rank <= 3
        assert len(candidates) <= 4
        ref = ref_model(model)
        targets = {}
        for vec in itertools.product(range(3), repeat=len(candidates)):
            A = model.lattice.zero()
            for cand, n in zip(candidates, vec):
                A = A + n * cand
            if 0 < omega_area(A) <= 12:
                targets[A.coords] = A
        # off-span targets so the empty answer is exercised too
        for cand in candidates:
            bumped = cand + model.canonical_class()
            if 0 < omega_area(bumped) <= 12:
                targets[bumped.coords] = bumped
        assert targets
        for A in targets.values():
            got = enumerate_decompositions(model, A, candidates)
            for dec in got:
                assert dec.satisfies_rules(A)
            got_keys = {tuple(sorted(p.coords for p in dec.parts)) for dec in got}
            want = set(refs.decompositions(ref, A.coords, [c.coords for c in candidates]))
            assert got_keys == want, (
                model.name,
                A.coords,
            )


def test_criterion_7_kmin_consistency():
    for n in range(2, 8):
        m = preset(f"elliptic({n})")
        assert check_kmin_constraints(m, fiber_gr_table(n)).ok, n
    m = preset("elliptic(3)")
    F, S = m.parse("F"), m.parse("S")
    corrupt = dict(fiber_gr_table(3))
    A = 3 * F + S
    assert k(A) == 1
    corrupt[A] = 1
    rep = check_kmin_constraints(m, corrupt)
    clause = rep.check("i")
    assert not clause.passed
    assert A in clause.witness


def test_criterion_8_dimension_corollaries():
    # The analytic transversality and compactness statements have no
    # finite-check content; their numeric shadow is the dimension formula
    # and the adjunction equalities, which are pinned here instead.
    cp = preset("cp2")
    L = cp.parse("L")
    assert moduli_dimension(L, 0) == 2 * 2 + 6
    assert moduli_dimension(3 * L, 1) == 2 * 9 + 2
    st = preset("s2xt2")
    assert moduli_dimension(st.parse("B"), 1) == 2
    headline = [
        (cp, 3 * L, 1),
        (preset("s2xs2"), preset("s2xs2").parse("A1 + A2"), 0),
        (preset("cp2_blowup(1)"), preset("cp2_blowup(1)").parse("L - E1"), 0),
    ]
    for model, A, g in headline:
        assert genus_embedded(A) == g
        assert k(A) == ell_g(A, genus_embedded(A))
    el4 = preset("elliptic(4)")
    fiber = el4.parse("F")
    assert genus_embedded(fiber) == 1
    assert k(fiber) == ell_g(fiber, 1) == 0

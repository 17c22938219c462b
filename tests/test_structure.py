"""Configuration verdicts, decomposition enumeration against the bench/refs.py oracle."""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gromov4 import (
    Component,
    Configuration,
    Decomposition,
    IntersectionLattice,
    InvalidCandidateError,
    ManifoldModel,
    PreconditionError,
    SphereConfig,
    UnknownGr0Error,
    b2_plus,
    check_kmin_constraints,
    enumerate_decompositions,
    fiber_gr_table,
    gromov_via_decompositions,
    k,
    load_model,
    omega_area,
    pair,
    preset,
    verify_good_configuration,
    verify_kprime_configuration,
)
from oracle import ref_model, refs


def _diag11():
    lat = IntersectionLattice(
        "flat", ("P", "Q"), ((1, 0), (0, 1)), (1, 1), (Fraction(1), Fraction(1))
    )
    P, Q = lat.basis_class(0), lat.basis_class(1)
    return ManifoldModel(
        lattice=lat,
        exceptional=(),
        minimal=False,
        gr0_table={P: 2, Q: -3, P + Q: 7},
        torus_table={},
        sphere_table={},
    )


def test_component_and_configuration_validation():
    m = preset("cp2")
    L = m.parse("L")
    with pytest.raises(ValueError):
        Component(L, 0)
    with pytest.raises(ValueError):
        Component(L, 1, -1)
    with pytest.raises(ValueError):
        Configuration(())
    with pytest.raises(ValueError, match="^a decomposition needs at least one part$"):
        Decomposition(())
    other = preset("s2xs2").parse("A1")
    with pytest.raises(Exception):
        Configuration((Component(L), Component(other)))
    cfg = Configuration.of([(L, 2, 1), (L, 1, 0)])
    assert cfg.total == 3 * L


@pytest.mark.parametrize(
    "build, what",
    [
        (lambda parts: Configuration([Component(p) for p in parts]), "configuration components"),
        (Decomposition, "decomposition parts"),
        (SphereConfig, "sphere configuration parts"),
    ],
    ids=["Configuration", "Decomposition", "SphereConfig"],
)
def test_a_record_of_classes_takes_them_from_one_lattice(build, what):
    # Else the record is built and its total fails later, far from the cause.
    parts = [preset("cp2").parse("L"), preset("cp2_blowup(1)").parse("L")]
    with pytest.raises(ValueError, match=f"^{what} must share one lattice$"):
        build(parts)
    assert build(parts[:1]) == build(parts[:1])


LINE = preset("cp2").parse("L")


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Component(5), "component class must be a homology class"),
        (lambda: Configuration(["x"]), "configuration components must be Components"),
        (lambda: Configuration([Component(LINE), LINE]), "configuration components must be Components"),
        (lambda: Configuration([Component(5)]), "component class must be a homology class"),
        (lambda: Decomposition([1, 2]), "decomposition parts must be homology classes"),
        (lambda: Decomposition([LINE, "L"]), "decomposition parts must be homology classes"),
        (lambda: SphereConfig(["L"]), "sphere configuration parts must be homology classes"),
        (lambda: SphereConfig([LINE, None]), "sphere configuration parts must be homology classes"),
    ],
    ids=[
        "Component", "Configuration-text", "Configuration-class", "Configuration-of-a-number",
        "Decomposition", "Decomposition-second", "SphereConfig", "SphereConfig-second",
    ],
)
def test_a_record_of_classes_refuses_parts_that_are_not_classes(build, message):
    # Checked before any sort or lattice read, which would raise a bare
    # AttributeError or TypeError.
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


def test_good_configuration_passes():
    b1 = preset("cp2_blowup", 1)
    cfg = Configuration.of([(b1.parse("L"), 1, 0), (b1.parse("E1"), 1, 0)])
    rep = verify_good_configuration(b1, cfg, 2)
    assert rep.ok
    ss = preset("s2xs2")
    A1 = ss.parse("A1")
    rep2 = verify_good_configuration(ss, Configuration.of([(A1, 1, 0), (A1, 1, 0)]), 2)
    assert rep2.ok


def test_good_configuration_rejects_covered_exceptional_sphere():
    b1 = preset("cp2_blowup", 1)
    cfg = Configuration.of([(b1.parse("L"), 1, 0), (b1.parse("E1"), 2, 0)])
    rep = verify_good_configuration(b1, cfg, 2)
    assert not rep.ok
    assert not rep.check("multiplicity").passed
    # the stated point count disagrees with k(L+2E1) = 1 as well
    assert not rep.check("points").passed
    with pytest.raises(KeyError) as info:
        rep.check("genus")
    assert info.value.args == ("no condition named 'genus' in this report",)


def test_good_configuration_rejects_a_negative_non_exceptional_component():
    b2 = preset("cp2_blowup", 2)
    D = b2.parse("E1 - E2")
    rep = verify_good_configuration(b2, Configuration.of([(D, 1, 0)]), k(D))
    check = rep.check("negative-exceptional")
    assert not check.passed
    assert check.witness == (D,)


def test_good_configuration_square_zero_torus_may_be_covered():
    st = preset("s2xt2")
    B = st.parse("B")
    cfg = Configuration.of([(B, 2, 1)])
    rep = verify_good_configuration(st, cfg, k(2 * B))
    assert rep.check("multiplicity").passed


def test_passing_good_configurations_split_the_point_budget():
    b2 = preset("cp2_blowup", 2)
    pool = [
        (b2.parse(s), mult, g)
        for s in ("L", "2L", "3L", "E1", "E2", "L - E1", "L - E1 - E2")
        for mult in (1, 2)
        for g in (0, 1)
    ]
    passed = 0
    for combo in itertools.combinations(pool, 2):
        cfg = Configuration.of(list(combo))
        rep = verify_good_configuration(b2, cfg, k(cfg.total))
        if rep.ok:
            passed += 1
            assert sum(k(c.mult * c.cls) for c in cfg.components) == k(cfg.total)
    assert passed > 0


def test_kprime_configuration_passes():
    b1 = preset("cp2_blowup", 1)
    cfg = Configuration.of([(b1.parse("L"), 1, 0), (b1.parse("E1"), 2, 0)])
    rep = verify_kprime_configuration(b1, cfg, 2)
    assert rep.ok
    cp2 = preset("cp2")
    rep2 = verify_kprime_configuration(cp2, Configuration.of([(cp2.parse("3L"), 1, 1)]), 9)
    assert rep2.ok


def test_kprime_configuration_flags_intersecting_components():
    b1 = preset("cp2_blowup", 1)
    LmE, E = b1.parse("L - E1"), b1.parse("E1")
    cfg = Configuration.of([(LmE, 1, 0), (E, 3, 0)])
    rep = verify_kprime_configuration(b1, cfg)
    assert not rep.ok
    ch = rep.check("disjoint")
    assert not ch.passed
    wit = {frozenset((str(a), str(b))): prod for a, b, prod in ch.witness}
    assert wit[frozenset(("L-E1", "E1"))] == 1
    # A negative pairing breaks disjointness as well, in both verifiers.
    LpE = b1.parse("L + E1")
    cfg = Configuration.of([(LpE, 1, 0), (E, 1, 0)])
    for rep in (verify_good_configuration(b1, cfg, 1), verify_kprime_configuration(b1, cfg)):
        assert rep.check("disjoint").witness == ((LpE, E, -1),)


def test_kprime_configuration_whole_cover_passes():
    # mult 3 on E matches m_E(L+3E) = 3, so nothing is out of place
    b1 = preset("cp2_blowup", 1)
    cfg = Configuration.of([(b1.parse("L"), 1, 0), (b1.parse("E1"), 3, 0)])
    assert verify_kprime_configuration(b1, cfg).ok


def test_kprime_configuration_checks_strip_multiplicity():
    # splitting the E-cover across two components breaks the count
    b1 = preset("cp2_blowup", 1)
    cfg = Configuration.of(
        [(b1.parse("L"), 1, 0), (b1.parse("E1"), 2, 0), (b1.parse("E1"), 1, 0)]
    )
    rep = verify_kprime_configuration(b1, cfg)
    assert not rep.check("strip-multiplicity").passed


def test_enumeration_two_orthogonal_positive_parts():
    m = _diag11()
    P, Q = m.parse("P"), m.parse("Q")
    A = P + Q
    decs = enumerate_decompositions(m, A, [P, Q])
    assert [set(map(str, d.parts)) for d in decs] == [{"P", "Q"}]
    decs2 = enumerate_decompositions(m, A, [P, Q, A])
    assert len(decs2) == 2
    assert {frozenset(map(str, d.parts)) for d in decs2} == {
        frozenset({"P", "Q"}),
        frozenset({"P+Q"}),
    }


def test_enumeration_reads_a_one_shot_iterable_once():
    m = preset("s2xs2")
    A1, A2 = m.parse("A1"), m.parse("A2")
    cands = [A1, A2, A1 + A2]
    want = enumerate_decompositions(m, A1 + A2, cands)
    assert len(want) == 1
    assert enumerate_decompositions(m, A1 + A2, iter(cands)) == want
    assert gromov_via_decompositions(m, A1 + A2, iter(cands)) == 1
    with pytest.raises(InvalidCandidateError, match="^candidate -A1 must have positive area$"):
        enumerate_decompositions(m, A1, (c for c in [A2, -A1, A1 - A2]))


def test_enumeration_groups_square_zero_ray():
    st = preset("s2xt2")
    B = st.parse("B")
    decs = enumerate_decompositions(st, 2 * B, [B])
    assert len(decs) == 1
    assert decs[0].parts == (2 * B,)
    # a redundant non-primitive candidate must not duplicate the ray part
    decs2 = enumerate_decompositions(st, 3 * B, [B, 2 * B])
    assert len(decs2) == 1
    assert decs2[0].parts == (3 * B,)


def test_enumeration_empty_when_unreachable():
    m = _diag11()
    P, Q = m.parse("P"), m.parse("Q")
    assert enumerate_decompositions(m, 2 * P + 3 * Q, [P, Q]) == []


def test_enumeration_rejects_bad_candidates():
    ss = preset("s2xs2")
    A1 = ss.parse("A1")
    with pytest.raises(InvalidCandidateError):
        enumerate_decompositions(ss, A1, [-A1])
    with pytest.raises(InvalidCandidateError):
        enumerate_decompositions(ss, A1, [ss.lattice.zero()])
    with pytest.raises(InvalidCandidateError):
        enumerate_decompositions(ss, A1, [preset("cp2").parse("L")])


def test_enumeration_rejects_a_candidate_that_is_not_a_class():
    ss = preset("s2xs2")
    A = ss.parse("A1 + A2")
    for bad in (None, "A1", (1, 0)):
        for search in (enumerate_decompositions, gromov_via_decompositions):
            for cands, i in (([bad], 0), ([A, bad], 1)):
                with pytest.raises(InvalidCandidateError) as info:
                    search(ss, A, cands)
                assert str(info.value) == f"candidate {i} is not a homology class: {bad!r}"
            # from the second round on, the search holds a kept table
            assert search(ss, A, [A])


def test_enumeration_filters_nonzero_budget_candidates_on_minimal_models():
    el = preset("elliptic", 3)
    F, S = el.parse("F"), el.parse("S")
    assert k(F) == 0
    assert k(S + F) != 0
    decs = enumerate_decompositions(el, 5 * F, [F, S + F])
    assert len(decs) == 1
    assert decs[0].parts == (5 * F,)


def test_decomposition_objects():
    m = _diag11()
    P, Q = m.parse("P"), m.parse("Q")
    decs = enumerate_decompositions(m, P + Q, [P, Q])
    d = decs[0]
    assert d.total() == P + Q
    assert d.satisfies_rules(P + Q)
    assert not d.satisfies_rules(P)
    # Each total below is right, so only the part rules can say no.
    b1 = preset("cp2_blowup", 1)
    L, E1 = b1.parse("L"), b1.parse("E1")
    assert not Decomposition((L - E1, E1)).satisfies_rules(L)  # E1.E1 < 0
    assert not Decomposition((L, E1)).satisfies_rules(L + E1)  # E1.E1 < 0, L.E1 = 0
    ss = preset("s2xs2")
    A1, A2 = ss.parse("A1"), ss.parse("A2")
    assert not Decomposition((A1, A1 + A2)).satisfies_rules(2 * A1 + A2)  # A1.(A1+A2) = 1
    B = preset("s2xt2").parse("B")
    assert not Decomposition((B, 2 * B)).satisfies_rules(3 * B)  # orthogonal but proportional


def test_enumeration_matches_oracle():
    flat = _diag11()
    P, Q = flat.parse("P"), flat.parse("Q")
    ss = preset("s2xs2")
    A1, A2 = ss.parse("A1"), ss.parse("A2")
    st = preset("s2xt2")
    S, B = st.parse("S"), st.parse("B")
    b2 = preset("cp2_blowup", 2)
    el1 = preset("elliptic", 1)
    F, Sec = el1.parse("F"), el1.parse("S")
    cases = [
        (flat, [P, Q, P + Q], [P, Q, P + Q, 2 * P + Q, 3 * P + 3 * Q, 2 * P]),
        (ss, [A1, A2, A1 + A2], [A1, 2 * A1, A1 + A2, 2 * A1 + 2 * A2, 3 * A2]),
        (st, [S, B, S + B], [2 * B, S + B, 2 * S + 2 * B, 3 * B, S + 3 * B]),
        (
            b2,
            [b2.parse("L"), b2.parse("E1"), b2.parse("L - E1 - E2"), b2.parse("3L")],
            [b2.parse("3L"), b2.parse("2L - E1 - E2"), b2.parse("L + E1")],
        ),
        (el1, [F, F + Sec], [2 * F, 3 * F, F + Sec, 2 * F + Sec]),
    ]
    for model, candidates, targets in cases:
        ref = ref_model(model)
        for A in targets:
            got = enumerate_decompositions(model, A, candidates)
            for d in got:
                assert d.satisfies_rules(A)
            got_keys = {tuple(sorted(p.coords for p in d.parts)) for d in got}
            want = set(refs.decompositions(ref, A.coords, [c.coords for c in candidates]))
            assert got_keys == want, (model.name, A.coords)


# Per model: a pool of positive-area candidates, and the shapes the search
# must get right, each a group that is put into the drawn candidate set
# whole.  The flat lattice is positive definite, so it has no square-negative
# or nonzero square-zero class.
_DIFF_CASES = {
    "flat": (
        ["P", "Q", "2P", "P+Q", "2P+Q", "P+2Q", "3Q"],
        {"proportional": ["P", "2P"], "intersecting": ["P", "P+Q"]},
    ),
    "s2xt2": (
        ["S", "B", "2B", "3B", "S+B", "2S", "S+2B", "2S+B"],
        {
            "negative": ["2S-B"],
            "proportional": ["S+B", "2S+2B"],
            "same-ray": ["B", "2B"],
            "intersecting": ["S", "B"],
        },
    ),
    "cp2_blowup(2)": (
        ["L", "2L", "E1", "E2", "L-E1", "L-E2", "L-E1-E2", "2L-E1-E2", "2L-2E1", "L+E1"],
        {
            "negative": ["E1", "L-E1-E2"],
            "proportional": ["L", "2L"],
            "same-ray": ["L-E1", "2L-2E1"],
            "intersecting": ["L", "L-E1"],
        },
    ),
}
_DIFF_MODELS = {"flat": _diag11(), "s2xt2": preset("s2xt2"), "cp2_blowup(2)": preset("cp2_blowup", 2)}
_DIFF_REFS = {name: ref_model(model) for name, model in _DIFF_MODELS.items()}


def _oracle_vectors(A, candidates):
    # the coefficient vectors within the area bound: capped, they keep targets small
    n = 1
    for c in candidates:
        n *= int(omega_area(A) / omega_area(c)) + 1
    return n


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_enumeration_matches_oracle_on_drawn_candidates(data):
    name = data.draw(st.sampled_from(sorted(_DIFF_CASES)))
    model = _DIFF_MODELS[name]
    pool, groups = _DIFF_CASES[name]
    group = data.draw(st.sampled_from(sorted(groups)))
    extra = data.draw(st.lists(st.sampled_from(pool), max_size=3, unique=True))
    exprs = list(dict.fromkeys(groups[group] + extra))
    candidates = [model.parse(e) for e in data.draw(st.permutations(exprs))]
    A = model.lattice.zero()
    for c in candidates:
        A = A + data.draw(st.integers(min_value=0, max_value=2)) * c
    if A.is_zero or data.draw(st.booleans()):
        A = A + model.parse(data.draw(st.sampled_from(pool)))
    if _oracle_vectors(A, candidates) > 4000:
        A = candidates[0]
    want = refs.decompositions(_DIFF_REFS[name], A.coords, [c.coords for c in candidates])
    # The second search reads the table the first one left on the model.
    again = data.draw(st.permutations(candidates + [data.draw(st.sampled_from(candidates))]))
    for cands in (candidates, again):
        got = enumerate_decompositions(model, A, cands)
        assert all(d.satisfies_rules(A) for d in got)
        assert [tuple(p.coords for p in d.parts) for d in got] == want, (name, A.coords)


def test_empty_answers_of_large_searches():
    ruled = preset("s2xt2")
    S, B = ruled.parse("S"), ruled.parse("B")
    assert enumerate_decompositions(ruled, S + 64 * B, [S, B, 2 * B, S + B]) == []
    b4 = preset("cp2_blowup", 4)
    cands = [b4.parse(e) for e in ("L", "L-E1", "L-E2", "L-E3", "L-E4", "2L", "E1", "E2", "E3")]
    assert enumerate_decompositions(b4, b4.parse("6L"), cands) == []


def test_gromov_ray_counts_match_torus_series():
    st = preset("s2xt2")
    B = st.parse("B")
    for n in range(1, 7):
        assert gromov_via_decompositions(st, n * B) == n + 1


def test_gromov_product_rule():
    m = _diag11()
    P, Q = m.parse("P"), m.parse("Q")
    assert gromov_via_decompositions(m, P + Q, [P, Q]) == -6
    # adding the combined class as its own candidate adds its table value
    assert gromov_via_decompositions(m, P + Q, [P, Q, P + Q]) == 1
    assert gromov_via_decompositions(m, P + Q) == 1


def test_gromov_indecomposable_single_candidate():
    m = _diag11()
    A = m.parse("P + Q")
    assert gromov_via_decompositions(m, A, [A]) == 7


def test_gromov_trivial_and_unreachable():
    m = _diag11()
    assert gromov_via_decompositions(m, m.lattice.zero()) == 1
    assert gromov_via_decompositions(m, m.parse("2P + 3Q")) == 0
    cp2 = preset("cp2")
    assert gromov_via_decompositions(cp2, cp2.parse("2L")) == 1
    assert gromov_via_decompositions(cp2, cp2.parse("5L")) == 0


def test_gromov_missing_count_is_an_error(bare_model_file):
    ss = preset("s2xs2")
    A1 = ss.parse("A1")
    with pytest.raises(UnknownGr0Error) as info:
        gromov_via_decompositions(ss, 2 * A1)
    assert any("A1" in str(c) for c in info.value.classes)
    # a square-positive part without a gr0_table entry
    cp2 = preset("cp2")
    A = cp2.parse("4L")
    with pytest.raises(UnknownGr0Error) as info:
        gromov_via_decompositions(cp2, A, [A])
    assert info.value.classes == (A,)
    # a file model with no tables: every part of every decomposition is
    # missing, and one error names them all in coordinate order
    bare = load_model(bare_model_file)
    P, Q = bare.parse("P"), bare.parse("Q")
    for cands in ([P, Q, P + Q], [P + Q, Q, P, Q]):  # the second reuses the kept table
        with pytest.raises(UnknownGr0Error) as info:
            gromov_via_decompositions(bare, P + Q, cands)
        assert info.value.classes == (Q, P, P + Q)
    assert bare._decomposition_candidates is not None


def test_kmin_passes_consistent_tables():
    el3 = preset("elliptic", 3)
    F = el3.parse("F")
    table = {F: -1, el3.lattice.zero(): 1}
    assert check_kmin_constraints(el3, table).ok
    for n in range(2, 7):
        el = preset("elliptic", n)
        assert check_kmin_constraints(el, fiber_gr_table(n)).ok


def test_kmin_flags_nonzero_budget():
    el3 = preset("elliptic", 3)
    A = el3.parse("-3F - S")
    assert k(A) == 2
    rep = check_kmin_constraints(el3, {A: 1})
    assert not rep.check("i").passed
    assert A in rep.failed()[0].witness


def test_kmin_flags_duality_mismatch():
    el3 = preset("elliptic", 3)
    F = el3.parse("F")
    rep = check_kmin_constraints(el3, {el3.lattice.zero(): 1, F: -2})
    assert rep.check("i").passed
    assert not rep.check("iii").passed
    assert rep.check("iv").passed


def test_kmin_flags_nonzero_square_when_canonical_is_null():
    el2 = preset("elliptic", 2)
    F, S = el2.parse("F"), el2.parse("S")
    rep = check_kmin_constraints(el2, {F: 5, S: 1})
    assert not rep.check("iv").passed
    assert S in [w for w in rep.failed() if w.cond == "iv"][0].witness


def test_kmin_square_clause_needs_a_null_canonical_class():
    lat = IntersectionLattice(
        "flat", ("P", "Q"), ((1, 0), (0, 1)), (1, 1), (Fraction(1), Fraction(1))
    )
    model = ManifoldModel(lattice=lat, minimal=True)
    K = model.canonical_class()
    assert (b2_plus(lat), pair(K, K)) == (2, 2)
    rep = check_kmin_constraints(model, {lat.basis_class(0): 1})
    assert rep.check("iv").passed
    assert rep.check("iv").detail == "K.K != 0; clause not applicable"


def test_kmin_preconditions():
    with pytest.raises(PreconditionError):
        check_kmin_constraints(preset("cp2_blowup", 1), {})
    with pytest.raises(PreconditionError):
        check_kmin_constraints(preset("cp2"), {})

"""Sphere-only counts: admissible splits, configurations, assignment factors."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from gromov4 import (
    AssignmentAmbiguityWarning,
    IntersectionLattice,
    ManifoldModel,
    PreconditionError,
    SphereConfig,
    UnknownSphereCountError,
    assignment_factor,
    c1,
    embedded_sphere_rule,
    enumerate_sphere_configs,
    gr_s,
    k_for,
    omega_area,
    pair,
    preset,
)
from oracle import ref_model, refs


def test_point_budget_for_given_component_count():
    cp2 = preset("cp2")
    assert k_for(cp2.parse("2L"), 1) == 5
    b1 = preset("cp2_blowup(1)")
    A = b1.parse("3L + E1")
    assert c1(A) == 10
    assert k_for(A, 2) == 8
    assert k_for(cp2.parse("L"), 3) == 0
    with pytest.raises(PreconditionError):
        k_for(cp2.parse("2L"), 0)
    with pytest.raises(PreconditionError):
        k_for(cp2.parse("2L"), 7)


def test_config_enumeration_matches_oracle():
    cases = [
        (preset("cp2"), ["L", "2L", "3L", "4L", "5L", "6L", "-L"]),
        (preset("cp2_blowup(1)"), ["3E1", "L+2E1", "3L+E1", "2L-E1", "L-E1", "5L", "2L+2E1"]),
        (preset("cp2_blowup(2)"), ["L+E1+E2", "3E1", "L-E1+E2", "2L+E1", "2L", "E1-E2"]),
        (preset("cp2_blowup(3)"), ["3E1", "L+E1+E2", "L-E1-E2+E3", "2L-E1", "E1+E2+E3"]),
        (preset("s2xs2"), ["A1+A2", "2A1", "3A1+A2", "2A1+2A2", "A1-A2"]),
    ]
    nonempty = 0
    for model, targets in cases:
        ref = ref_model(model)
        for expr in targets:
            A = model.parse(expr)
            configs = enumerate_sphere_configs(model, A)
            got = [(tuple(B.coords for B in cfg.parts), cfg.k, cfg.p) for cfg in configs]
            assert got == refs.sphere_configs(ref, A.coords, ref.spheres), (model.name, expr)
            for cfg in configs:
                assert cfg.k == c1(A) - cfg.p and cfg.p == len(cfg.parts), (model.name, expr)
            nonempty += bool(got)
    assert nonempty >= 15


def _uneven_blowup() -> ManifoldModel:
    """The plane blown up at four points with areas not proportional to c1:
    omega(L) = 7/2 and omega(E_i) = 1/5, so the area bound admits far more
    parts than c1(A) does.  Three L-E_i-E_j classes of the sphere table are
    not stored as exceptional, so they are capped at one copy."""
    n = 4
    lat = IntersectionLattice(
        name="cp2#4",
        basis=("L",) + tuple(f"E{i}" for i in range(1, n + 1)),
        gram=tuple(tuple((1 if i == 0 else -1) if i == j else 0 for j in range(n + 1)) for i in range(n + 1)),
        canonical=(-3,) + (1,) * n,
        area=(Fraction(7, 2),) + (Fraction(1, 5),) * n,
    )
    L, Es = lat.basis_class(0), [lat.basis_class(i) for i in range(1, n + 1)]
    spheres = {L: 1, 2 * L: 1, 3 * L: 12}
    for E in Es:
        spheres[E] = spheres[L - E] = 1
    for i, j in ((0, 1), (0, 2), (2, 3)):
        spheres[L - Es[i] - Es[j]] = 1
    return ManifoldModel(lat, exceptional=tuple(Es), sphere_table=spheres)


UNEVEN = _uneven_blowup()
UNEVEN_REF = ref_model(UNEVEN)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_config_enumeration_matches_oracle_on_uneven_areas(data):
    # Only here could a part bound in the search cut what the area bound
    # lets through; the oracle applies p <= c1(A) itself.
    lat = UNEVEN.lattice
    if data.draw(st.booleans()):  # a sum of table classes, so that answers are not all empty
        small = sorted((B for B in UNEVEN.sphere_table if c1(B) <= 3), key=lambda B: B.coords)
        A = lat.zero()
        for B in data.draw(st.lists(st.sampled_from(small), min_size=1, max_size=3)):
            A = A + B
    else:
        A = lat.class_from_coords([data.draw(st.integers(0, 2))] + data.draw(st.lists(st.integers(-2, 2), min_size=4, max_size=4)))
    assume(c1(A) <= 7)  # the oracle's walk grows fast with c1(A)
    got = [(tuple(B.coords for B in cfg.parts), cfg.k, cfg.p) for cfg in enumerate_sphere_configs(UNEVEN, A)]
    assert got == refs.sphere_configs(UNEVEN_REF, A.coords, UNEVEN_REF.spheres)


def test_config_enumeration_blowup():
    b1 = preset("cp2_blowup(1)")
    A = b1.parse("3L + E1")
    configs = enumerate_sphere_configs(b1, A)
    assert len(configs) == 1
    cfg = configs[0]
    assert sorted(str(B) for B in cfg.parts) == ["3L", "E1"]
    assert (cfg.k, cfg.p) == (8, 2)


def test_config_enumeration_rejects_crossing_pair():
    cp2 = preset("cp2")
    configs = enumerate_sphere_configs(cp2, cp2.parse("2L"))
    assert len(configs) == 1
    assert [str(B) for B in configs[0].parts] == ["2L"]
    # {L, L} never appears: L is neither exceptional nor square zero
    assert all(len(cfg.parts) == 1 for cfg in configs)


def test_config_enumeration_three_disjoint_spheres():
    b2 = preset("cp2_blowup(2)")
    A = b2.parse("L + E1 + E2")
    configs = enumerate_sphere_configs(b2, A)
    assert len(configs) == 1
    assert sorted(str(B) for B in configs[0].parts) == ["E1", "E2", "L"]


def test_config_enumeration_empty_cases():
    cp2 = preset("cp2")
    assert enumerate_sphere_configs(cp2, -cp2.parse("L")) == []
    # every multiset summing to 5L trips the crossing or repeat rules
    assert enumerate_sphere_configs(cp2, cp2.parse("5L")) == []


def test_coinciding_exceptional_images_are_allowed():
    b1 = preset("cp2_blowup(1)")
    configs = enumerate_sphere_configs(b1, b1.parse("3E1"))
    assert len(configs) == 1
    assert [str(B) for B in configs[0].parts] == ["E1", "E1", "E1"]
    assert configs[0].k == 0


def test_cubics_on_the_triple_blowup():
    b3 = preset("cp2_blowup(3)")
    configs = enumerate_sphere_configs(b3, b3.parse("3L"))
    assert [([str(B) for B in cfg.parts], cfg.k, cfg.p) for cfg in configs] == [(["3L"], 8, 1)]
    assert gr_s(b3, b3.parse("3L")) == 12


def test_config_budgets_identity():
    b2 = preset("cp2_blowup(2)")
    for expr in ("L", "2L", "3L + E1", "L + E1 + E2", "L - E1 + E2", "2L + E1"):
        for cfg in enumerate_sphere_configs(b2, b2.parse(expr)):
            assert sum(cfg.budgets()) == cfg.k
            assert all(c1(B) >= 1 for B in cfg.parts)


def test_no_two_positive_square_parts_on_low_b2plus():
    for m in (preset("cp2"), preset("cp2_blowup(2)"), preset("s2xs2")):
        for key in m.sphere_table:
            for other in m.sphere_table:
                A = key + other
                for cfg in enumerate_sphere_configs(m, A):
                    big = [
                        B
                        for B in set(cfg.parts)
                        if pair(B, B) >= 1 and B not in m.exceptional
                    ]
                    assert len(big) <= 1


def test_sphere_counts_on_presets():
    cp2 = preset("cp2")
    assert gr_s(cp2, cp2.parse("2L")) == 1
    assert gr_s(cp2, cp2.parse("3L")) == 12
    b1 = preset("cp2_blowup(1)")
    assert gr_s(b1, b1.parse("3L + E1")) == 12
    b2 = preset("cp2_blowup(2)")
    assert gr_s(b2, b2.parse("L + E1 + E2")) == 1
    assert gr_s(b2, b2.parse("L - E1 + E2")) == 1
    ruled = preset("s2xt2")
    assert gr_s(ruled, 2 * ruled.parse("S")) == 1


def test_connected_case_agrees_with_table():
    cp2 = preset("cp2")
    assert gr_s(cp2, cp2.parse("L")) == cp2.sphere_table[cp2.parse("L")]


def test_repeated_exceptional_parts_cost_nothing():
    b2 = preset("cp2_blowup(2)")
    A = b2.parse("L + 2E1")
    configs = enumerate_sphere_configs(b2, A)
    wanted = [cfg for cfg in configs if sorted(map(str, cfg.parts)) == ["E1", "E1", "L"]]
    assert len(wanted) == 1
    factor, ambiguous = assignment_factor(b2, wanted[0])
    assert factor == 1 and not ambiguous


def test_assignment_factor_and_ambiguity_warning():
    base = preset("s2xt2")
    S = base.parse("S")
    doubled = ManifoldModel(
        lattice=base.lattice,
        exceptional=(),
        minimal=True,
        gr0_table={},
        torus_table=dict(base.torus_table),
        sphere_table={S: 2},
    )
    with pytest.warns(AssignmentAmbiguityWarning):
        total = gr_s(doubled, 2 * S)
    # two labelled points over two budget-1 copies: multinomial 2 over (1,1)
    # divided by the 2! symmetry, times the 2x2 table products
    assert total == 4
    # with a count of 1 the same shape is silent
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert gr_s(base, 2 * S) == 1


def test_unknown_count_error():
    st = preset("s2xt2")
    twoS = 2 * st.parse("S")
    odd = SphereConfig((twoS, twoS))
    with pytest.raises(UnknownSphereCountError):
        assignment_factor(st, odd)


def test_sphere_config_validation():
    st = preset("s2xt2")
    S = st.parse("S")
    assert (SphereConfig((S,)).k, SphereConfig((S,)).p) == (1, 1)
    with pytest.raises(ValueError):
        SphereConfig(())
    # c1(-S) = -2, so the one budget c1 - 1 is negative and so is k
    with pytest.raises(ValueError):
        SphereConfig((-S,))


def test_embedded_sphere_rule():
    b1 = preset("cp2_blowup(1)")
    assert embedded_sphere_rule(b1, b1.parse("E1")) == 1
    cp2 = preset("cp2")
    assert embedded_sphere_rule(cp2, cp2.parse("L")) == 1
    assert embedded_sphere_rule(cp2, cp2.parse("3L")) is None
    # right genus and square, but not represented in the table
    b2 = preset("cp2_blowup(2)")
    assert embedded_sphere_rule(b2, b2.parse("2L - E1 - E2")) is None
    # an entry of 0 is read, and marks the class as not represented
    L = cp2.parse("L")
    assert embedded_sphere_rule(ManifoldModel(cp2.lattice, sphere_table={L: 0}), L) is None


def orthogonal_multiple(A, B):
    """Whether B can be a part of A among orthogonal parts."""
    ab, bb = pair(A, B), pair(B, B)
    return ab == 0 if bb == 0 else ab % bb == 0 and ab // bb >= 1


def test_orthogonality_filter_keeps_the_oracle_answers():
    # Picked parts are orthogonal, so A.B = n * B.B fixes the multiplicity
    # of each part B.B != 0, and a part with B.B = 0 needs A.B = 0.  In each
    # case below that rule drops keys the area bound alone would try.
    cases = [
        (preset("cp2_blowup(2)"), ["L+E1+2E2", "L-E1+2E2", "2L+E1"]),
        (preset("cp2_blowup(3)"), ["L-E1+E2-E3", "L+E1-E2+E3", "L-E1-E2+2E3"]),
    ]
    for model, targets in cases:
        ref = ref_model(model)
        for expr in targets:
            A = model.parse(expr)
            fits = [B for B in model.sphere_table if omega_area(B) <= omega_area(A)]
            assert any(not orthogonal_multiple(A, B) for B in fits), (model.name, expr)
            got = [
                (tuple(B.coords for B in cfg.parts), cfg.k, cfg.p)
                for cfg in enumerate_sphere_configs(model, A)
            ]
            assert got and got == refs.sphere_configs(ref, A.coords, ref.spheres), (model.name, expr)


def test_large_exceptional_set_configuration():
    b9 = preset("cp2_blowup(9)")
    configs = enumerate_sphere_configs(b9, b9.parse("2L+E1+3E2+2E6+E8"))
    assert [([str(B) for B in cfg.parts], cfg.k, cfg.p) for cfg in configs] == [
        (["E8", "E6", "E6", "E2", "E2", "E2", "E1", "2L"], 5, 8)
    ]

"""Sphere-only counts: admissible splits, configurations, assignment factors."""

from __future__ import annotations

from itertools import combinations

import pytest

from gromov4 import (
    AssignmentAmbiguityWarning,
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


def test_point_budget_for_given_component_count():
    cp2 = preset("cp2")
    assert k_for(cp2.parse("2L"), 1) == 5
    b1 = preset("cp2_blowup", 1)
    A = b1.parse("3L + E1")
    assert c1(A) == 10
    assert k_for(A, 2) == 8
    assert k_for(cp2.parse("L"), 3) == 0
    with pytest.raises(PreconditionError):
        k_for(cp2.parse("2L"), 0)
    with pytest.raises(PreconditionError):
        k_for(cp2.parse("2L"), 7)


# Brute-force oracle: walk every multiplicity vector on the table keys
# within the area bound omega(A), and keep those that satisfy the rules of
# the module docstring, computed from the raw Gram matrix, K and areas.
def oracle_sphere_configs(model, A):
    lat = model.lattice
    rank = lat.rank

    def dot(u, v):
        return sum(u[r] * lat.gram[r][s] * v[s] for r in range(rank) for s in range(rank))

    def area(u):
        return sum(w * x for w, x in zip(lat.area, u))

    def vectors(i, w_left):
        if i == len(keys):
            yield ()
            return
        n = 0
        while n * area(keys[i]) <= w_left:
            for rest in vectors(i + 1, w_left - n * area(keys[i])):
                yield (n,) + rest
            n += 1

    keys = sorted(B.coords for B in model.sphere_table)
    exceptional = {E.coords for E in model.exceptional}
    cA = -dot(lat.canonical, A.coords)
    found = []
    for vec in vectors(0, area(A.coords)):
        picked = [(B, n) for B, n in zip(keys, vec) if n]
        p = sum(vec)
        if (
            picked
            and tuple(sum(n * B[r] for B, n in picked) for r in range(rank)) == A.coords
            and all(dot(B, C) == 0 for (B, _), (C, _) in combinations(picked, 2))
            and all(n == 1 or B in exceptional or dot(B, B) == 0 for B, n in picked)
            and all(-dot(lat.canonical, B) >= 1 for B, _ in picked)
            and p <= cA
        ):
            found.append((tuple(B for B, n in picked for _ in range(n)), cA - p, p))
    return sorted(found, key=lambda cfg: (cfg[2], cfg[0]))


def test_config_enumeration_matches_oracle():
    cases = [
        (preset("cp2"), ["L", "2L", "3L", "4L", "5L", "6L", "-L"]),
        (preset("cp2_blowup", 1), ["3E1", "L+2E1", "3L+E1", "2L-E1", "L-E1", "5L", "2L+2E1"]),
        (preset("cp2_blowup", 2), ["L+E1+E2", "3E1", "L-E1+E2", "2L+E1", "2L", "E1-E2"]),
        (preset("cp2_blowup", 3), ["3E1", "L+E1+E2", "L-E1-E2+E3", "2L-E1", "E1+E2+E3"]),
        (preset("s2xs2"), ["A1+A2", "2A1", "3A1+A2", "2A1+2A2", "A1-A2"]),
    ]
    nonempty = 0
    for model, targets in cases:
        for expr in targets:
            A = model.parse(expr)
            configs = enumerate_sphere_configs(model, A)
            got = [(tuple(B.coords for B in cfg.parts), cfg.k, cfg.p) for cfg in configs]
            assert got == oracle_sphere_configs(model, A), (model.name, expr)
            for cfg in configs:
                assert cfg.k == c1(A) - cfg.p and cfg.p == len(cfg.parts), (model.name, expr)
            nonempty += bool(got)
    assert nonempty >= 15


def test_config_enumeration_blowup():
    b1 = preset("cp2_blowup", 1)
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
    b2 = preset("cp2_blowup", 2)
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
    b1 = preset("cp2_blowup", 1)
    configs = enumerate_sphere_configs(b1, b1.parse("3E1"))
    assert len(configs) == 1
    assert [str(B) for B in configs[0].parts] == ["E1", "E1", "E1"]
    assert configs[0].k == 0


def test_cubics_on_the_triple_blowup():
    b3 = preset("cp2_blowup", 3)
    configs = enumerate_sphere_configs(b3, b3.parse("3L"))
    assert [([str(B) for B in cfg.parts], cfg.k, cfg.p) for cfg in configs] == [(["3L"], 8, 1)]
    assert gr_s(b3, b3.parse("3L")) == 12


def test_config_budgets_identity():
    b2 = preset("cp2_blowup", 2)
    for expr in ("L", "2L", "3L + E1", "L + E1 + E2", "L - E1 + E2", "2L + E1"):
        for cfg in enumerate_sphere_configs(b2, b2.parse(expr)):
            assert sum(cfg.budgets()) == cfg.k
            assert all(c1(B) >= 1 for B in cfg.parts)


def test_no_two_positive_square_parts_on_low_b2plus():
    for m in (preset("cp2"), preset("cp2_blowup", 2), preset("s2xs2")):
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
    b1 = preset("cp2_blowup", 1)
    assert gr_s(b1, b1.parse("3L + E1")) == 12
    b2 = preset("cp2_blowup", 2)
    assert gr_s(b2, b2.parse("L + E1 + E2")) == 1
    assert gr_s(b2, b2.parse("L - E1 + E2")) == 1
    ruled = preset("s2xt2")
    assert gr_s(ruled, 2 * ruled.parse("S")) == 1


def test_connected_case_agrees_with_table():
    cp2 = preset("cp2")
    assert gr_s(cp2, cp2.parse("L")) == cp2.sphere_table[cp2.parse("L")]


def test_repeated_exceptional_parts_cost_nothing():
    b2 = preset("cp2_blowup", 2)
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
    b1 = preset("cp2_blowup", 1)
    assert embedded_sphere_rule(b1, b1.parse("E1")) == 1
    cp2 = preset("cp2")
    assert embedded_sphere_rule(cp2, cp2.parse("L")) == 1
    assert embedded_sphere_rule(cp2, cp2.parse("3L")) is None
    # right genus and square, but not represented in the table
    b2 = preset("cp2_blowup", 2)
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
        (preset("cp2_blowup", 2), ["L+E1+2E2", "L-E1+2E2", "2L+E1"]),
        (preset("cp2_blowup", 3), ["L-E1+E2-E3", "L+E1-E2+E3", "L-E1-E2+2E3"]),
    ]
    for model, targets in cases:
        for expr in targets:
            A = model.parse(expr)
            fits = [B for B in model.sphere_table if omega_area(B) <= omega_area(A)]
            assert any(not orthogonal_multiple(A, B) for B in fits), (model.name, expr)
            got = [
                (tuple(B.coords for B in cfg.parts), cfg.k, cfg.p)
                for cfg in enumerate_sphere_configs(model, A)
            ]
            assert got and got == oracle_sphere_configs(model, A), (model.name, expr)


def test_large_exceptional_set_configuration():
    b9 = preset("cp2_blowup", 9)
    configs = enumerate_sphere_configs(b9, b9.parse("2L+E1+3E2+2E6+E8"))
    assert [([str(B) for B in cfg.parts], cfg.k, cfg.p) for cfg in configs] == [
        (["E8", "E6", "E6", "E2", "E2", "E2", "E1", "2L"], 5, 8)
    ]

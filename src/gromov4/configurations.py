"""Configurations: the claimed curve sets that `verify` checks.

A Configuration is what a compactness argument hands back: a multiset of
(class, multiplicity, genus) components.  The two verify_* operations
check the numeric equality chains that make such a configuration count:
disjointness, multiplicity rules, the exceptional-sphere classification of
negative components, and the point-budget bookkeeping
sum_i ell_{g_i}(B_i) = k(A), respectively k'(A) = k(B) for the reduced
class B after stripping multiply covered exceptional spheres.

check_kmin_constraints flags violations of the constraints satisfied by
the invariants of a minimal manifold with b2+ > 1: (i) Gr(A) != 0 forces
k(A) = 0, (iii) |Gr(A)| = |Gr(K-A)|, and (iv) if K.K = 0, Gr(A) != 0
forces A.A = 0.  Only the verify command reads this module.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .errors import PreconditionError, _Frozen, _require_int
from .invariants import (
    EXCEPTIONAL_SPHERE, Check, Report, classify_negative, ell_g, is_good_class, k, k_prime, m_e,
)
from .lattice import HClass, ManifoldModel, _square, b2_plus, pair


class Component(_Frozen):
    """A curve component: underlying class, covering multiplicity, genus."""

    _fields = ("cls", "mult", "genus")

    def __init__(self, cls: HClass, mult: int = 1, genus: int = 0) -> None:
        if not isinstance(cls, HClass):
            raise ValueError("component class must be a homology class")
        _require_int(mult, "component multiplicity")
        _require_int(genus, "component genus")
        if mult < 1:
            raise ValueError("component multiplicity must be >= 1")
        if genus < 0:
            raise ValueError("component genus must be non-negative")
        super().__init__(cls, mult, genus)


class Configuration(_Frozen):
    """A nonempty multiset of components; the total class is recomputed."""

    _fields = ("components",)

    def __init__(self, components: Sequence[Component]) -> None:
        comps = tuple(components)
        if not comps:
            raise ValueError("a configuration needs at least one component")
        for comp in comps:  # comps[0] is checked first
            if not isinstance(comp, Component):
                raise ValueError("configuration components must be Components")
            if comp.cls.lattice != comps[0].cls.lattice:
                raise ValueError("configuration components must share one lattice")
        super().__init__(comps)

    @property
    def total(self) -> HClass:
        comps = self.components
        return sum((comp.mult * comp.cls for comp in comps), comps[0].cls.lattice.zero())

    @classmethod
    def of(cls, items: Iterable) -> "Configuration":
        """Build from (cls, mult, genus) triples."""
        return cls(tuple(Component(c, mult, genus) for c, mult, genus in items))


def _disjoint(comps: Sequence[Component]) -> Check:
    """The "disjoint" condition: components pair to zero, two at a time."""
    bad = []
    for i in range(len(comps)):
        for j in range(i + 1, len(comps)):
            p = pair(comps[i].cls, comps[j].cls)
            if p != 0:
                bad.append((comps[i].cls, comps[j].cls, p))
    return Check(
        "disjoint", not bad, tuple(bad), "components must have pairwise zero intersection"
    )


def verify_good_configuration(
    model: ManifoldModel, cfg: Configuration, points: int
) -> Report:
    """Check the conditions under which a configuration is good.

    Conditions reported: "points" (the requested point count equals
    k(total)), "disjoint" (pairwise zero intersections), "multiplicity"
    (mult = 1 except for square-zero tori), "negative-exceptional" (every
    negative-square component class is an exceptional sphere),
    "budget-sum" (sum of ell_g(B_i, g_i) equals k(total)), and
    "cover-bound" (k(mult*B_i) >= ell_g(B_i, g_i) componentwise).
    """
    comps = cfg.components
    total = cfg.total
    kt = k(total)
    checks = [
        Check("points", points == kt, (total,), f"points={points}, k(total)={kt}"),
        _disjoint(comps),
    ]
    bad_mult = tuple(
        comp.cls
        for comp in comps
        if comp.mult != 1 and not (comp.genus == 1 and _square(comp.cls) == 0)
    )
    checks.append(
        Check(
            "multiplicity",
            not bad_mult,
            bad_mult,
            "multiplicity > 1 is allowed only on square-zero tori",
        )
    )
    bad_neg = tuple(
        comp.cls
        for comp in comps
        if _square(comp.cls) < 0
        and classify_negative(comp.cls).kind != EXCEPTIONAL_SPHERE
    )
    checks.append(
        Check(
            "negative-exceptional",
            not bad_neg,
            bad_neg,
            "negative-square components must be exceptional spheres",
        )
    )
    budget = sum(ell_g(comp.cls, comp.genus) for comp in comps)
    checks.append(
        Check(
            "budget-sum",
            budget == kt,
            (total,),
            f"sum ell_g = {budget}, k(total) = {kt}",
        )
    )
    bad_cover = tuple(
        comp.cls
        for comp in comps
        if k(comp.mult * comp.cls) < ell_g(comp.cls, comp.genus)
    )
    checks.append(
        Check(
            "cover-bound",
            not bad_cover,
            bad_cover,
            "each component needs k(m B) >= ell_g(B)",
        )
    )
    return Report(tuple(checks))


def verify_kprime_configuration(
    model: ManifoldModel, cfg: Configuration, points: int | None = None
) -> Report:
    """Check a configuration against the corrected count k'.

    Components covering a stored exceptional class with multiplicity >= 2
    are the stripped part; the rest sums to the reduced class B.
    Conditions reported: "disjoint" (all components pairwise orthogonal,
    which covers both strip-strip and strip-remainder intersections),
    "strip-multiplicity" (each stripped cover equals m_E(total)),
    "good-part" (B is a good class), "kprime-equality" (k'(total) = k(B)),
    and "points" when a point count is supplied (it must equal k'(total)).
    """
    comps = cfg.components
    total = cfg.total
    stripped = tuple(
        comp for comp in comps if comp.cls in model.exceptional and comp.mult >= 2
    )
    rest = tuple(comp for comp in comps if comp not in stripped)
    B = sum((comp.mult * comp.cls for comp in rest), total.lattice.zero())
    checks = [_disjoint(comps)]
    bad_mult = tuple(
        (comp.cls, comp.mult, m_e(model, total, comp.cls))
        for comp in stripped
        if comp.mult != m_e(model, total, comp.cls)
    )
    checks.append(
        Check(
            "strip-multiplicity",
            not bad_mult,
            bad_mult,
            "each stripped exceptional cover must equal m_E(total)",
        )
    )
    checks.append(
        Check(
            "good-part",
            is_good_class(model, B),
            (B,),
            "the unstripped part must be a good class",
        )
    )
    kp = k_prime(model, total)
    checks.append(
        Check(
            "kprime-equality",
            kp == k(B),
            (total, B),
            f"k'(total) = {kp}, k(B) = {k(B)}",
        )
    )
    if points is not None:
        checks.append(
            Check("points", points == kp, (total,), f"points={points}, k'(total)={kp}")
        )
    return Report(tuple(checks))


def check_kmin_constraints(model: ManifoldModel, table: dict) -> Report:
    """Flag invariant-table entries violating the minimal-manifold rules.

    Requires a minimal model with b2+ > 1.  Clause (i): k(A) != 0 with a
    nonzero count; clause (iii): |Gr(A)| != |Gr(K-A)| when both classes
    are present; clause (iv): K.K = 0 and a nonzero count on A.A != 0.
    """
    if not model.minimal or b2_plus(model.lattice) <= 1:
        raise PreconditionError("the constraints apply to minimal models with b2+ > 1")
    K = model.canonical_class()
    items = sorted(table.items(), key=lambda kv: kv[0].coords)
    wit_i = tuple(A for A, v in items if v != 0 and k(A) != 0)
    wit_iii = []
    for A, v in items:
        partner = K - A
        if partner in table and A.coords <= partner.coords:
            if abs(v) != abs(table[partner]):
                wit_iii.append((A, partner))
    if _square(K) == 0:
        wit_iv = tuple(A for A, v in items if v != 0 and _square(A) != 0)
        detail_iv = "K.K = 0 forces square zero on classes with nonzero count"
    else:
        wit_iv = ()
        detail_iv = "K.K != 0; clause not applicable"
    return Report(
        (
            Check("i", not wit_i, wit_i, "nonzero count needs k(A) = 0"),
            Check("iii", not wit_iii, tuple(wit_iii), "|Gr(A)| must equal |Gr(K-A)|"),
            Check("iv", not wit_iv, wit_iv, detail_iv),
        )
    )

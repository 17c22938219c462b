"""Scalar invariants of homology classes.

The quantities computed here drive every curve count in the package:

    k(A)      = (c1(A) + A.A)/2, the generic point budget of A;
    ell_g(A)  = c1(A) + g - 1, the point budget of a connected genus-g
                curve (half the index of the deformation problem);
    k'(A)     = k(A) + sum_E (m_E(A)^2 - m_E(A))/2, the budget corrected
                for multiply covered exceptional spheres, where
                m_E(A) = max(-A.E, 0);
    genus_embedded(A) = 1 + (K.A + A.A)/2, the adjunction genus, attained
                exactly by embedded connected curves.

The moduli dimension 2(c1(A)+g-1) + dim G_g adds the dimension of the
reparametrization group: 6 for spheres, 2 for tori, 0 above.

classify_negative settles which negative-square classes a generic almost
complex structure can represent by a somewhere-injective curve: the two
index constraints c1+g-1 >= 0 and c1+2(g-1) <= A.A < 0 admit a solution
only at (g, c1, A.A) = (0, 1, -1), i.e. for exceptional spheres.

reduce_multicovers strips the multiply covered exceptional components
from a class: B = A - sum over {E : A.E < -1} of m_E(A) E.  The resulting
B is a good class and k(B) = k'(A) whenever the stripped exceptional
classes are pairwise orthogonal and orthogonal to B; the function verifies
this and warns when the stored exceptional set breaks it.

The forward-cone predicates support the light cone positivity rule: when b2+ = 1,
two classes in the closed forward cone (square >= 0, area >= 0) pair
non-negatively, with a zero product only for proportional null classes.

The light cone check here and the checks in configurations.py return a Report
of named Check clauses, each with its witnesses (usually the offending classes).
"""

from __future__ import annotations

import warnings
from collections import namedtuple

from .errors import (
    NotInExceptionalSetError,
    PreconditionError,
    ReductionConsistencyWarning,
    _Frozen,
    _require_int,
)
from .lattice import (
    HClass,
    ManifoldModel,
    _area_numerator,
    _exceptional_pairings,
    _exceptional_table,
    _proportional,
    _square,
    b2_plus,
    c1,
    pair,
)

EXCEPTIONAL_SPHERE = "ExceptionalSphere"
NOT_REPRESENTABLE = "NotRepresentable"

_DIM_G = {0: 6, 1: 2}


def k(A: HClass) -> int:
    """Point budget k(A) = (c1(A) + A.A)/2."""
    return (c1(A) + _square(A)) // 2


def m_e(model: ManifoldModel, A: HClass, E: HClass) -> int:
    """Multiplicity m_E(A) = max(-A.E, 0) of the exceptional class E in A."""
    try:
        r = model.exceptional.index(E)
    except ValueError:
        raise NotInExceptionalSetError(f"{E} is not in the stored exceptional set") from None
    return max(-_exceptional_pairings(model, A)[r], 0)


def k_prime(model: ManifoldModel, A: HClass) -> int:
    """k(A) plus the multi-cover correction over the stored exceptional set."""
    return _k_prime(A, _exceptional_pairings(model, A))


def _k_prime(A: HClass, pairings: tuple[int, ...]) -> int:
    """k'(A) from A's exceptional pairings."""
    # m = -A.E when A.E < -1, so (m^2 - m)/2 = (p^2 + p)/2 for p = A.E.
    return k(A) + sum([(p * p + p) // 2 for p in pairings if p < -1])


def ell_g(A: HClass, g: int) -> int:
    """Point budget c1(A) + g - 1 of a connected genus-g curve in A."""
    _require_int(g, "genus")
    if g < 0:
        raise PreconditionError("genus must be non-negative")
    return c1(A) + g - 1


def genus_embedded(A: HClass) -> int:
    """Adjunction genus 1 + (K.A + A.A)/2.

    May be negative; callers read a negative value as "not representable
    by an embedded connected curve".
    """
    return 1 + (_square(A) - c1(A)) // 2  # K.A = -c1(A)


def moduli_dimension(A: HClass, g: int) -> int:
    """Dimension 2(c1(A)+g-1) + dim G_g of the parametrized moduli space."""
    return 2 * ell_g(A, g) + _DIM_G.get(g, 0)


def is_good_class(model: ManifoldModel, A: HClass) -> bool:
    """True when E.A >= -1 for every stored exceptional class E."""
    return min(_exceptional_pairings(model, A), default=0) >= -1


class NegClassVerdict(_Frozen):
    """Outcome of classify_negative.

    kind is ExceptionalSphere or NotRepresentable; the witness triple
    (g, c1, square) exists exactly in the exceptional-sphere case, where
    the constraint arithmetic forces it to be (0, 1, -1).
    """

    _fields = ("kind",)

    def __init__(self, kind: str) -> None:
        if kind not in (EXCEPTIONAL_SPHERE, NOT_REPRESENTABLE):
            raise ValueError(f"bad verdict kind {kind!r}")
        super().__init__(kind)

    @property
    def is_exceptional_sphere(self) -> bool:
        return self.kind == EXCEPTIONAL_SPHERE

    @property
    def witness(self) -> tuple[int, int, int] | None:
        return (0, 1, -1) if self.is_exceptional_sphere else None


def classify_negative(A: HClass) -> NegClassVerdict:
    """Decide whether a negative-square class is an exceptional sphere.

    For a somewhere-injective genus-g curve under generic data, both
    c1(A) + g - 1 >= 0 and c1(A) + 2(g-1) <= A.A must hold.  With A.A < 0
    the first gives g - 1 <= c1(A) + 2(g-1) <= A.A <= -1, so g = 0; then
    1 <= c1(A) <= A.A + 2 <= 1, so (g, c1(A), A.A) = (0, 1, -1) is the
    only solution.
    """
    sq = _square(A)
    if sq >= 0:
        raise PreconditionError(f"classify_negative needs A.A < 0, got {sq}")
    if sq == -1 and c1(A) == 1:
        return NegClassVerdict(EXCEPTIONAL_SPHERE)
    return NegClassVerdict(NOT_REPRESENTABLE)


ReduceResult = namedtuple("ReduceResult", [
    "good_part",  # the HClass left once the strips are subtracted
    "strips",  # each stripped (E, m_E(A)), a tuple of pairs
])


def reduce_multicovers(model: ManifoldModel, A: HClass) -> ReduceResult:
    """Strip multiply covered exceptional spheres from A.

    Returns (B, strips) with B = A - sum m_E(A) E over the stored E with
    A.E < -1 and strips listing each stripped (E, m_E(A)).  Consistency
    (B good, k(B) = k'(A)) is verified; a warning is issued when the
    stored exceptional set is too entangled for it to hold.  A's pairings
    are read once, for the strips and for k'(A) alike.
    """
    pairings = _exceptional_pairings(model, A)
    strips = tuple((E, -p) for E, p in zip(model.exceptional, pairings) if p < -1)
    if not strips:
        # Then every A.E >= -1 and k'(A) = k(A): A is its own good part.
        return ReduceResult(A, ())
    coords = list(A.coords)
    supports = _exceptional_table(model).supports
    for r, p in enumerate(pairings):
        if p < -1:  # subtract m_E E = -p E over E's nonzero coordinates
            for i, e in supports[r]:
                coords[i] += p * e
    B = HClass(tuple(coords), A.lattice)
    if not is_good_class(model, B) or k(B) != _k_prime(A, pairings):
        warnings.warn(
            ReductionConsistencyWarning(
                f"reduction of {A} is inconsistent; stored exceptional classes "
                f"are not pairwise orthogonal and orthogonal to the remainder"
            )
        )
    return ReduceResult(B, strips)


def in_forward_cone(A: HClass, strict: bool = False) -> bool:
    """Membership in the (closed, or open when strict) forward cone."""
    sq = _square(A)
    w = _area_numerator(A)
    if strict:
        return sq > 0 and w > 0
    return sq >= 0 and w >= 0


class Check(_Frozen):
    _fields = ("cond", "passed", "witness", "detail")


class Report(_Frozen):
    _fields = ("checks",)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self) -> tuple[Check, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def check(self, cond: str) -> Check:
        for c in self.checks:
            if c.cond == cond:
                return c
        raise KeyError(f"no condition named {cond!r} in this report")


def light_cone_pair_check(B1: HClass, B2: HClass) -> Report:
    """Check the light cone inequality on a pair of forward-cone classes.

    Requires b2+ = 1.  Asserts B1.B2 >= 0, and that a zero product happens
    only for rationally proportional null classes (or when one class is
    zero, which is proportional to everything).
    """
    B1.lattice._require_same(B2.lattice)
    if b2_plus(B1.lattice) != 1:
        raise PreconditionError(
            f"light cone check needs b2+ = 1, lattice {B1.lattice.name} has "
            f"{b2_plus(B1.lattice)}"
        )
    for X in (B1, B2):
        if not in_forward_cone(X):
            raise PreconditionError(f"{X} is not in the closed forward cone")
    prod = pair(B1, B2)
    checks = [Check("nonnegative-product", prod >= 0, (B1, B2), f"B1.B2 = {prod}")]
    if prod == 0:
        degenerate = B1.is_zero or B2.is_zero
        both_null = _square(B1) == 0 and _square(B2) == 0
        ok = _proportional(B1, B2) and (degenerate or both_null)
        detail = "zero pairing must come from proportional null classes"
        checks.append(Check("zero-product-proportional-null", ok, (B1, B2), detail))
    return Report(tuple(checks))

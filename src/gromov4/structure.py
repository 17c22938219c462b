"""Configurations, decompositions, and the counts assembled from them.

A Configuration is what a compactness argument hands back: a multiset of
(class, multiplicity, genus) components.  The two verify_* operations
check the numeric equality chains that make such a configuration count:
disjointness, multiplicity rules, the exceptional-sphere classification of
negative components, and the point-budget bookkeeping
sum_i ell_{g_i}(B_i) = k(A), respectively k'(A) = k(B) for the reduced
class B after stripping multiply covered exceptional spheres.

A Decomposition of A is a splitting A = B_1 + ... + B_l into pairwise
orthogonal, pairwise non-proportional parts of non-negative square, where
square-zero parts are grouped by ray (all candidate multiples of one
primitive class merge into a single part).  The total invariant is

    Gr(A) = sum over decompositions D of prod_i Gr0(B_i),

with each Gr0(B_i) read by the model's gr0 (lattice.ManifoldModel.gr0),
the one reader of the Gr0 and torus tables.  Candidate parts are always
explicit inputs; the finiteness of relevant classes is a compactness
statement with no constructive bound, so nothing is inferred silently.

Decompositions and the sphere configurations of spherical.py come from
one search, _orthogonal_combinations: pairwise orthogonal candidates whose
capped multiplicities sum to A.  Decompositions cap a negative square at
0, a positive square at 1, and leave square zero uncapped.  Caps and area
are the only bounds: a sphere configuration needs none on its part count
p, since its parts have c1 >= 1 and so p <= sum of c1 = c1(A).  The
search runs on a _CandidateTable of integer rows (each candidate's
coordinates, its covector Gram.B, B.B, its area numerator and its cap), so
every pairing in it is one dot product and the remaining class is an int
tuple: the search neither pairs nor builds a class.  A model keeps the
table of its last decomposition search, keyed by the set of candidate
coordinate tuples, so a later search on the same set (in any order, with
repeats, or as a generator) reuses the rows and any other set replaces
them; the sphere table is built once per model.  The clash sets between
the kept candidates depend on A and are found per query.

check_kmin_constraints flags violations of the constraints satisfied by
the invariants of a minimal manifold with b2+ > 1: (i) Gr(A) != 0 forces
k(A) = 0, (iii) |Gr(A)| = |Gr(K-A)|, and (iv) if K.K = 0, Gr(A) != 0
forces A.A = 0.
"""

from __future__ import annotations

from operator import mul
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import InvalidCandidateError, PreconditionError, UnknownGr0Error, _Frozen, _require_int
from .invariants import EXCEPTIONAL_SPHERE, classify_negative, ell_g, is_good_class, k, k_prime, m_e
from .lattice import (
    HClass,
    ManifoldModel,
    _area_numerator,
    _covector,
    _proportional,
    _square,
    b2_plus,
    pair,
)
from .report import Check, Report


class Component(_Frozen):
    """A curve component: underlying class, covering multiplicity, genus."""

    _fields = ("cls", "mult", "genus")

    def __init__(self, cls: HClass, mult: int = 1, genus: int = 0) -> None:
        _require_int(mult, "component multiplicity")
        _require_int(genus, "component genus")
        if mult < 1:
            raise ValueError("component multiplicity must be >= 1")
        if genus < 0:
            raise ValueError("component genus must be non-negative")
        object.__setattr__(self, "cls", cls)
        object.__setattr__(self, "mult", mult)
        object.__setattr__(self, "genus", genus)


class Configuration(_Frozen):
    """A nonempty multiset of components; the total class is recomputed."""

    _fields = ("components",)

    def __init__(self, components: Sequence[Component]) -> None:
        comps = tuple(components)
        if not comps:
            raise ValueError("a configuration needs at least one component")
        lat = comps[0].cls.lattice
        for comp in comps[1:]:
            if comp.cls.lattice != lat:
                raise ValueError("configuration components must share one lattice")
        object.__setattr__(self, "components", comps)

    @property
    def total(self) -> HClass:
        acc = self.components[0].cls.lattice.zero()
        for comp in self.components:
            acc = acc + comp.mult * comp.cls
        return acc

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
    B = total.lattice.zero()
    for comp in rest:
        B = B + comp.mult * comp.cls
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


class Decomposition(_Frozen):
    """Pairwise orthogonal, non-proportional parts of non-negative square."""

    _fields = ("parts",)

    def __init__(self, parts: Iterable[HClass]) -> None:
        parts = tuple(sorted(parts, key=lambda p: p.coords))
        if not parts:
            raise ValueError("a decomposition needs at least one part")
        object.__setattr__(self, "parts", parts)

    def total(self) -> HClass:
        acc = self.parts[0].lattice.zero()
        for p in self.parts:
            acc = acc + p
        return acc

    def satisfies_rules(self, A: HClass) -> bool:
        """Re-verify the decomposition conditions against the class A."""
        if self.total() != A:
            return False
        for i, p in enumerate(self.parts):
            if _square(p) < 0:
                return False
            for q in self.parts[i + 1 :]:
                if pair(p, q) != 0 or _proportional(p, q):
                    return False
        return True


class _CandidateTable(NamedTuple):
    """The candidates of a search as integer rows, row i for candidate i."""

    classes: tuple[HClass, ...]
    coords: tuple[tuple[int, ...], ...]
    covectors: tuple[tuple[int, ...], ...]  # Gram.B: A.B is one dot product
    squares: tuple[int, ...]
    areas: tuple[int, ...]  # area numerators, all positive
    caps: tuple[int | None, ...]  # most copies of B, None for no bound


def _candidate_table(
    cands: Sequence[HClass], cap: Callable[[HClass, int], int | None]
) -> _CandidateTable:
    """The rows of cands, in their order; cap(B, B.B) gives each cap."""
    coords = tuple(B.coords for B in cands)
    covs = tuple(map(_covector, cands))
    squares = tuple(sum(map(mul, b, v)) for b, v in zip(coords, covs))
    return _CandidateTable(
        tuple(cands),
        coords,
        covs,
        squares,
        tuple(map(_area_numerator, cands)),
        tuple(map(cap, cands, squares)),
    )


def _orthogonal_combinations(A: HClass, table: _CandidateTable) -> Iterator[list[tuple[HClass, int]]]:
    """Every selection [(B, n), ...] of table classes with n >= 1 and
    sum n * B = A.

    Candidate B enters at most its cap times (None: no bound), and each
    picked candidate pairs to zero with every other one, so A.B = n * B.B
    for each picked B.  That fixes n when B.B != 0 and needs A.B = 0 when
    B.B = 0; candidates failing it are dropped up front.  The other rules
    prune inside the recursion; a branch ends once the remaining class is
    zero or its area is not positive, and a candidate that no later one can
    join takes the one multiplicity that would finish the sum.  Each
    selection comes once, in candidate order.

    The search runs on the table's integer rows: A.B and the clashes
    B.B' != 0 are dot products with the covectors, and the remaining class
    is an int tuple, so no pairing is called and no class is built.  A must
    live in the candidates' lattice; the callers check it.
    """
    classes, coords, covs, areas = table.classes, table.coords, table.covectors, table.areas
    copies = {}  # kept candidate index -> (fewest, most) copies; most None for no bound
    for i, (cov, sq, cap) in enumerate(zip(covs, table.squares, table.caps)):
        ab = sum(map(mul, A.coords, cov))
        if sq == 0 and ab == 0 and cap != 0:
            copies[i] = (1, cap)
        elif sq != 0 and ab % sq == 0 and 1 <= ab // sq <= (ab // sq if cap is None else cap):
            copies[i] = (ab // sq, ab // sq)
    clash = {i: {j for j in copies if sum(map(mul, coords[i], covs[j]))} for i in copies}

    def search(allowed: list, remaining: tuple, w_left, picked: list):
        if not any(remaining):
            yield picked
            return
        if w_left <= 0:
            return
        for pos, i in enumerate(allowed):
            fewest, most = copies[i]
            top = w_left // areas[i]
            if most is not None and most < top:
                top = most
            rest = [j for j in allowed[pos + 1 :] if j not in clash[i]]
            b = coords[i]
            if not rest:  # nothing can follow candidate i: solve for its multiplicity
                n, r = divmod(w_left, areas[i])
                if r == 0 and n <= top and tuple([n * x for x in b]) == remaining:
                    yield picked + [(classes[i], n)]
                continue
            for n in range(fewest, top + 1):
                rem = tuple([y - n * x for x, y in zip(b, remaining)])
                yield from search(rest, rem, w_left - n * areas[i], picked + [(classes[i], n)])

    w_total = _area_numerator(A)
    if w_total > 0:
        yield from search(list(copies), A.coords, w_total, [])


def _decomposition_cap(B: HClass, sq: int) -> int | None:
    # A negative square never enters; a second copy of a square-positive
    # part would be proportional to it.
    return 0 if sq < 0 else 1 if sq > 0 else None


def enumerate_decompositions(
    model: ManifoldModel, A: HClass, candidates: Iterable[HClass] | None = None
) -> list[Decomposition]:
    """All decompositions of A generated by the candidate classes.

    The coefficients come from _orthogonal_combinations with the caps of
    the module docstring, on the model's table for this candidate set.
    Every part is n * B for a picked candidate B, and the parts on one
    primitive ray add up to one part: only square-zero candidates can share
    a ray, since two square-positive ones on a ray would pair nonzero.
    Orthogonal parts of positive area are never proportional, so no further
    test is needed.  On a minimal model with b2+ > 1, candidates with
    k != 0 are dropped up front: their Gr0 vanishes, so they cannot carry a
    count.

    Candidates, any iterable and read once, default to the classes the
    model has count data for (the union of the gr0_table and torus_table
    keys).  An A that is not a class raises PreconditionError, and A from
    another lattice than the model's LatticeMismatchError, before anything
    else; then the first candidate, in input order, that is not an HClass,
    is from another lattice or has non-positive area raises
    InvalidCandidateError, on a kept table as on a new one.
    """
    if not isinstance(A, HClass):
        raise PreconditionError(f"A is not a homology class: {A!r}")
    lat = model.lattice
    A.lattice._require_same(lat)
    if candidates is None:
        candidates = model.gr0_table.keys() | model.torus_table.keys()
    candidates = list(candidates)
    for i, cand in enumerate(candidates):
        if not isinstance(cand, HClass):
            raise InvalidCandidateError(f"candidate {i} is not a homology class: {cand!r}")
        if cand.lattice != lat:
            raise InvalidCandidateError(f"candidate {cand} lives in another lattice")
        if _area_numerator(cand) <= 0:
            raise InvalidCandidateError(f"candidate {cand} must have positive area")
    coord_set = frozenset([cand.coords for cand in candidates])
    held = model._decomposition_candidates
    if held is not None and held[0] == coord_set:
        table = held[1]
    else:
        cands = sorted(set(candidates), key=lambda cand: cand.coords)
        if model.minimal and b2_plus(lat) > 1:
            cands = [cand for cand in cands if k(cand) == 0]
        table = _candidate_table(cands, _decomposition_cap)
        object.__setattr__(model, "_decomposition_candidates", (coord_set, table))
    found: dict[tuple, Decomposition] = {}
    for selection in _orthogonal_combinations(A, table):
        rays: dict[tuple[int, ...], HClass] = {}
        for cand, n in selection:
            key = cand.primitive().coords
            part = n * cand
            rays[key] = rays[key] + part if key in rays else part
        dec = Decomposition(tuple(rays.values()))
        found[tuple(p.coords for p in dec.parts)] = dec
    return [found[key] for key in sorted(found)]


def gromov_via_decompositions(
    model: ManifoldModel,
    A: HClass,
    candidates: Iterable[HClass] | None = None,
) -> int:
    """Gr(A) as the sum over decompositions of the product of part counts.

    Candidates default as in enumerate_decompositions.  Each part's count
    is model.gr0(part).  The parts without data raise one UnknownGr0Error
    naming them all: a silent zero would fake a vanishing invariant.
    Gr(0) = 1 by convention (the empty curve).
    """
    if not isinstance(A, HClass):
        raise PreconditionError(f"A is not a homology class: {A!r}")
    A.lattice._require_same(model.lattice)
    if A.is_zero:
        return 1
    decs = enumerate_decompositions(model, A, candidates)
    missing: list[HClass] = []
    total = 0
    for dec in decs:
        prod = 1
        for part in dec.parts:
            try:
                prod *= model.gr0(part)
            except UnknownGr0Error:
                missing.append(part)
        total += prod
    if missing:
        uniq = sorted(set(missing), key=lambda cand: cand.coords)
        raise UnknownGr0Error(uniq)
    return total


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

"""Decompositions, the search behind them, and the counts assembled from them.

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
0, a positive square at 1, and leave square zero uncapped.  Caps, area
and sign are the only bounds: where every row is >= 0 (or <= 0) on a
coordinate, so is every sum of rows, so an A of the other sign there is
refused before the search; and a sphere configuration needs no bound on
its part count p, since its parts have c1 >= 1 and so p <= sum of c1 =
c1(A).  The search runs on a _CandidateTable of integer rows (each
candidate's coordinates, its covector Gram.B, B.B, its area numerator and
its cap) and the signs each coordinate takes in them, so every pairing in
it is one dot product and the remaining class is an int tuple: the search
neither pairs nor builds a class.  A model keeps the table of its last
decomposition search, keyed by the set of candidate coordinate tuples,
so a later search on the same set (in any order, with repeats, or as a
generator) reuses the rows and any other set replaces
them; the sphere table is built once per model.  The clash sets between
the kept candidates depend on A and are found per query.

The configuration checks that only the verify command runs live in
configurations.py, so a search call never compiles them.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator, Sequence
from operator import mul

from . import invariants
from .errors import InvalidCandidateError, PreconditionError, UnknownGr0Error, _Frozen
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


def _sorted_parts(parts: Iterable[HClass], record: str) -> tuple[HClass, ...]:
    """The parts of a record of classes, sorted by coordinates, once they
    are checked: at least one, each an HClass, all in one lattice.  record
    names the record in the messages ("decomposition")."""
    parts = tuple(parts)
    if not parts:
        raise ValueError(f"a {record} needs at least one part")
    for p in parts:  # parts[0] is checked first; the identity test spares a search __eq__
        if not isinstance(p, HClass):
            raise ValueError(f"{record} parts must be homology classes")
        if p.lattice is not parts[0].lattice and p.lattice != parts[0].lattice:
            raise ValueError(f"{record} parts must share one lattice")
    return tuple(sorted(parts, key=lambda p: p.coords))


class Decomposition(_Frozen):
    """Pairwise orthogonal, non-proportional parts of non-negative square."""

    _fields = ("parts",)

    def __init__(self, parts: Iterable[HClass]) -> None:
        super().__init__(_sorted_parts(parts, "decomposition"))

    def total(self) -> HClass:
        return sum(self.parts, self.parts[0].lattice.zero())

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


# The candidates of a search as integer rows, row i for candidate i.
_CandidateTable = namedtuple("_CandidateTable", [
    "classes",  # the candidate HClasses
    "coords",  # each candidate's coordinates
    "covectors",  # Gram.B: A.B is one dot product
    "squares",  # B.B
    "areas",  # area numerators, all positive
    "caps",  # most copies of B, None for no bound
    "signs",  # (i, s), s = 1 or -1, where s times coordinate i is >= 0 on every row
])


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
        tuple((i, s) for i, col in enumerate(zip(*coords)) for s in (1, -1) if min(s * c for c in col) >= 0),
    )


def _orthogonal_combinations(A: HClass, table: _CandidateTable) -> Iterator[list[tuple[HClass, int]]]:
    """Every selection [(B, n), ...] of table classes with n >= 1 and
    sum n * B = A.

    Candidate B enters at most its cap times (None: no bound), and each
    picked candidate pairs to zero with every other one, so A.B = n * B.B
    for each picked B.  That fixes n when B.B != 0 and needs A.B = 0 when
    B.B = 0; candidates failing it are dropped up front, and nothing is
    searched when A takes a sign on a coordinate that no row takes there.
    The other rules prune inside the recursion; a branch ends once the
    remaining class is zero or its area is not positive, and a candidate
    that no later one can join takes the one multiplicity that would finish
    the sum.  Each selection comes once, in candidate order.

    The search runs on the table's integer rows: A.B and the clashes
    B.B' != 0 are dot products with the covectors, and the remaining class
    is an int tuple, so no pairing is called and no class is built.  A must
    live in the candidates' lattice; the callers check it.
    """
    if any(A.coords[i] * s < 0 for i, s in table.signs):
        return  # every row, and so every sum of rows, has s * coordinate i >= 0
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


def _require_target(model: ManifoldModel, A: HClass) -> None:
    """The searches' first check: PreconditionError when A is not a class,
    then LatticeMismatchError when it is not in the model's lattice."""
    if not isinstance(A, HClass):
        raise PreconditionError(f"A is not a homology class: {A!r}")
    A.lattice._require_same(model.lattice)


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
    _require_target(model, A)
    lat = model.lattice
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
            cands = [cand for cand in cands if invariants.k(cand) == 0]
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
    _require_target(model, A)
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

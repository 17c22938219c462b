"""The spherical invariant: counts of disjoint unions of rational curves.

Where the total invariant weights tori and covers, the spherical count
Gr_s(A) looks only at configurations of embedded spheres.  A configuration
for A is a multiset of classes B_1 ... B_p from the connected-count table
with sum A, pairwise disjoint representatives (distinct parts must pair to
zero; a class may repeat only if it is exceptional or has square zero, so
that parallel disjoint copies exist), and every part must satisfy
c1(B_i) >= 1: the per-part point budget is k_i = c1(B_i) - 1, and these
budgets add up to the total k = c1(A) - p automatically.  Since every
budget is non-negative, p = c1(A) - k <= c1(A) holds for every multiset
that sums to A, so the part count needs no bound of its own.  The
configurations come from the search shared with decompositions
(structure._orthogonal_combinations), with cap none on exceptional and
square-zero classes and cap 1 on every other class.
Its candidate table (the table classes with c1 >= 1, as integer rows) is
built by _sphere_candidates on the model's first sphere search and kept on
the model, as the exceptional pairing table and the table of the last
decomposition search are.  The model's sphere_table is read-only, so the
kept rows stay true to it.

gr_s weighs each selection of that search as it comes, building no
SphereConfig: the product of the counts N(B_i), read by
ManifoldModel.sphere_count (missing data raises UnknownSphereCountError),
times _weight, the one formula assignment_factor also reads.
When a class repeats r >= 2 times with a positive per-copy budget, the
labelled generic points can be split among the identical copies; the
combinatorial factor (multinomial over the budgets, divided by r! for each
such repeated class) equals 1 in every worked example, and a warning flag
is raised in the genuinely ambiguous situation where a repeated class also
has several representatives (N > 1), since no convention is forced there.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from collections.abc import Collection, Iterable

from . import invariants
from .errors import (
    AssignmentAmbiguityWarning,
    PreconditionError,
    UnknownSphereCountError,
    _Frozen,
    _require_int,
)
from .lattice import HClass, ManifoldModel, _square, c1
from .structure import (
    _CandidateTable, _candidate_table, _orthogonal_combinations, _require_target, _sorted_parts,
)


class SphereConfig(_Frozen):
    """A multiset of sphere classes; its point split (k, p) follows from
    the parts: p parts and k = sum of the budgets c1(B_i) - 1."""

    _fields = ("parts",)

    def __init__(self, parts: Iterable[HClass]) -> None:
        super().__init__(_sorted_parts(parts, "sphere configuration"))
        if self.k < 0:
            raise ValueError(f"point budgets sum to {self.k}; k must be non-negative")

    @property
    def k(self) -> int:
        return sum(self.budgets())

    @property
    def p(self) -> int:
        return len(self.parts)

    def budgets(self) -> tuple[int, ...]:
        return tuple(c1(b) - 1 for b in self.parts)


def k_for(A: HClass, p: int) -> int:
    """The point count k = c1(A) - p for a p-component sphere count."""
    _require_int(p, "p")
    c = c1(A)
    if not 1 <= p <= c:
        raise PreconditionError(f"p must lie in 1..c1(A) = {c}, got {p}")
    return c - p


def _sphere_candidates(model: ManifoldModel) -> _CandidateTable:
    """The model's search table: its sphere-table classes with c1 >= 1 in
    coordinate order, cap none on exceptional and square-zero classes and
    cap 1 on the others.  Built on the model's first sphere search and kept
    on the model; copies, pickles and with_exceptional rebuild a model
    through its constructor and so drop it."""
    table = model._sphere_candidates
    if table is None:
        keys = [B for B in sorted(model.sphere_table, key=lambda b: b.coords) if c1(B) >= 1]
        exceptional = set(model.exceptional)
        table = _candidate_table(keys, lambda B, sq: None if sq == 0 or B in exceptional else 1)
        object.__setattr__(model, "_sphere_candidates", table)
    return table


def enumerate_sphere_configs(model: ManifoldModel, A: HClass) -> list[SphereConfig]:
    """All admissible sphere configurations for A from the count table.

    Returns an empty list when c1(A) < 1 or nothing fits; order is
    deterministic (sorted by part count, then coordinates).  In either case
    an A that is not a class raises PreconditionError, and A from another
    lattice than the model's LatticeMismatchError.
    """
    _require_target(model, A)
    cA = c1(A)
    if cA < 1:
        return []
    configs = []
    for selection in _orthogonal_combinations(A, _sphere_candidates(model)):
        configs.append(SphereConfig(tuple(B for B, r in selection for _ in range(r))))
    configs.sort(key=lambda cfg: (cfg.p, tuple(b.coords for b in cfg.parts)))
    return configs


def _weight(model: ManifoldModel, pairs: Collection[tuple[HClass, int]]) -> tuple[int, bool]:
    """assignment_factor of r copies of B for each (B, r) in pairs, the B distinct."""
    factor, ambiguous = math.factorial(sum(r * (c1(B) - 1) for B, r in pairs)), False
    for B, r in pairs:
        budget = c1(B) - 1
        factor //= math.factorial(budget) ** r
        if r >= 2 and budget >= 1:
            sym = math.factorial(r)
            if factor % sym != 0:
                raise AssertionError("symmetry division must be exact")
            factor //= sym
        ambiguous |= r >= 2 and model.sphere_count(B) > 1
    return factor, ambiguous


def assignment_factor(model: ManifoldModel, config: SphereConfig) -> tuple[int, bool]:
    """Combinatorial weight of a configuration, with an ambiguity flag.

    The factor is the multinomial of the total points over the per-part
    budgets, divided by r! for every class repeated r >= 2 times with a
    positive budget (identical copies are unordered).  The flag is True
    when a repeated class has table count > 1; there the convention is
    documented rather than forced.
    """
    return _weight(model, Counter(config.parts).items())


def gr_s(model: ManifoldModel, A: HClass) -> int:
    """The spherical invariant: sum over configurations of the product of
    connected counts, times the assignment factor; the ambiguous ones warn
    in configuration order."""
    _require_target(model, A)
    if c1(A) < 1:
        return 0
    total, ambiguous = 0, []
    for selection in _orthogonal_combinations(A, _sphere_candidates(model)):
        factor, flag = _weight(model, selection)
        for B, r in selection:
            factor *= model.sphere_count(B) ** r
        total += factor
        if flag:
            ambiguous.append([B for B, r in selection for _ in range(r)])  # candidate order: sorted parts
    for parts in sorted(ambiguous, key=lambda parts: (len(parts), [b.coords for b in parts])):
        warnings.warn(AssignmentAmbiguityWarning(
            f"configuration {[str(b) for b in parts]} repeats a class with several "
            "representatives; the assignment factor is a documented convention"
        ))
    return total


def embedded_sphere_rule(model: ManifoldModel, A: HClass) -> int | None:
    """Gr_s(A) = 1 for a represented embedded sphere of square >= -1.

    Applies when the adjunction genus is 0, A.A >= -1, and sphere_count(A)
    >= 1 (no entry: not represented); returns None when it does not apply.
    """
    if invariants.genus_embedded(A) != 0 or _square(A) < -1:
        return None
    try:
        return 1 if model.sphere_count(A) >= 1 else None
    except UnknownSphereCountError:
        return None

"""The spherical invariant: counts of disjoint unions of rational curves.

Where the total invariant weights tori and covers, the spherical count
Gr_s(A) looks only at configurations of embedded spheres.  A configuration
for A is a multiset of classes B_1 ... B_p from the connected-count table
with sum A, pairwise disjoint representatives (distinct parts must pair to
zero; a class may repeat only if it is exceptional or has square zero, so
that parallel disjoint copies exist), and every part must satisfy
c1(B_i) >= 1: the per-part point budget is k_i = c1(B_i) - 1, and these
budgets add up to the total k = c1(A) - p automatically.  The
configurations come from the search shared with decompositions
(structure._orthogonal_combinations), with cap none on exceptional and
square-zero classes, cap 1 on every other class, and at most c1(A) parts.

Each configuration contributes the product of the table counts N(B_i).
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
from dataclasses import dataclass

from .errors import (
    AssignmentAmbiguityWarning,
    PreconditionError,
    UnknownSphereCountError,
)
from .invariants import genus_embedded
from .lattice import HClass, ManifoldModel, c1, pair
from .structure import _orthogonal_combinations


@dataclass(frozen=True)
class SphereConfig:
    """A multiset of sphere classes with its point split (k, p)."""

    parts: tuple[HClass, ...]
    k: int
    p: int

    def __post_init__(self) -> None:
        parts = tuple(sorted(self.parts, key=lambda b: b.coords))
        if not parts:
            raise ValueError("a sphere configuration needs at least one part")
        if self.p != len(parts):
            raise ValueError("p must equal the number of parts")
        if self.k < 0:
            raise ValueError("k must be non-negative")
        budget = sum(c1(b) - 1 for b in parts)
        if budget != self.k:
            raise ValueError(
                f"point budgets sum to {budget}, configuration claims k = {self.k}"
            )
        object.__setattr__(self, "parts", parts)

    def budgets(self) -> tuple[int, ...]:
        return tuple(c1(b) - 1 for b in self.parts)


def k_for(A: HClass, p: int) -> int:
    """The point count k = c1(A) - p for a p-component sphere count."""
    c = c1(A)
    if not 1 <= p <= c:
        raise PreconditionError(f"p must lie in 1..c1(A) = {c}, got {p}")
    return c - p


def enumerate_sphere_configs(model: ManifoldModel, A: HClass) -> list[SphereConfig]:
    """All admissible sphere configurations for A from the count table.

    Returns an empty list when c1(A) < 1 or nothing fits; order is
    deterministic (sorted by part count, then coordinates).
    """
    cA = c1(A)
    if cA < 1:
        return []
    keys = [B for B in sorted(model.sphere_table, key=lambda b: b.coords) if c1(B) >= 1]
    caps = [None if B in model.exceptional or pair(B, B) == 0 else 1 for B in keys]
    configs = []
    for selection in _orthogonal_combinations(A, keys, caps, max_parts=cA):
        p = sum(r for _, r in selection)
        configs.append(SphereConfig(tuple(B for B, r in selection for _ in range(r)), cA - p, p))
    configs.sort(key=lambda cfg: (cfg.p, tuple(b.coords for b in cfg.parts)))
    return configs


def _count(model: ManifoldModel, B: HClass) -> int:
    try:
        return model.sphere_table[B]
    except KeyError:
        raise UnknownSphereCountError(f"no connected sphere count for {B}") from None


def assignment_factor(model: ManifoldModel, config: SphereConfig) -> tuple[int, bool]:
    """Combinatorial weight of a configuration, with an ambiguity flag.

    The factor is the multinomial of the total points over the per-part
    budgets, divided by r! for every class repeated r >= 2 times with a
    positive budget (identical copies are unordered).  The flag is True
    when a repeated class has table count > 1; there the convention is
    documented rather than forced.
    """
    budgets = config.budgets()
    factor = math.factorial(config.k)
    for b in budgets:
        factor //= math.factorial(b)
    ambiguous = False
    for cls, r in Counter(config.parts).items():
        if r >= 2:
            if c1(cls) - 1 >= 1:
                sym = math.factorial(r)
                if factor % sym != 0:
                    raise AssertionError("symmetry division must be exact")
                factor //= sym
            if _count(model, cls) > 1:
                ambiguous = True
    return factor, ambiguous


def gr_s(model: ManifoldModel, A: HClass) -> int:
    """The spherical invariant: sum over configurations of the product of
    connected counts, times the assignment factor."""
    total = 0
    for config in enumerate_sphere_configs(model, A):
        prod = 1
        for B in config.parts:
            prod *= _count(model, B)
        factor, ambiguous = assignment_factor(model, config)
        if ambiguous:
            warnings.warn(
                AssignmentAmbiguityWarning(
                    f"configuration {[str(b) for b in config.parts]} repeats a class "
                    f"with several representatives; the assignment factor is a "
                    f"documented convention"
                )
            )
        total += prod * factor
    return total


def embedded_sphere_rule(model: ManifoldModel, A: HClass) -> int | None:
    """Gr_s(A) = 1 for a represented embedded sphere of square >= -1.

    Applies when the adjunction genus is 0, A.A >= -1, and the table marks
    A as represented; returns None when the rule does not apply.
    """
    if genus_embedded(A) != 0 or pair(A, A) < -1:
        return None
    if model.sphere_table.get(A, 0) < 1:
        return None
    return 1

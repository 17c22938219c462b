"""Integer homology lattices of closed symplectic 4-manifolds.

An IntersectionLattice fixes a basis of H_2(M; Z), the Gram matrix of the
intersection form Q, the coordinates of the canonical class K, and a
rational area functional omega.  Homology classes are integer coordinate
vectors tied to their lattice; the pairing A.B, the Chern number
c1(A) = -K.A and the area omega(A) are all evaluated exactly.

K is required to be characteristic mod 2, i.e. Q(e,e) = Q(K,e) (mod 2) on
every basis vector.  That congruence is what keeps the point count
k(A) = (c1(A) + A.A)/2 an integer for every class A.

The constructor validates the fields once and derives, in integers only,
what the arithmetic reads:

    Gram      the diagonal of Q as one vector, and the nonzero entries
              q_ij (i < j) above it, so that
              A.B = sum_i q_ii a_i b_i + sum_{i<j} q_ij (a_i b_j + a_j b_i)
              costs O(rank + nonzeros);
    c1        the integer vector -K.Q, so c1(A) is one dot product;
    area      integer numerators over one common denominator, the one
              representation of omega: the area property and omega_area
              build Fractions only when read, and sign tests read the
              numerator (_area_numerator) instead;
    hash      computed once from the fields; == answers identity at once.

b2+ (the positive index of inertia of Q) is found by symmetric congruence
reduction in integers, once per lattice on first use.  No floating point
is involved anywhere, and fractions is imported only where a Fraction is
built or given.  The derived data never travels with a copy: copy,
deepcopy and pickle all rebuild the lattice through its constructor, so
a hash from another process is never reused.

Class coordinates must be ints (bools, floats and Fractions raise
CoordinateError); a list is taken as a tuple, and nothing is converted.

Every count in the package is a formula in three numbers of a class A:
c1(A), the square A.A, and the pairings A.E with a model's stored
exceptional classes.  A class keeps the lattice facts c1(A) and A.A once
they are computed, by c1 and _square below, the only writers of those
attributes.  A.E is a model fact: _exceptional_pairings reads it from the
model's table on every call and never stores it on the class.  copy,
deepcopy and pickle rebuild a class through its constructor and so drop
c1 and A.A: a copy never carries a value that was computed for another
object.

A ManifoldModel bundles a lattice with the finite data the counting
formulas consume: the stored exceptional classes, a minimality flag, and
the three count tables (Gr0 values for square-positive classes, torus
labels for square-zero rays, connected rational-curve counts).  Only its
methods gr0(B) and sphere_count(B) read a count value, and each raises its
own error (UnknownGr0Error, UnknownSphereCountError) on missing data.
The tables are read-only views (types.MappingProxyType) of dicts the
constructor validated, so the search tables built from them stay true;
writing to one raises TypeError.

The pairings read one integer table per model, which _exceptional_table
builds on the model's first exceptional pairing and is the only writer
of.  For each stored E it holds the nonzero entries e_i.E of E's covector
(found by pair at the support of E and its off-diagonal Gram neighbours
only, so once per E on a diagonal Gram) and E's nonzero coordinates.  A.E
for every E is then one pass over the covector entries, and
reduce_multicovers strips each E along its sparse coordinates.  k and
model construction never build the table.  A model also keeps two search
tables, whose rows pair through _covector: the one of its sphere-table
classes (spherical._sphere_candidates), and the one of its last
decomposition search with the candidate set it was built for
(structure.enumerate_decompositions).  copy, deepcopy, pickle and
with_exceptional rebuild a model through its constructor and so drop all
three tables.

The two constructors own every rule a model must satisfy; load_model only
maps JSON onto them.  A violation raises ModelFileError whose path names
the argument in model-file terms: "$.K" for canonical, "$.b2plus" for
b2plus_override, "$.sphere_table[i].count" for the value of the i-th
table item and "$.torus_table[i].tori[j].cover" for the j-th torus of
the i-th torus_table item.  Numbers are taken as given, never converted:
integers must be ints, and areas ints, Fractions or "p"/"p/q" strings.
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Mapping, Sequence
from math import gcd, lcm
from operator import add, mul, neg, sub
from types import MappingProxyType

from . import fibersum, torus_series
from .errors import (
    ClassParseError,
    CoordinateError,
    LatticeMismatchError,
    ModelFileError,
    UnknownGr0Error,
    UnknownPresetError,
    UnknownSphereCountError,
    _Frozen,
    _int,
    _require_int,
)

_SYMBOL_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_RATIONAL_RE = re.compile(r"\s*[+-]?[0-9]+(?:/[0-9]+)?\s*")
_TERM_RE = re.compile(r"([+-]?)(?:([0-9]+)\*?)?([A-Za-z_][A-Za-z_0-9]*)")


def _rational(value, path: str) -> tuple[int, int]:
    """An exact rational given as an int, a Fraction, or the text "p" or "p/q",
    as its reduced numerator and positive denominator."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value.numerator, 1
    if not isinstance(value, str):
        from fractions import Fraction
        if isinstance(value, Fraction):
            return value.numerator, value.denominator
        raise ModelFileError(path, "expected an integer or a 'p/q' string")
    if _RATIONAL_RE.fullmatch(value):
        p, _, q = value.strip().partition("/")
        try:  # int() refuses text past its digit limit; q = 0 is no rational
            p, q = int(p), int(q or 1)
            if q:
                g = gcd(p, q)
                return p // g, q // g
        except ValueError:
            pass
    raise ModelFileError(path, f"not an exact rational: {value!r}")


class IntersectionLattice(_Frozen):
    """Basis, intersection form, canonical class and area of H_2(M; Z)."""

    _fields = ("name", "basis", "gram", "canonical", "area", "b2plus_override")

    def __init__(
        self,
        name: str,
        basis: Sequence[str],
        gram: Sequence[Sequence[int]],
        canonical: Sequence[int],
        area: Sequence[Fraction | int | str],
        b2plus_override: int | None = None,
    ) -> None:
        if not (isinstance(name, str) and name):
            raise ModelFileError("$.name", "expected a nonempty string")
        basis = tuple(basis)
        if not basis:
            raise ModelFileError("$.basis", "expected a nonempty symbol list")
        for i, sym in enumerate(basis):
            if not (isinstance(sym, str) and _SYMBOL_RE.fullmatch(sym)):
                raise ModelFileError(f"$.basis[{i}]", f"bad symbol {sym!r}")
        if len(set(basis)) != len(basis):
            raise ModelFileError("$.basis", "symbols must be distinct")
        n = len(basis)
        gram = tuple(gram)
        if len(gram) != n:
            raise ModelFileError("$.gram", f"expected {n} rows")
        for i, row in enumerate(gram):
            if not isinstance(row, (list, tuple)) or len(row) != n:
                raise ModelFileError(f"$.gram[{i}]", f"expected {n} entries")
            for j, x in enumerate(row):
                if type(x) is not int:
                    _int(x, f"$.gram[{i}][{j}]")
        gram = tuple(map(tuple, gram))
        if gram != tuple(zip(*gram)):
            for i in range(n):
                for j in range(i + 1, n):
                    if gram[i][j] != gram[j][i]:
                        raise ModelFileError(f"$.gram[{j}][{i}]", "gram matrix must be symmetric")
        canonical = tuple(canonical)
        if len(canonical) != n:
            raise ModelFileError("$.K", f"expected {n} coordinates")
        for i, x in enumerate(canonical):
            _int(x, f"$.K[{i}]")
        area = tuple(area)
        if len(area) != n:
            raise ModelFileError("$.area", f"expected {n} entries")
        area = [_rational(x, f"$.area[{i}]") for i, x in enumerate(area)]
        if b2plus_override is not None and _int(b2plus_override, "$.b2plus") < 0:
            raise ModelFileError("$.b2plus", "must be non-negative")
        diagonal = tuple(gram[i][i] for i in range(n))
        off_diagonal = tuple(
            (i, j, gram[i][j]) for i in range(n) for j in range(i + 1, n) if gram[i][j]
        )
        # K.e_j for every basis vector; K characteristic mod 2 keeps every k(A) an integer.
        k_dot = list(map(mul, diagonal, canonical))
        for i, j, x in off_diagonal:
            k_dot[i] += x * canonical[j]
            k_dot[j] += x * canonical[i]
        for i in range(n):
            if (diagonal[i] - k_dot[i]) % 2 != 0:
                raise ModelFileError(
                    "$.K",
                    f"canonical class is not characteristic mod 2 at basis vector {basis[i]}",
                )
        area_den = lcm(*(q for _, q in area))
        area_num = tuple(p * (area_den // q) for p, q in area)
        key = (name, basis, gram, canonical, area_num, area_den, b2plus_override)
        for attr, value in (
            ("name", name),
            ("basis", basis),
            ("gram", gram),
            ("canonical", canonical),
            ("b2plus_override", b2plus_override),
            ("_diagonal", diagonal),
            ("_off_diagonal", off_diagonal),
            ("_c1", tuple(map(neg, k_dot))),
            ("_area_num", area_num),
            ("_area_den", area_den),
            ("_symbol_index", {sym: i for i, sym in enumerate(basis)}),
            ("_key", key),
            ("_hash", hash(key)),
            ("_b2plus", b2plus_override),
        ):
            object.__setattr__(self, attr, value)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, IntersectionLattice):
            return NotImplemented
        return self._hash == other._hash and self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    @property
    def area(self) -> tuple:
        """omega on the basis, as Fractions built on each read."""
        return tuple(_fraction(p, self._area_den) for p in self._area_num)

    @property
    def rank(self) -> int:
        return len(self.basis)

    def zero(self) -> "HClass":
        return HClass((0,) * self.rank, self)

    def basis_class(self, i: int) -> "HClass":
        _require_int(i, "basis index")
        if not 0 <= i < self.rank:
            raise ValueError(f"basis index {i} is outside 0..{self.rank - 1} for rank {self.rank}")
        coords = [0] * self.rank
        coords[i] = 1
        return HClass(tuple(coords), self)

    def class_from_coords(self, coords: Sequence[int]) -> "HClass":
        return HClass(coords, self)

    def canonical_class(self) -> "HClass":
        return HClass(self.canonical, self)

    def parse(self, expr: str) -> "HClass":
        return parse_class(self, expr)

    def _require_same(self, other: "IntersectionLattice") -> None:
        if self is not other and self != other:
            raise LatticeMismatchError(
                f"classes live in different lattices ({self.name} vs {other.name})"
            )


def _reject_non_integers(coords: tuple) -> None:
    for i, c in enumerate(coords):
        if isinstance(c, bool) or not isinstance(c, int):
            raise CoordinateError(f"coordinate {i} is {c!r}, not an integer", index=i)


class HClass(_Frozen):
    """A homology class: integer coordinates in its lattice's basis."""

    # _c1 and _square are c1(A) and A.A, kept on first use.
    __slots__ = ("coords", "lattice", "_c1", "_square")
    _fields = ("coords", "lattice")

    def __init__(self, coords: Sequence[int], lattice: IntersectionLattice) -> None:
        _set_coords(self, coords)
        _set_lattice(self, lattice)
        _set_c1(self, None)
        _set_square(self, None)
        self.__post_init__()

    def __post_init__(self) -> None:
        coords = self.coords
        if type(coords) is not tuple:
            coords = tuple(coords)
            _set_coords(self, coords)
        if len(coords) != self.lattice.rank:
            raise CoordinateError("coordinate vector has wrong length for this lattice")
        for c in coords:
            if type(c) is not int:
                _reject_non_integers(coords)
                break

    def __eq__(self, other) -> bool:
        # The base's comparison without its getattr loop: every table lookup
        # of a class that is not the stored key object compares classes.
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.coords, self.lattice) == (other.coords, other.lattice)

    def __hash__(self) -> int:
        return hash((self.coords, self.lattice._hash))

    def __add__(self, other: "HClass") -> "HClass":
        self.lattice._require_same(other.lattice)
        return HClass(tuple(map(add, self.coords, other.coords)), self.lattice)

    def __sub__(self, other: "HClass") -> "HClass":
        self.lattice._require_same(other.lattice)
        return HClass(tuple(map(sub, self.coords, other.coords)), self.lattice)

    def __neg__(self) -> "HClass":
        return HClass(tuple(map(neg, self.coords)), self.lattice)

    def __mul__(self, n: int) -> "HClass":
        if n.__class__ is bool or not isinstance(n, int):
            return NotImplemented
        return HClass(tuple([n * a for a in self.coords]), self.lattice)

    __rmul__ = __mul__

    @property
    def is_zero(self) -> bool:
        return not any(self.coords)

    def content(self) -> int:
        """gcd of the coordinates (0 for the zero class)."""
        return gcd(*self.coords)

    def primitive(self) -> "HClass":
        """The primitive generator of this class's ray."""
        d = self.content()
        if d == 0:
            raise ValueError("the zero class spans no ray")
        return HClass(tuple([c // d for c in self.coords]), self.lattice)

    def __str__(self) -> str:
        return format_class(self)

    def __repr__(self) -> str:
        return f"<{format_class(self)} in {self.lattice.name}>"


# The slots' own setters.  HClass is built more often than any other object,
# and a slot's setter takes under half the time of object.__setattr__.
_set_coords, _set_lattice, _set_c1, _set_square = (
    HClass.__dict__[name].__set__ for name in HClass.__slots__
)


def pair(A: HClass, B: HClass) -> int:
    """Intersection number A.B."""
    lat = A.lattice
    if B.lattice is not lat:
        lat._require_same(B.lattice)
    a, b = A.coords, B.coords
    total = sum(map(mul, map(mul, lat._diagonal, a), b))
    for i, j, x in lat._off_diagonal:
        total += x * (a[i] * b[j] + a[j] * b[i])
    return total


def c1(A: HClass) -> int:
    """First Chern number c1(A) = -K.A, computed once and kept on A."""
    value = A._c1
    if value is None:
        value = sum(map(mul, A.lattice._c1, A.coords))
        _set_c1(A, value)
    return value


def _square(A: HClass) -> int:
    """A.A, paired once and kept on A."""
    if A._square is None:
        _set_square(A, pair(A, A))
    return A._square


def _covector(A: HClass) -> tuple[int, ...]:
    """Gram.A: the integer row with A.B = sum(b_i * row_i) for every class B
    of A's lattice, so a pairing with A needs no Gram lookup."""
    lat, a = A.lattice, A.coords
    row = list(map(mul, lat._diagonal, a))
    for i, j, x in lat._off_diagonal:
        row[i] += x * a[j]
        row[j] += x * a[i]
    return tuple(row)


# A model's exceptional classes as sparse integer rows, row r for E_r.
_ExceptionalTable = namedtuple("_ExceptionalTable", [
    "entries",  # (r, i, e_i.E_r) where e_i.E_r != 0
    "supports",  # per r, (i, E_r[i]) where E_r[i] != 0
])


def _exceptional_table(model: "ManifoldModel") -> _ExceptionalTable:
    """The model's table, built on first use and kept on the model.

    e_i.E can be nonzero only where i is in the support of E or is an
    off-diagonal Gram neighbour of it, so pair runs at those i alone: once
    per E on a diagonal Gram.
    """
    table = model._exceptional_table
    if table is None:
        lat = model.lattice
        neighbours = [set() for _ in range(lat.rank)]
        for i, j, _ in lat._off_diagonal:
            neighbours[i].add(j)
            neighbours[j].add(i)
        entries, supports = [], []
        for r, E in enumerate(model.exceptional):
            support = tuple((i, e) for i, e in enumerate(E.coords) if e)
            reach = {i for i, _ in support}.union(*(neighbours[i] for i, _ in support))
            for i in sorted(reach):
                value = pair(lat.basis_class(i), E)
                if value:
                    entries.append((r, i, value))
            supports.append(support)
        table = _ExceptionalTable(tuple(entries), tuple(supports))
        object.__setattr__(model, "_exceptional_table", table)
    return table


def _exceptional_pairings(model: "ManifoldModel", A: HClass) -> tuple[int, ...]:
    """(A.E for E in model.exceptional), from one pass over the model's table."""
    if A.lattice is not model.lattice:
        A.lattice._require_same(model.lattice)
    a = A.coords
    out = [0] * len(model.exceptional)
    for r, i, value in _exceptional_table(model).entries:
        out[r] += a[i] * value
    return tuple(out)


def _proportional(A: HClass, B: HClass) -> bool:
    """Rational proportionality: all 2x2 minors of the coordinate pair vanish."""
    u, v = A.coords, B.coords
    for i in range(len(u)):
        for j in range(i + 1, len(u)):
            if u[i] * v[j] - u[j] * v[i] != 0:
                return False
    return True


def _area_numerator(A: HClass) -> int:
    """omega(A) times the lattice's area denominator: an integer with the
    sign of omega(A), and ratios between classes equal to those of omega."""
    return sum(map(mul, A.lattice._area_num, A.coords))


def _fraction(p: int, q: int) -> Fraction:
    """Fraction(p, q); the first call imports fractions and rebinds this name to Fraction."""
    global _fraction
    from fractions import Fraction as _fraction
    return _fraction(p, q)


def omega_area(A: HClass) -> Fraction:
    """Symplectic area omega(A), an exact rational."""
    return _fraction(_area_numerator(A), A.lattice._area_den)


def _positive_index(gram: Sequence[Sequence[int]]) -> int:
    """Positive inertia index by symmetric congruence reduction in integers.

    Each step pivots on the first nonzero diagonal entry d, counts it when
    d > 0 and goes on with |d| times the Schur complement of d, divided by
    the content of the whole matrix: positive multiples keep the inertia.
    When the whole diagonal is zero, e_0 += e_j for the first j with
    m[0][j] != 0 puts 2*m[0][j] on the diagonal; a zero row 0 is dropped.
    """
    m = [list(row) for row in gram]
    positives = 0
    while m:
        i = next((i for i, row in enumerate(m) if row[i]), None)
        if i is None:
            j = next((j for j, x in enumerate(m[0]) if x), None)
            if j is None:
                del m[0]
                for row in m:
                    del row[0]
                continue
            m[0] = [a + b for a, b in zip(m[0], m[j])]
            for row in m:
                row[0] += row[j]
            i = 0
        pivot = m.pop(i)
        d = pivot.pop(i)
        if d > 0:
            positives += 1
        for row in m:
            f = row.pop(i) if d > 0 else -row.pop(i)
            row[:] = [abs(d) * x - f * p for x, p in zip(row, pivot)]
        g = gcd(*[x for row in m for x in row])
        if g > 1:
            m = [[x // g for x in row] for row in m]
    return positives


def b2_plus(lattice: IntersectionLattice) -> int:
    """Number of positive eigenvalues of the intersection form (the
    override when the lattice has one), computed once per lattice."""
    if lattice._b2plus is None:
        object.__setattr__(lattice, "_b2plus", _positive_index(lattice.gram))
    return lattice._b2plus


def parse_class(lattice: IntersectionLattice, expr: str) -> HClass:
    """Parse a signed integer combination of basis symbols, e.g. "3L - E1"."""
    s = "".join(expr.split())
    if not s:
        raise ClassParseError("empty class expression")
    if s == "0":
        return lattice.zero()
    coords = [0] * lattice.rank
    pos = 0
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if m is None:
            raise ClassParseError(f"malformed term at {s[pos:]!r} in {expr!r}")
        sign, digits, sym = m.groups()
        try:
            coeff = int(digits) if digits else 1
        except ValueError:  # past int()'s digit limit
            raise ClassParseError(f"coefficient of {sym!r} has too many digits") from None
        if sign == "-":
            coeff = -coeff
        try:
            coords[lattice._symbol_index[sym]] += coeff
        except KeyError:
            raise ClassParseError(
                f"unknown symbol {sym!r} (basis of {lattice.name}: {', '.join(lattice.basis)})"
            ) from None
        pos = m.end()
    return HClass(tuple(coords), lattice)


def format_class(A: HClass) -> str:
    """Canonical compact rendering; parse_class inverts it."""
    out = "".join([
        ("-" if c < 0 else "+") + (sym if c == 1 or c == -1 else f"{abs(c)}{sym}")
        for c, sym in zip(A.coords, A.lattice.basis)
        if c
    ])
    return out.removeprefix("+") or "0"


def _check_owned(lattice: IntersectionLattice, A: HClass, path: str) -> None:
    if not isinstance(A, HClass):
        raise ModelFileError(path, f"expected a class, got {A!r}")
    if A.lattice != lattice:
        raise ModelFileError(path, f"{A} belongs to a different lattice")


def _check_table_key(lattice: IntersectionLattice, A: HClass, path: str) -> None:
    _check_owned(lattice, A, path)
    if _area_numerator(A) <= 0:
        raise ModelFileError(path, f"table key {A} must have positive area")


class ManifoldModel(_Frozen):
    """A lattice plus the finite count data the invariants consume.

    exceptional stores the finitely many exceptional classes the model
    knows about; every operation quantifying over the exceptional set uses
    this stored set as its universe.  It can be extended with
    with_exceptional() when a computation needs more of them.

    torus_table maps a primitive square-zero class to the labelled tori on
    its ray.  An empty entry means "known: no tori", which is different
    from a missing entry ("unknown", an error when consulted).  Each table
    is copied into a new dict and kept behind a read-only view; models
    compare by identity.
    """

    _fields = ("lattice", "exceptional", "minimal", "gr0_table", "torus_table", "sphere_table")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    # The pairing table, written by _exceptional_table on first use, the
    # sphere search table, written by spherical._sphere_candidates, and the
    # (candidate coordinate set, table) pair of the last decomposition
    # search, written by structure.enumerate_decompositions.
    _exceptional_table = None
    _sphere_candidates = None
    _decomposition_candidates = None

    def __init__(
        self,
        lattice: IntersectionLattice,
        exceptional: Sequence[HClass] = (),
        minimal: bool = False,
        gr0_table: Mapping[HClass, int] | None = None,
        torus_table: Mapping[HClass, Sequence] | None = None,
        sphere_table: Mapping[HClass, int] | None = None,
    ) -> None:
        if not isinstance(minimal, bool):
            raise ModelFileError("$.minimal", "expected true or false")
        exc = tuple(exceptional)
        for i, E in enumerate(exc):
            path = f"$.exceptional[{i}]"
            _check_owned(lattice, E, path)
            if _square(E) != -1 or c1(E) != 1:
                raise ModelFileError(path, f"{E} is not exceptional (needs E.E = -1 and c1(E) = 1)")
        if len(set(exc)) != len(exc):
            raise ModelFileError("$", "duplicate exceptional classes")
        if minimal and exc:
            raise ModelFileError("$.minimal", "a minimal model cannot list exceptional classes")
        gr0 = {}
        for i, (A, v) in enumerate(dict(gr0_table or {}).items()):
            _check_table_key(lattice, A, f"$.gr0_table[{i}].class")
            gr0[A] = _int(v, f"$.gr0_table[{i}].value")
        tori = {}
        for i, (A, entries) in enumerate(dict(torus_table or {}).items()):
            path = f"$.torus_table[{i}]"
            _check_table_key(lattice, A, f"{path}.class")
            if A.content() != 1:
                raise ModelFileError(f"{path}.class", f"{A} must be primitive")
            try:
                tori[A] = torus_series.parse_tori(entries)
            except ModelFileError as err:
                raise ModelFileError(f"{path}.tori{err.path[1:]}", err.message) from None
        spheres = {}
        for i, (A, v) in enumerate(dict(sphere_table or {}).items()):
            path = f"$.sphere_table[{i}]"
            _check_table_key(lattice, A, f"{path}.class")
            if _int(v, f"{path}.count") < 0:
                raise ModelFileError(f"{path}.count", "sphere counts must be non-negative")
            spheres[A] = v
        super().__init__(lattice, exc, minimal, *map(MappingProxyType, (gr0, tori, spheres)))

    def _values(self) -> tuple:
        # Plain dicts for __reduce__ and repr: a mappingproxy can be neither
        # pickled nor deep-copied.
        tables = (self.gr0_table, self.torus_table, self.sphere_table)
        return (self.lattice, self.exceptional, self.minimal, *map(dict, tables))

    @property
    def name(self) -> str:
        return self.lattice.name

    def parse(self, expr: str) -> HClass:
        return parse_class(self.lattice, expr)

    def canonical_class(self) -> HClass:
        return self.lattice.canonical_class()

    def gr0(self, B: HClass) -> int:
        """Gr0(B): 1 for the zero class, gr0_table for a square-positive B,
        else the torus weighting of B's primitive ray at B's content."""
        if B.is_zero:
            return 1
        if _square(B) > 0:
            if B in self.gr0_table:
                return self.gr0_table[B]
        elif (ray := B.primitive()) in self.torus_table:
            return torus_series.gr_torus_class(self.torus_table[ray], B.content())
        raise UnknownGr0Error((B,))

    def sphere_count(self, B: HClass) -> int:
        """N(B), the connected rational-curve count of B, from sphere_table."""
        if B not in self.sphere_table:
            raise UnknownSphereCountError(f"no connected sphere count for {B}")
        return self.sphere_table[B]

    def with_exceptional(self, *classes: HClass) -> "ManifoldModel":
        """A copy of the model whose stored exceptional set is extended."""
        if self.minimal:
            raise ValueError("a minimal model has no exceptional classes to extend")
        merged = list(self.exceptional)
        for E in classes:
            if E not in merged:
                merged.append(E)
        return ManifoldModel(
            self.lattice, merged, self.minimal, self.gr0_table, self.torus_table, self.sphere_table
        )


# ---------------------------------------------------------------------------
# Presets: the running examples every worked number lives on.
#
# Area functionals are documented conventions, not topological data: they
# only normalize which classes count as "small" in enumerations.  The
# blowup presets use omega(L) = 3, omega(E_i) = 1 so that every class of a
# worked example has positive area; the other presets use the all-ones
# functional.
# ---------------------------------------------------------------------------

def _cp2() -> ManifoldModel:
    lat = IntersectionLattice(
        name="cp2",
        basis=("L",),
        gram=((1,),),
        canonical=(-3,),
        area=(1,),
    )
    L = lat.basis_class(0)
    # Degrees 1..3 through 2, 5 and 8 generic points: 1 line, 1 conic and
    # 12 rational cubics; the embedded count in degree 3 is the single
    # smooth cubic (a torus) through 9 points.
    return ManifoldModel(
        lattice=lat,
        exceptional=(),
        minimal=True,
        gr0_table={L: 1, 2 * L: 1, 3 * L: 1},
        torus_table={},
        sphere_table={L: 1, 2 * L: 1, 3 * L: 12},
    )


def _cp2_blowup(n: int) -> ManifoldModel:
    basis = ("L",) + tuple(f"E{i}" for i in range(1, n + 1))
    gram = tuple(
        tuple((1 if i == 0 else -1) if i == j else 0 for j in range(n + 1))
        for i in range(n + 1)
    )
    lat = IntersectionLattice(
        name=f"cp2_blowup({n})",
        basis=basis,
        gram=gram,
        canonical=(-3,) + (1,) * n,
        area=(3,) + (1,) * n,
    )
    z = (0,) * n  # every key is built as its coordinate row; index i stands for E_(i+1)
    Es = [HClass((0,) + z[:i] + (1,) + z[i + 1 :], lat) for i in range(n)]
    spheres = {HClass((d,) + z, lat): count for d, count in ((1, 1), (2, 1), (3, 12))}
    for i, E in enumerate(Es):
        spheres[E] = 1
        spheres[HClass((1,) + z[:i] + (-1,) + z[i + 1 :], lat)] = 1
    for i in range(n):
        for j in range(i + 1, n):
            spheres[HClass((1,) + z[:i] + (-1,) + z[i + 1 : j] + (-1,) + z[j + 1 :], lat)] = 1
    return ManifoldModel(
        lattice=lat,
        exceptional=tuple(Es),
        minimal=False,
        gr0_table={},
        torus_table={},
        sphere_table=spheres,
    )


def _s2xs2() -> ManifoldModel:
    lat = IntersectionLattice(
        name="s2xs2",
        basis=("A1", "A2"),
        gram=((0, 1), (1, 0)),
        canonical=(-2, -2),
        area=(1, 1),
    )
    A1 = lat.basis_class(0)
    A2 = lat.basis_class(1)
    return ManifoldModel(
        lattice=lat,
        exceptional=(),
        minimal=True,
        gr0_table={A1: 1, A2: 1, A1 + A2: 1},
        torus_table={},
        sphere_table={A1: 1, A2: 1, A1 + A2: 1},
    )


def _s2xt2() -> ManifoldModel:
    # S = [S^2 x pt] is the sphere fiber of the ruling, B = [pt x T^2].
    lat = IntersectionLattice(
        name="s2xt2",
        basis=("S", "B"),
        gram=((0, 1), (1, 0)),
        canonical=(0, -2),
        area=(1, 1),
    )
    S = lat.basis_class(0)
    B = lat.basis_class(1)
    # The two flat sections are the only tori on the ray of B: S^2 x T^2 is
    # two D^2 x T^2 caps glued along their boundary tori.
    cap = fibersum.base_pieces()["D2xT2"]
    return ManifoldModel(
        lattice=lat,
        exceptional=(),
        minimal=True,
        gr0_table={},
        torus_table={B: fibersum.fiber_tori(fibersum.glue(cap, cap).fiber_gr)},
        sphere_table={S: 1},
    )


def _elliptic(n: int) -> ManifoldModel:
    # Rank-2 sublattice spanned by the fiber F and a section S of V(n):
    # F.F = 0, F.S = 1, S.S = -n, K = (n-2)F.  b2+ = 2n-1 is standard
    # Betti data for these surfaces and is supplied as an override because
    # the rank-2 sublattice alone cannot determine it.
    lat = IntersectionLattice(
        name=f"elliptic({n})",
        basis=("F", "S"),
        gram=((0, 1), (1, -n)),
        canonical=(n - 2, 0),
        area=(1, 1),
        b2plus_override=2 * n - 1,
    )
    F = lat.basis_class(0)
    S = lat.basis_class(1)
    return ManifoldModel(
        lattice=lat,
        exceptional=(S,) if n == 1 else (),
        minimal=n >= 2,
        gr0_table={},
        torus_table={F: fibersum.fiber_tori(fibersum.gr_elliptic_fiber(n).value)},
        sphere_table={S: 1} if n == 1 else {},
    )


_BUILDERS = {
    "cp2": (_cp2, False),
    "cp2_blowup": (_cp2_blowup, True),
    "s2xs2": (_s2xs2, False),
    "s2xt2": (_s2xt2, False),
    "elliptic": (_elliptic, True),
}

PRESET_NAMES: tuple[str, ...] = tuple(
    f"{base}(n)" if takes_n else base for base, (_, takes_n) in _BUILDERS.items()
)

# The largest parameter a preset takes: cp2_blowup(n) holds about n^2/2
# sphere-table classes of rank n+1, so its memory grows as n^3.
_PRESET_MAX_N = 64

_PRESET_FORM = re.compile(r"^([A-Za-z_][A-Za-z_0-9]*)\s*(?:\(\s*([0-9]+)\s*\))?$")

# A parameter of more digits is only reported as too large: int() of a digit
# string past 4,300 digits raises ValueError, and so does str() of such an int.
_PARAM_DIGITS = 9
_HUGE = 10**_PARAM_DIGITS


def preset(name: str, n: int | None = None) -> ManifoldModel:
    """Build a preset model; parametrized ones accept preset("elliptic", 3)
    or the inline form preset("elliptic(3)"), for 1 <= n <= _PRESET_MAX_N."""
    m = isinstance(name, str) and _PRESET_FORM.match(name.strip())
    if not m:
        raise UnknownPresetError(f"bad preset name {name!r}")
    base, inline = m.groups()
    if inline is not None:
        inline_n = int(inline) if len(inline) <= _PARAM_DIGITS else _HUGE
        if n is not None and n != inline_n:
            raise UnknownPresetError(f"conflicting parameters for preset {name!r}")
        n = inline_n
    entry = _BUILDERS.get(base)
    if entry is None:
        raise UnknownPresetError(
            f"unknown preset {base!r}; available: {', '.join(PRESET_NAMES)}"
        )
    builder, takes_n = entry
    if takes_n:
        if n is None:
            raise UnknownPresetError(f"preset {base!r} needs a parameter, e.g. {base}(2)")
        if isinstance(n, bool) or not isinstance(n, int):
            raise UnknownPresetError(f"preset {base!r} needs an integer n, got {n!r}")
        if n < 1:
            raise UnknownPresetError(f"preset {base!r} needs n >= 1")
        if n > _PRESET_MAX_N:
            got = n if n < _HUGE else f"more than {_PARAM_DIGITS} digits"
            raise UnknownPresetError(f"preset {base!r} takes n <= {_PRESET_MAX_N}, got {got}")
        return builder(n)
    if n is not None:
        raise UnknownPresetError(f"preset {base!r} takes no parameter")
    return builder()

"""The torus weighting scheme: labelled tori counted by one integer vector.

A disjoint union of holomorphic tori contributes to a degree-k curve count
through a product of generating functions, one factor per torus.  Each torus
carries one of eight labels (sign, i), where the sign is the sign of the
determinant of the untwisted Cauchy-Riemann operator and i counts the
negative twisted determinants.  The label selects the series

    f(+,0) = 1/(1-t)          f(+,1) = 1 + t
    f(+,2) = (1+t)/(1+t^2)    f(+,3) = (1+t)(1-t^2)/(1+t^2)
    f(-,i) = 1/f(+,i)

and a torus lying in class m*B enters the product as f_label(t^m).  The
count in degree k is the t^k coefficient of the product.

Everything here is exact.  Since 1 + t^a = (1 - t^2a) / (1 - t^a), a torus
list's product is prod_a (1 - t^a)^e_a for one integer vector e, which fixes
the series at every degree: a cover m turns a into m*a, and -i negates the e
of +i, so a born (+i, m), (-i, m) pair leaves e unchanged.  The coefficients
c[0..K] are built from c = 1 in ascending a by passes that only add or
subtract c[i-a]: a descending pass multiplies by a factor, an ascending one
divides by it.  gr_torus_class keeps only the vector of the last list asked
for, keyed on its e, and skips the parse for a list of the very entries last
parsed, each immutable.  A label is its text, "+i" or "-i" for (sign, i).
"""

from __future__ import annotations

from collections.abc import Sequence
from operator import is_, itemgetter

from .errors import DomainError, ModelFileError, _Frozen, _int, _require_int


class TruncSeries(_Frozen):
    """Integer power series c0..cN truncated at the order N, len(coeffs) - 1.

    A product of mismatched orders truncates to the shorter.  No count uses
    this class, which stays only while the benchmark's tracer resolves
    __mul__ and inverse by name.
    """

    _fields = ("coeffs",)

    def __init__(self, coeffs: Sequence[int]) -> None:
        if len(coeffs) == 0:
            raise ValueError("a series needs at least its constant coefficient")
        for c in coeffs:
            if not isinstance(c, int):
                raise ValueError("series coefficients must be integers")
        super().__init__(tuple(coeffs))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        n = min(self.order, other.order)
        out = [0] * (n + 1)
        for i, a in enumerate(self.coeffs[: n + 1]):
            if a == 0:
                continue
            for j in range(n + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return TruncSeries(tuple(out))

    def inverse(self) -> "TruncSeries":
        """Multiplicative inverse in the truncated ring.

        Requires constant term +-1 so the inverse stays integral.
        """
        a0 = self.coeffs[0]
        if a0 not in (1, -1):
            raise ValueError(f"cannot invert series with constant term {a0}")
        out = [0] * (self.order + 1)
        out[0] = a0
        for n in range(1, self.order + 1):
            acc = 0
            for j in range(1, n + 1):
                if self.coeffs[j]:
                    acc += self.coeffs[j] * out[n - j]
            out[n] = -a0 * acc
        return TruncSeries(tuple(out))


# Each label's e at cover 1, the sorted (a, e_a) with f = prod (1 - t^a)^e_a, read
# through 1 + t^a = (1 - t^2a) / (1 - t^a); the label -i negates +i's exponents.
_EXPONENTS = {f"+{i}": e for i, e in enumerate((
    ((1, -1),), ((1, -1), (2, 1)), ((1, -1), (2, 2), (4, -1)), ((1, -1), (2, 3), (4, -1))))}
_EXPONENTS |= {"-" + label[1]: tuple((a, -x) for a, x in e) for label, e in _EXPONENTS.items()}
ALL_LABELS: tuple[str, ...] = tuple(_EXPONENTS)


def _exponents(tori: Sequence[tuple[str, int]]) -> tuple[tuple[int, int], ...]:
    """A parsed list's e: the sorted nonzero (a, e_a), a cover m scaling each a by m."""
    e: dict[int, int] = {}
    for label, m in tori:
        for a, x in _EXPONENTS[label]:
            e[a * m] = e.get(a * m, 0) + x
    return tuple(sorted(filter(itemgetter(1), e.items())))


def _coefficients(e: Sequence[tuple[int, int]], order: int) -> list[int]:
    """c[0..order] of prod (1 - t^a)^e_a, in ascending a; (1 - t^2a)^+-1 (1 - t^a)^-+1 is one (1 + t^a)^+-1 pass."""
    c = [1] + [0] * order
    rest = dict(e)
    for a, _ in e:
        x, y = rest[a], rest.get(2 * a, 0)
        plus = (-x if abs(x) < abs(y) else y) if x * y < 0 else 0  # the power of 1 + t^a
        rest[2 * a], x = y - plus, x + plus
        if plus > 0:
            for _ in range(plus):
                for i in range(order, a - 1, -1):
                    c[i] += c[i - a]
        elif plus:
            for _ in range(-plus):
                for i in range(a, order + 1):
                    c[i] -= c[i - a]
        if x > 0:
            for _ in range(x):
                for i in range(order, a - 1, -1):
                    c[i] -= c[i - a]
        elif x:
            for _ in range(-x):
                for i in range(a, order + 1):
                    c[i] += c[i - a]
    return c


def parse_tori(tori: list | tuple) -> tuple[tuple[str, int], ...]:
    """Normalize a torus list, a list or a tuple, to (label, cover) pairs.

    Each entry is a label (its text, cover 1) or a (label, cover) pair with
    an integer cover >= 1, and each label comes out as one of ALL_LABELS;
    exact-type tests take the canonical forms and _entry any other.  A torus
    list of any other type (a string, a dict, a set or a generator as well
    as a non-iterable) raises ModelFileError at "$", a bad entry j at "$[j]",
    "$[j].label" or "$[j].cover".
    """
    # Exact types first: an isinstance call on every list slows the series ops measurably.
    if tori.__class__ is not list and tori.__class__ is not tuple and not isinstance(tori, (list, tuple)):
        raise ModelFileError("$", "expected a list of labels or (label, cover) pairs")
    out = []
    for entry in tori:
        try:
            label, cover = entry if entry.__class__ is tuple else (entry, 1) if entry.__class__ is str else ()
            if label.__class__ is str and label in _EXPONENTS and cover.__class__ is int and cover >= 1:
                out.append((label, cover))
                continue
        except ValueError:  # not a pair
            pass
        out.append(_entry(entry, len(out)))
    return tuple(out)


def _entry(entry, j: int) -> tuple[str, int]:
    """Entry j of a torus list, in any spelling, as a (label, cover) pair."""
    if isinstance(entry, str):
        label, cover = entry, 1
    else:
        try:
            label, cover = entry
        except (TypeError, ValueError):  # not iterable, or not two items
            raise ModelFileError(f"$[{j}]", "expected a label or a (label, cover) pair") from None
    if not isinstance(label, str):
        raise ModelFileError(f"$[{j}].label", "expected a label string")
    # "−" is the typographic minus; accept it alongside ASCII "-".
    text = label.strip().replace("−", "-")
    if text not in _EXPONENTS:
        message = f"bad torus label {label!r}; expected +0, +1, ... or -3"
        raise ModelFileError(f"$[{j}].label", message)
    if type(cover) is not int:
        _int(cover, f"$[{j}].cover")
    if cover < 1:
        raise ModelFileError(f"$[{j}].cover", "cover multiplicity must be >= 1")
    return text, cover


def _immutable(entry) -> bool:
    """An exact str or an exact (str, int) tuple: an entry that parses alike every time."""
    return entry.__class__ is str or entry.__class__ is tuple and entry[0].__class__ is str and entry[1].__class__ is int


# The largest degree gr_torus_class computes, checked before anything is allocated; the
# kept vector is rebuilt at most at twice its length, so it has at most 2 * _ORDER_MAX + 1.
_ORDER_MAX = 10_000

# The order of a list's first vector.  Degree sweeps ask for k = 0..12 or so,
# and a vector this short costs about as much as validating one call, so a
# sweep builds each list once instead of at orders 0, 1, 2, 4, 8 and 16.
_ORDER_FIRST = 16

# The last list parsed: its entries if each is _immutable (else None), its e and e's vector.
_last: tuple[tuple | None, tuple | None, list[int]] = (None, None, [])


def gr_torus_class(tori: list | tuple, k: int) -> int:
    """Degree-k count of a list (or tuple) of tori, each given as a label or a
    (label, m) pair where the torus lies in m times the ray generator.

    The count is the t^k coefficient of the product over the listed tori of
    f_label(t^m).  An empty list counts 1 in degree 0 and 0 above.  A
    degree that is not an int (a bool included) or is negative raises
    ValueError; a degree past _ORDER_MAX raises DomainError.
    """
    global _last
    if k.__class__ is not int:
        _require_int(k, "degree")
    if k < 0:
        raise ValueError("degree must be non-negative")
    if k > _ORDER_MAX:
        raise DomainError(f"degree past the series-order limit {_ORDER_MAX}")
    kept, key, c = _last  # one read, so the entries, key and vector always match
    exact = tori.__class__ is list or tori.__class__ is tuple
    if not (exact and kept is not None and len(tori) == len(kept) and all(map(is_, tori, kept))):
        new = _exponents(parse_tori(kept := tuple(tori) if exact else tori))  # the entries kept are those parsed
        kept = kept if exact and all(map(_immutable, kept)) else None
        if new != key:
            key, c = new, []
        _last = kept, key, c
    if k >= len(c):
        c = _coefficients(key, max(k, _ORDER_FIRST, 2 * len(c) - 2))
        _last = kept, key, c
    return c[k]

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

Everything here is exact.  Each f is a ratio of factors 1 + s*t^a (s = +-1;
a cover m turns a into m*a), so a torus list's product is one integer vector
c[0..K] built from c = 1: multiplying by a factor is a descending pass
c[i] += s*c[i-a], dividing by one an ascending pass c[i] -= s*c[i-a].
gr_torus_class keeps only the vector of the last list asked for, keyed on
the list as parse_tori returns it from one loop over the entries.  A list's
first vector covers a fixed minimum degree, enough for the usual degree
sweeps, and a k past the kept vector rebuilds it at max(k, twice its
order); no degree past a fixed series-order limit is computed.  There is
exactly one object per label, so a key compares by identity.
"""

from __future__ import annotations

from collections.abc import Sequence

from .errors import DomainError, ModelFileError, _Frozen, _int, _require_int


class TorusLabel(_Frozen):
    """One of the eight torus types (sign, i) with i in 0..3.

    There is one object per type: the constructor, parse, copy and pickle
    all return it, so == and hash are identity.
    """

    __slots__ = ("sign", "twists")
    _fields = ("sign", "twists")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __new__(cls, sign: int, twists: int) -> "TorusLabel":
        try:
            return _INTERNED[sign, twists]
        except (KeyError, TypeError):  # not a label pair, or unhashable
            # Equal numbers hash equal, so a valid sign means a bad twist count.
            if sign not in _SIGNS:
                raise ValueError("torus label sign must be +1 or -1") from None
            raise ValueError("torus label twist count must lie in 0..3") from None

    @classmethod
    def parse(cls, text: str) -> "TorusLabel":
        # "−" is the typographic minus; accept it alongside ASCII "-".
        label = isinstance(text, str) and _LABELS.get(text.strip().replace("−", "-"))
        if not label:
            raise ValueError(f"bad torus label {text!r}; expected +0, +1, ... or -3")
        return label

    def __str__(self) -> str:
        return ("+" if self.sign > 0 else "-") + str(self.twists)


def _make_label(sign: int, twists: int) -> TorusLabel:
    label = object.__new__(TorusLabel)
    object.__setattr__(label, "sign", sign)
    object.__setattr__(label, "twists", twists)
    return label


_SIGNS, _TWISTS = (1, -1), (0, 1, 2, 3)
ALL_LABELS: tuple[TorusLabel, ...] = tuple(_make_label(sign, i) for sign in _SIGNS for i in _TWISTS)
_INTERNED = {(label.sign, label.twists): label for label in ALL_LABELS}
_LABELS = {str(label): label for label in ALL_LABELS} | {label: label for label in ALL_LABELS}
_LABEL_TYPES = (str, TorusLabel)


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
        object.__setattr__(self, "coeffs", tuple(coeffs))

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


# f(+,i) as (numerator, denominator) factors (s, a), each meaning 1 + s*t^a;
# the label (-,i) reads the pair backwards.
_PLUS_FACTORS = (
    ((), ((-1, 1),)),
    (((1, 1),), ()),
    (((1, 1),), ((1, 2),)),
    (((1, 1), (-1, 2)), ((1, 2),)),
)


def _coefficients(tori: Sequence[tuple[TorusLabel, int]], order: int) -> list[int]:
    """c[0..order] of the product of f_label(t^m) over checked (label, m) pairs."""
    c = [1] + [0] * order
    for label, m in tori:
        num, den = _PLUS_FACTORS[label.twists][:: label.sign]
        for s, a in num:
            a *= m
            for i in range(order, a - 1, -1):
                c[i] += s * c[i - a]
        for s, a in den:
            a *= m
            for i in range(a, order + 1):
                c[i] -= s * c[i - a]
    return c


def parse_tori(tori: list | tuple) -> tuple[tuple[TorusLabel, int], ...]:
    """Normalize a torus list, a list or a tuple, to (label, cover) pairs.

    Each entry is a label (a TorusLabel or its text; cover 1) or a
    (label, cover) pair with an integer cover >= 1; exact-type tests take the
    canonical forms and _entry any other.  A torus list of any other type (a
    string, a dict, a set or a generator as well as a non-iterable) raises
    ModelFileError at "$", a bad entry j at "$[j]", "$[j].label" or "$[j].cover".
    """
    # Exact types first: an isinstance call on every list slows the series ops measurably.
    if tori.__class__ is not list and tori.__class__ is not tuple and not isinstance(tori, (list, tuple)):
        raise ModelFileError("$", "expected a list of labels or (label, cover) pairs")
    out = []
    for entry in tori:
        try:
            label, cover = entry if entry.__class__ is tuple else (entry, 1) if entry.__class__ is str else ()
            if label.__class__ in _LABEL_TYPES and cover.__class__ is int and cover >= 1:
                out.append((_LABELS[label], cover))
                continue
        except (KeyError, ValueError):  # not a canonical label, or not a pair
            pass
        out.append(_entry(entry, len(out)))
    return tuple(out)


def _entry(entry, j: int) -> tuple[TorusLabel, int]:
    """Entry j of a torus list, in any spelling, as a (label, cover) pair."""
    if isinstance(entry, (str, TorusLabel)):
        label, cover = entry, 1
    else:
        try:
            label, cover = entry
        except (TypeError, ValueError):  # not iterable, or not two items
            raise ModelFileError(f"$[{j}]", "expected a label or a (label, cover) pair") from None
    if isinstance(label, str):
        try:
            label = TorusLabel.parse(label)
        except ValueError as exc:
            raise ModelFileError(f"$[{j}].label", str(exc)) from None
    elif not isinstance(label, TorusLabel):
        raise ModelFileError(f"$[{j}].label", "expected a label string")
    if type(cover) is not int:
        _int(cover, f"$[{j}].cover")
    if cover < 1:
        raise ModelFileError(f"$[{j}].cover", "cover multiplicity must be >= 1")
    return label, cover


# The largest degree gr_torus_class computes, checked before anything is allocated; the
# kept vector is rebuilt at most at twice its length, so it has at most 2 * _ORDER_MAX + 1.
_ORDER_MAX = 10_000

# The order of a list's first vector.  Degree sweeps ask for k = 0..12 or so,
# and a vector this short costs about as much as validating one call, so a
# sweep builds each list once instead of at orders 0, 1, 2, 4, 8 and 16.
_ORDER_FIRST = 16

# The last list gr_torus_class was asked for, as parse_tori returns it, and its vector.
_last: tuple[tuple | None, list[int]] = (None, [])


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
    key = parse_tori(tori)
    last, c = _last  # one read, so the key and vector always match
    if key != last:
        c = []
    if k >= len(c):
        c = _coefficients(key, max(k, _ORDER_FIRST, 2 * len(c) - 2))
        _last = key, c
    return c[k]

"""Reference answers computed apart from the gromov4 package.

Nothing here imports gromov4.  Each model is written down again from its
mathematical conventions (Gram matrix, canonical class K, area vector,
stored exceptional classes, count tables), classes are plain integer
coordinate tuples, and every quantity the benchmark checks is recomputed
from the definitions:

    A.B = sum_ij a_i Q_ij b_j          c1(A) = -K.A
    k(A) = (c1(A) + A.A)/2             genus(A) = 1 + (K.A + A.A)/2
    k'(A) = k(A) + sum_E C(m_E, 2)     m_E = max(-A.E, 0)

Counts come from sources outside the program: Kontsevich-Manin's
recursion for rational plane curves, long division of each torus label's
rational function, and brute-force enumeration of decompositions and
sphere configurations straight from their rules.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd

Coords = tuple


@dataclass
class RefModel:
    name: str
    basis: tuple
    gram: tuple
    K: tuple
    area: tuple
    b2plus: int
    exceptional: list = field(default_factory=list)
    minimal: bool = False
    gr0: dict = field(default_factory=dict)
    tori: dict = field(default_factory=dict)  # primitive class -> [(label, cover)]
    spheres: dict = field(default_factory=dict)  # the model's own sphere table
    true_spheres: dict = field(default_factory=dict)  # counts from outside it


# --- lattice arithmetic ------------------------------------------------------


def pair(M: RefModel, a: Coords, b: Coords) -> int:
    g = M.gram
    return sum(a[i] * g[i][j] * b[j] for i in range(len(a)) if a[i] for j in range(len(b)))


def c1(M, a):
    return -pair(M, M.K, a)


def k(M, a):
    return (c1(M, a) + pair(M, a, a)) // 2


def genus(M, a):
    return 1 + (pair(M, M.K, a) + pair(M, a, a)) // 2


def area(M, a) -> Fraction:
    return sum((w * c for w, c in zip(M.area, a)), Fraction(0))


def dim(M, a, g):
    return 2 * (c1(M, a) + g - 1) + {0: 6, 1: 2}.get(g, 0)


def add(a, b, n=1):
    return tuple(x + n * y for x, y in zip(a, b))


def scale(a, n):
    return tuple(n * x for x in a)


def content(a):
    d = 0
    for x in a:
        d = gcd(d, x)
    return d


def proportional(a, b):
    return all(a[i] * b[j] == a[j] * b[i] for i in range(len(a)) for j in range(i + 1, len(a)))


def m_e(M, a, E):
    return max(-pair(M, a, E), 0)


def k_prime(M, a):
    return k(M, a) + sum(comb(m_e(M, a, E), 2) for E in M.exceptional)


def is_good(M, a):
    return all(pair(M, E, a) >= -1 for E in M.exceptional)


def classify(M, a):
    """(kind, witness): exceptional exactly when (c1, A.A) = (1, -1)."""
    c, sq = c1(M, a), pair(M, a, a)
    if (c, sq) == (1, -1):
        return "ExceptionalSphere", (0, 1, -1)
    return "NotRepresentable", None


def reduce(M, a):
    strips = [(E, m_e(M, a, E)) for E in M.exceptional if m_e(M, a, E) >= 2]
    good = a
    for E, m in strips:
        good = add(good, E, -m)
    return good, tuple(strips)


def in_cone(M, a, strict=False):
    sq, w = pair(M, a, a), area(M, a)
    return sq > 0 and w > 0 if strict else sq >= 0 and w >= 0


def lightcone(M, a, b):
    """Clause verdicts of the light cone check on two forward-cone classes."""
    prod = pair(M, a, b)
    checks = [("nonnegative-product", prod >= 0)]
    if prod == 0:
        zero = not any(a) or not any(b)
        null = pair(M, a, a) == 0 and pair(M, b, b) == 0
        checks.append(("zero-product-proportional-null", proportional(a, b) and (zero or null)))
    return all(ok for _, ok in checks), tuple(checks)


def fmt(M, a) -> str:
    out = ""
    for c, sym in zip(a, M.basis):
        if c:
            body = sym if abs(c) == 1 else f"{abs(c)}{sym}"
            out += ("-" if c < 0 else "+" if out else "") + body
    return out or "0"


_TERM = re.compile(r"([+-]?)(\d*)([A-Za-z_]\w*)")


def parse(M, text: str) -> Coords:
    coords = [0] * len(M.basis)
    for sign, digits, sym in _TERM.findall(text.replace(" ", "")):
        coords[M.basis.index(sym)] += (-1 if sign == "-" else 1) * int(digits or 1)
    return tuple(coords)


# --- presets, written down from their conventions ----------------------------


def _unit(n, i, c=1):
    v = [0] * n
    v[i] = c
    return tuple(v)


def preset_ref(name: str) -> RefModel:
    """The presets' conventions, restated: the all-ones area except on the
    blow-ups (omega(L) = 3, omega(E_i) = 1), K characteristic, b2+ from the
    standard Betti numbers."""
    base, _, arg = name.partition("(")
    n = int(arg.rstrip(")")) if arg else None
    one = Fraction(1)
    if base == "cp2":
        L = (1,)
        return RefModel(
            "cp2", ("L",), ((1,),), (-3,), (one,), 1, minimal=True,
            gr0={L: 1, (2,): 1, (3,): 1},
            spheres={(1,): 1, (2,): 1, (3,): 12},
            true_spheres={(d,): km(d) for d in range(1, 8)},
        )
    if base == "cp2_blowup":
        r = n + 1
        gram = tuple(tuple((1 if i == 0 else -1) if i == j else 0 for j in range(r)) for i in range(r))
        L = _unit(r, 0)
        Es = [_unit(r, i) for i in range(1, r)]
        table = {scale(L, d): km(d) for d in (1, 2, 3)}
        for i, E in enumerate(Es):
            table[E] = 1
            table[add(L, E, -1)] = 1
            for F in Es[i + 1:]:
                table[add(add(L, E, -1), F, -1)] = 1
        true = dict(table)
        true.update({scale(L, d): km(d) for d in range(4, 8)})
        return RefModel(
            name, ("L",) + tuple(f"E{i}" for i in range(1, r)), gram, (-3,) + (1,) * n,
            (Fraction(3),) + (one,) * n, 1, exceptional=Es, spheres=table, true_spheres=true,
        )
    if base == "s2xs2":
        A1, A2, A12 = (1, 0), (0, 1), (1, 1)
        return RefModel(
            "s2xs2", ("A1", "A2"), ((0, 1), (1, 0)), (-2, -2), (one, one), 1, minimal=True,
            gr0={A1: 1, A2: 1, A12: 1}, spheres={A1: 1, A2: 1, A12: 1},
            true_spheres={A1: 1, A2: 1, A12: 1},
        )
    if base == "s2xt2":
        return RefModel(
            "s2xt2", ("S", "B"), ((0, 1), (1, 0)), (0, -2), (one, one), 1, minimal=True,
            tori={(0, 1): [("+0", 1), ("+0", 1)]}, spheres={(1, 0): 1}, true_spheres={(1, 0): 1},
        )
    if base == "elliptic":
        F, S = (1, 0), (0, 1)
        tori = [("+0", 1)] if n == 1 else [("-0", 1)] * (n - 2)
        return RefModel(
            name, ("F", "S"), ((0, 1), (1, -n)), (n - 2, 0), (one, one), 2 * n - 1,
            exceptional=[S] if n == 1 else [], minimal=n >= 2, tori={F: tori},
            spheres={S: 1} if n == 1 else {}, true_spheres={S: 1} if n == 1 else {},
        )
    raise ValueError(f"no reference for preset {name!r}")


# --- Kontsevich-Manin --------------------------------------------------------


@lru_cache(maxsize=None)
def km(d: int) -> int:
    """Rational degree-d plane curves through 3d-1 general points
    (Kontsevich-Manin, CMP 164, 1994)."""
    if d == 1:
        return 1
    total = 0
    for a in range(1, d):
        b = d - a
        total += km(a) * km(b) * a * a * b * (b * comb(3 * d - 4, 3 * a - 2) - a * comb(3 * d - 4, 3 * a - 1))
    return total


# --- torus series by long division ------------------------------------------


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


# Each label's generating function as numerator and denominator in t.
RATIONAL = {
    "+0": ([1], [1, -1]),
    "+1": ([1, 1], [1]),
    "+2": ([1, 1], [1, 0, 1]),
    "+3": (poly_mul([1, 1], [1, 0, -1]), [1, 0, 1]),
}
RATIONAL.update({"-" + key[1]: (den, num) for key, (num, den) in list(RATIONAL.items())})


def divide(num, den, order):
    """Power series of num/den up to t^order; den has constant term +-1."""
    out = []
    for n in range(order + 1):
        acc = num[n] if n < len(num) else 0
        for i in range(1, min(n, len(den) - 1) + 1):
            acc -= den[i] * out[n - i]
        q, r = divmod(acc, den[0])
        if r:
            raise ArithmeticError("denominator must have unit constant term")
        out.append(q)
    return out


def torus_counts(tori, order):
    """Coefficients t^0..t^order of the product of f_label(t^m)."""
    num, den = [1], [1]
    for label, m in tori:
        a, b = RATIONAL[label]
        num = poly_mul(num, _spread(a, m))
        den = poly_mul(den, _spread(b, m))
    return divide(num, den, order)


def _spread(p, m):
    out = [0] * ((len(p) - 1) * m + 1)
    for j, c in enumerate(p):
        out[j * m] = c
    return out


# --- decompositions ----------------------------------------------------------


def decompositions(M, A, cands):
    """Every set of parts that the decomposition rules admit for A.

    Parts: each square-positive candidate (once), and on each square-zero
    ray every multiple m*prim that the ray's candidates can sum to.  A
    decomposition takes pairwise orthogonal, non-proportional parts, at
    most one per ray, summing to A.  Minimal models with b2+ > 1 keep
    only candidates with k = 0.
    """
    cands = list(dict.fromkeys(cands))
    if M.minimal and M.b2plus > 1:
        cands = [c for c in cands if k(M, c) == 0]
    wA = area(M, A)
    parts = [(c, None) for c in cands if pair(M, c, c) > 0]
    rays = {}
    for c in cands:
        if pair(M, c, c) == 0:
            g = content(c)
            rays.setdefault(tuple(x // g for x in c), set()).add(g)
    for prim, steps in rays.items():
        top = int(wA / area(M, prim))
        reach = [True] + [False] * top
        for m in range(1, top + 1):
            reach[m] = any(s <= m and reach[m - s] for s in steps)
            if reach[m]:
                parts.append((scale(prim, m), prim))
    found = []

    def dfs(i, chosen, total, w):
        if total == A and chosen:
            found.append(tuple(sorted(p for p, _ in chosen)))
        for j in range(i, len(parts)):
            p, ray = parts[j]
            wp = w + area(M, p)
            if wp > wA or (ray is not None and any(r == ray for _, r in chosen)):
                continue
            if all(pair(M, p, q) == 0 and not proportional(p, q) for q, _ in chosen):
                dfs(j + 1, chosen + [(p, ray)], add(total, p), wp)

    dfs(0, [], tuple(0 for _ in A), Fraction(0))
    return sorted(set(found))


def gromov(M, A, cands):
    """Sum over decompositions of the product of part counts, or
    ("missing", classes) when a part has no count data."""
    total, missing = 0, set()
    for dec in decompositions(M, A, cands):
        prod = 1
        for p in dec:
            if pair(M, p, p) > 0:
                if p not in M.gr0:
                    missing.add(p)
                    continue
                prod *= M.gr0[p]
            else:
                c = content(p)
                prim = tuple(x // c for x in p)
                if prim not in M.tori:
                    missing.add(p)
                    continue
                prod *= torus_counts(M.tori[prim], c)[c]
        total += prod
    return ("missing", tuple(sorted(missing))) if missing else total


# --- sphere configurations ---------------------------------------------------


def sphere_configs(M, A, table):
    """Multisets of table classes with c1 >= 1 summing to A: distinct parts
    pairwise orthogonal, repeats only for exceptional or square-zero
    classes, at most c1(A) parts.  Returns sorted (parts, k, p) triples."""
    cA, wA = c1(M, A), area(M, A)
    if cA < 1:
        return []
    keys = sorted(B for B in table if c1(M, B) >= 1)
    found = []

    def dfs(i, chosen, total, w, p):
        if total == A and p:
            parts = tuple(sorted(B for B, r in chosen for _ in range(r)))
            found.append((parts, cA - p, p))
        for j in range(i, len(keys)):
            B = keys[j]
            if any(pair(M, B, C) for C, _ in chosen):
                continue
            repeatable = B in M.exceptional or pair(M, B, B) == 0
            r, wB = 0, area(M, B)
            while p + r < cA and w + (r + 1) * wB <= wA and (r == 0 or repeatable):
                r += 1
                dfs(j + 1, chosen + [(B, r)], add(total, B, r), w + r * wB, p + r)

    dfs(0, [], tuple(0 for _ in A), Fraction(0), 0)
    return sorted(found, key=lambda cfg: (cfg[2], cfg[0]))


def gr_s(M, A):
    """Sphere count from the counts known outside the program."""
    total = 0
    for parts, kk, p in sphere_configs(M, A, M.true_spheres):
        term = factorial(kk)
        for B in parts:
            term //= factorial(c1(M, B) - 1)
        for B in set(parts):
            r = parts.count(B)
            if r >= 2 and c1(M, B) >= 2:
                term //= factorial(r)
        for B in parts:
            term *= M.true_spheres[B]
        total += term
    return total

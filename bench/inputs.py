"""Seeded inputs for the three workloads, each paired with its expected answer.

Only the choice of classes, labels and table entries depends on the seed;
the number and size of operations in a round do not, so a round costs
about the same on every seed.  Expected answers come from refs.py, never
from gromov4.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import refs

LABELS = [f"{s}{i}" for s in "+-" for i in range(4)]

SWEEP_MODELS = [
    "cp2", "cp2_blowup(1)", "cp2_blowup(2)", "cp2_blowup(3)", "s2xs2", "s2xt2",
    "elliptic(1)", "elliptic(2)", "elliptic(3)", "cp2_blowup(8)", "cp2_blowup(16)",
]
SEARCH_MODELS = [
    "cp2", "cp2_blowup(1)", "cp2_blowup(2)", "cp2_blowup(3)", "cp2_blowup(4)", "s2xs2", "s2xt2",
    "elliptic(1)", "elliptic(3)", "elliptic(4)", "elliptic(5)",
]
# Blow-up sizes for the CLI's model-build calls; fixed, so that a round's
# cost does not depend on the seed.
CLI_BLOWUPS = (16, 32)
FIBERSUM_N = 2500


@dataclass
class Workload:
    name: str
    main: str  # the in-process segment that runs first after the CLI calls
    models: list  # preset names built in set-up
    sweep: list = field(default_factory=list)  # (model, A, partner or None, expected)
    search: list = field(default_factory=list)  # (kind, model, A, candidates, expected)
    series_lists: int = 0  # torus lists per round, each k = 0..12 before and after a birth
    series_long: int = 0  # long single-list expansions per round
    cli: list = field(default_factory=list)  # CliCall
    files: list = field(default_factory=list)  # model files the CLI loads


@dataclass
class CliCall:
    argv: list
    category: str  # class, search, series or other
    classes: int  # classes queried by a per-class call
    expect: object  # exact stdout text, or a predicate on it
    code: int = 0
    stderr_prefix: str = ""


# --- classes ----------------------------------------------------------------


def random_class(rng, M, cone=False, tries=200):
    """A class with small coordinates; with cone=True, rejection-sample the
    closed forward cone (falls back to the last draw)."""
    r = len(M.basis)
    spread = 1 if r > 4 else 2
    for _ in range(tries if cone else 1):
        if cone:
            a = (rng.randint(0, 6),) + tuple(rng.randint(-spread, spread) for _ in range(r - 1))
            if refs.in_cone(M, a) and any(a):
                return a
        else:
            a = tuple(rng.randint(-3, 3) for _ in range(r))
            if any(a):
                return a
    return a


def negative_class(rng, M, tries=200):
    """A class of negative square, or any class when the form has none."""
    for _ in range(tries):
        a = random_class(rng, M)
        if refs.pair(M, a, a) < 0:
            return a
    return a


def sweep_expected(M, a, b):
    sq = refs.pair(M, a, a)
    return (
        refs.k(M, a), refs.k_prime(M, a), refs.genus(M, a),
        tuple(refs.dim(M, a, g) for g in (0, 1, 2)),
        refs.is_good(M, a), refs.in_cone(M, a), refs.in_cone(M, a, strict=True),
        refs.classify(M, a) if sq < 0 else None,
        refs.reduce(M, a) if not M.minimal else None,
        refs.lightcone(M, a, b) if b is not None else None,
        refs.fmt(M, a),
    )


def sweep_queries(rng, names, per_model):
    out = []
    for name in names:
        M = refs.preset_ref(name)
        for i in range(per_model):
            # Even queries are forward-cone pairs, so the light cone check
            # runs on b2+ = 1 models; odd ones have negative square, so
            # classify_negative runs.  The mix does not depend on the seed.
            if i % 2:
                a, b = negative_class(rng, M), None
            else:
                a, b = random_class(rng, M, cone=True), random_class(rng, M, cone=True)
                if not (M.b2plus == 1 and refs.in_cone(M, a) and refs.in_cone(M, b)):
                    b = None
            out.append((name, a, b, sweep_expected(M, a, b)))
    return out


# --- searches -----------------------------------------------------------------


def _search_op(kind, name, A, cands=None):
    M = refs.preset_ref(name)
    a = refs.parse(M, A)
    cs = [refs.parse(M, c) for c in cands] if cands else None
    if kind == "decomp":
        want = refs.decompositions(M, a, cs)
    elif kind == "gr":
        want = refs.gromov(M, a, cs)
    elif kind == "spheres":
        want = refs.sphere_configs(M, a, M.spheres)
    else:
        want = refs.gr_s(M, a)
    return (kind, name, a, cs, want)


BLOWUP4_CANDS = ["L", "L-E1", "L-E2", "L-E3", "L-E4", "2L", "E1", "E2", "E3"]
RULED_CANDS = ["S", "B", "2B", "S+B"]


def search_ops(full: bool):
    """The fixed count queries.  full=False is the small companion list."""
    small = [
        ("decomp", "s2xs2", "A1+A2", ["A1", "A2", "A1+A2"]),
        ("gr", "s2xs2", "A1+A2", ["A1", "A2", "A1+A2"]),
        ("gr", "s2xt2", "3B", ["B"]),
        ("gr", "elliptic(4)", "2F", ["F"]),
        ("spheres", "cp2_blowup(1)", "L+2E1"),
        ("gr_s", "cp2_blowup(1)", "L+2E1"),
        ("gr_s", "cp2_blowup(1)", "3L+E1"),
        ("gr_s", "cp2_blowup(2)", "L+E1+E2"),
        ("decomp", "s2xt2", "S+8B", RULED_CANDS),
        ("decomp", "cp2_blowup(4)", "2L", BLOWUP4_CANDS),
    ]
    if not full:
        return [_search_op(*op) for op in small]
    ops = small + [
        ("decomp", "cp2", "3L", ["L", "2L", "3L"]),
        ("gr", "cp2", "3L", ["L", "2L", "3L"]),
        ("gr", "elliptic(1)", "3F", ["F", "S"]),
        ("decomp", "elliptic(3)", "2F", ["F", "2F", "F+S"]),
        ("gr", "elliptic(5)", "2F", ["F", "2F"]),
        ("gr", "cp2_blowup(2)", "2L", ["L", "L-E1", "L-E2", "2L", "E1", "E2"]),
        ("gr", "cp2_blowup(3)", "L+E1", ["L", "E1", "L+E1", "L-E2"]),
    ]
    # Queries with empty answers: all of their cost is search that finds nothing.
    ops += [("decomp", "s2xt2", f"S+{d}B", RULED_CANDS) for d in (16, 32)]
    ops += [("gr", "s2xt2", "S+16B", RULED_CANDS)]
    ops += [("decomp", "cp2_blowup(4)", f"{d}L", BLOWUP4_CANDS) for d in (3, 4)]
    ops += [("gr", "cp2_blowup(4)", "3L", BLOWUP4_CANDS)]
    for d in range(1, 6):
        ops += [("spheres", "cp2", f"{d}L"), ("gr_s", "cp2", f"{d}L")]
    for n, classes in (
        (1, ["L", "2L", "3L", "E1", "L-E1", "L+E1"]),
        (2, ["2L", "3L", "L-E1-E2", "L-E1+E2"]),
        (3, ["L", "2L", "L+E1+E2+E3"]),
    ):
        for A in classes:
            ops += [("spheres", f"cp2_blowup({n})", A), ("gr_s", f"cp2_blowup({n})", A)]
    return [_search_op(*op) for op in ops]


# Fixed inputs on which the program is known to answer wrongly: the cp2
# sphere table stops at 3L and gr_s reads the gap as 0, where the
# Kontsevich-Manin counts are 620 and 87304.
KNOWN_FAULTS = {("gr_s", "cp2", (4,)), ("gr_s", "cp2", (5,))}


# --- torus series --------------------------------------------------------------


def series_ops(seed: int, round_no: int, lists: int, long: int):
    """Torus lists for one round: fresh every round, so no result can be
    reused from an earlier round.  Returns (tori, ks, expected counts)."""
    rng = random.Random(f"series:{seed}:{round_no}")
    ops = []
    for _ in range(lists):
        tori = [(rng.choice(LABELS), rng.randint(1, 3)) for _ in range(rng.randint(0, 3))]
        base = refs.torus_counts(tori, 12)
        label, m = rng.choice(LABELS[:4]), rng.randint(1, 3)
        born = tori + [(label, m), ("-" + label[1], m)]
        if refs.torus_counts(born, 12) != base:
            raise AssertionError("reference violates the birth rule")
        ops.append((tori, range(13), base))
        ops.append((born, range(13), base))
    for _ in range(long):
        tori = [(rng.choice(LABELS), rng.randint(1, 3)) for _ in range(6)]
        ops.append((tori, (48,), refs.torus_counts(tori, 48)))
    return ops


# --- CLI ----------------------------------------------------------------------


def _b(x):
    return "true" if x else "false"


def per_class_call(name, M, sub, classes, human=False, extra=()):
    """A per-class subcommand and its expected stdout."""
    fmt = lambda a: refs.fmt(M, a)  # noqa: E731
    lines = []
    for a in classes:
        s = fmt(a)
        if sub == "k":
            lines.append(f"k({s}) = {refs.k(M, a)}" if human else f"k({s})={refs.k(M, a)}")
        elif sub == "kprime":
            lines.append(f"k'({s}) = {refs.k_prime(M, a)}" if human else f"kprime({s})={refs.k_prime(M, a)}")
        elif sub == "genus":
            lines.append(f"genus_embedded({s}) = {refs.genus(M, a)}" if human else f"genus({s})={refs.genus(M, a)}")
        elif sub == "dim":
            g = int(extra[1])
            lines.append(f"dim({s};g={g})={refs.dim(M, a, g)}")
        elif sub == "good":
            lines.append(f"good({s})={_b(refs.is_good(M, a))}")
        elif sub == "cone":
            strict = "--strict" in extra
            lines.append(f"cone({s};strict={_b(strict)})={_b(refs.in_cone(M, a, strict))}")
        elif sub == "classify-neg":
            kind, wit = refs.classify(M, a)
            lines.append(f"classify({s})={kind}")
            if wit:
                lines.append(f"classify({s}).witness=" + ",".join(map(str, wit)))
        elif sub == "reduce":
            good, strips = refs.reduce(M, a)
            lines.append(f"reduce({s}).good={fmt(good)}")
            lines.append(f"reduce({s}).strips=" + ",".join(f"{fmt(E)}:{m}" for E, m in strips))
    if sub == "lightcone":
        a, b = classes
        ok, checks = refs.lightcone(M, a, b)
        key = f"lightcone({fmt(a)},{fmt(b)})"
        lines = [f"{key}={'pass' if ok else 'fail'}"] + [
            f"{key}.{cond}={'pass' if passed else 'fail'}" for cond, passed in checks
        ]
    argv = [sub, "--manifold", name] + [f"--class={fmt(a)}" for a in classes] + list(extra)
    if not human:
        argv += ["--format", "records"]
    return CliCall(argv, "class", len(classes), "".join(line + "\n" for line in lines))


def gr_call(name, M, A, cands):
    """A gr call on data that covers every part, so the answer is a count."""
    s = refs.fmt(M, A)
    if not isinstance(refs.gromov(M, A, cands), int):
        raise ValueError(f"gr({s}) on {name} needs count data the model lacks")
    argv = ["gr", "--manifold", name, f"--class={s}", "--candidates", ",".join(refs.fmt(M, c) for c in cands),
            "--format", "records"]
    return CliCall(argv, "search", 1, f"gr({s})={refs.gromov(M, A, cands)}\n")


def decomp_call(name, M, A, cands):
    s = refs.fmt(M, A)
    decs = refs.decompositions(M, A, cands)
    out = f"decomp({s}).count={len(decs)}\n" + "".join(
        f"decomp({s}).{i}=" + "|".join(refs.fmt(M, p) for p in dec) + "\n" for i, dec in enumerate(decs, 1)
    )
    argv = ["decomp", "--manifold", name, f"--class={s}", "--candidates", ",".join(refs.fmt(M, c) for c in cands),
            "--format", "records"]
    return CliCall(argv, "search", 1, out)


def gr_s_call(name, M, A, human=False):
    s = refs.fmt(M, A)
    v = refs.gr_s(M, A)
    if human:
        return CliCall(["gr-s", "--manifold", name, f"--class={s}"], "search", 1, f"Gr_s({s}) = {v}\n")
    return CliCall(["gr-s", "--manifold", name, f"--class={s}", "--format", "records"], "search", 1, f"gr_s({s})={v}\n")


def gr_tori_call(tori, kk):
    text = ",".join(f"{label}:{m}" for label, m in tori)
    return CliCall(["gr-tori", f"--tori={text}", "--k", str(kk), "--format", "records"], "series", 0,
                   f"gr_tori={refs.torus_counts(tori, kk)[kk]}\n")


def kmin_call(n):
    """verify --mode kmin on V(n): the clauses re-evaluated on the signed
    binomial table of kF, read from the (-0)^(n-2) series."""
    M = refs.preset_ref(f"elliptic({n})")
    kmax = max(n - 2, 1)
    row = refs.torus_counts(M.tori[(1, 0)], kmax)
    table = {(kk, 0): row[kk] for kk in range(kmax + 1)}
    K = M.K
    i = all(v == 0 or refs.k(M, a) == 0 for a, v in table.items())
    iii = all(abs(v) == abs(table[refs.add(K, a, -1)]) for a, v in table.items() if refs.add(K, a, -1) in table)
    iv = refs.pair(M, K, K) != 0 or all(v == 0 or refs.pair(M, a, a) == 0 for a, v in table.items())
    verdicts = [("i", i), ("iii", iii), ("iv", iv)]
    out = "".join(f"verify.{c}={'pass' if ok else 'fail'}\n" for c, ok in verdicts)
    out += f"verify.result={'pass' if all(ok for _, ok in verdicts) else 'fail'}\n"
    return CliCall(["verify", "--mode", "kmin", "--n", str(n), "--format", "records"], "series", 0, out)


def fibersum_call(n):
    def check(out: str) -> bool:
        lines = out.splitlines()
        trace = [line for line in lines[1:] if line.startswith(f"fibersum({n}).trace.")]
        return lines[:1] == [f"fibersum({n})={2 - n}"] and len(trace) == len(lines) - 1 == 2 * n + 1

    return CliCall(["fibersum", "--n", str(n), "--format", "records"], "other", 0, check)


# --- model files -------------------------------------------------------------------


def _frac_text(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def blowup_doc(rng, name, n, pairs):
    """A blow-up of the plane with rational areas and a sphere table of
    3 + 2n + pairs entries."""
    r = n + 1
    basis = ["L"] + [f"E{i}" for i in range(1, r)]
    area = [Fraction(rng.choice([7, 9, 11, 13]), 2)] + [Fraction(1, rng.randint(2, 5)) for _ in range(n)]
    M = refs.RefModel(
        name, tuple(basis), tuple(tuple((1 if i == 0 else -1) if i == j else 0 for j in range(r)) for i in range(r)),
        (-3,) + (1,) * n, tuple(area), 1, exceptional=[refs._unit(r, i) for i in range(1, r)],
    )
    L = refs._unit(r, 0)
    table = {L: 1, refs.scale(L, 2): 1, refs.scale(L, 3): 12}
    for E in M.exceptional:
        table[E] = 1
        table[refs.add(L, E, -1)] = 1
    all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for i, j in rng.sample(all_pairs, pairs):
        table[refs.add(refs.add(L, M.exceptional[i], -1), M.exceptional[j], -1)] = 1
    M.spheres = M.true_spheres = table
    M.gr0 = {L: 1, refs.scale(L, 2): 1}
    return M


def ruled_doc(rng, name, m):
    """S^2 x S^2 blown up m times, with torus labels on the rays of S and B."""
    r = m + 2
    basis = ["S", "B"] + [f"E{i}" for i in range(1, m + 1)]
    gram = [[0] * r for _ in range(r)]
    gram[0][1] = gram[1][0] = 1
    for i in range(2, r):
        gram[i][i] = -1
    area = [Fraction(rng.choice([3, 5, 7]), rng.choice([2, 3])) for _ in range(2)]
    area += [Fraction(1, rng.randint(3, 5)) for _ in range(m)]
    Es = [refs._unit(r, i) for i in range(2, r)]
    M = refs.RefModel(name, tuple(basis), tuple(map(tuple, gram)), (-2, -2) + (1,) * m, tuple(area), 1,
                      exceptional=Es)
    S, B = refs._unit(r, 0), refs._unit(r, 1)
    table = {S: 1, B: 1, refs.add(S, B): 1}
    for E in Es:
        table[E] = 1
        table[refs.add(S, E, -1)] = 1
        table[refs.add(B, E, -1)] = 1
    M.spheres = M.true_spheres = table
    M.gr0 = {refs.add(S, B): 1}
    M.tori = {B: [(rng.choice(LABELS), 1) for _ in range(2)], S: [(rng.choice(LABELS), 1)]}
    return M


def model_doc(M) -> dict:
    f = lambda a: refs.fmt(M, a)  # noqa: E731
    return {
        "name": M.name,
        "basis": list(M.basis),
        "gram": [list(row) for row in M.gram],
        "K": list(M.K),
        "area": [_frac_text(x) for x in M.area],
        "exceptional": [f(E) for E in M.exceptional],
        "minimal": False,
        "gr0_table": [{"class": f(a), "value": v} for a, v in M.gr0.items()],
        "torus_table": [{"class": f(a), "label": lab, "cover": c} for a, ts in M.tori.items() for lab, c in ts],
        "sphere_table": [{"class": f(a), "count": v} for a, v in M.spheres.items()],
    }


def broken_doc(rng, M):
    """A copy of a valid model document with one fault, and the $-path
    the loader must name."""
    doc = model_doc(M)
    kind = rng.randrange(4)
    if kind == 0:
        last = len(M.basis) - 1
        doc["gram"][0][last] = 1
        return doc, f"$.gram[{last}][0]"
    if kind == 1:
        doc["exceptional"].append(M.basis[0])
        return doc, f"$.exceptional[{len(doc['exceptional']) - 1}]"
    if kind == 2:
        doc["comment"] = "not a field"
        return doc, "$.comment"
    i = rng.randrange(len(doc["sphere_table"]))
    doc["sphere_table"][i]["count"] = -1
    return doc, f"$.sphere_table[{i}].count"


# --- workloads ---------------------------------------------------------------------


def invariant_sweep(seed: int) -> Workload:
    rng = random.Random(f"invariant-sweep:{seed}")
    wl = Workload("invariant-sweep", "sweep", list(SWEEP_MODELS), series_lists=40, series_long=2)
    wl.sweep = sweep_queries(rng, SWEEP_MODELS, 200)
    wl.search = search_ops(full=False)
    big, mid = refs.preset_ref("cp2_blowup(16)"), refs.preset_ref("cp2_blowup(8)")
    b2, b3 = refs.preset_ref("cp2_blowup(2)"), refs.preset_ref("cp2_blowup(3)")
    wl.cli = [
        per_class_call("cp2_blowup(16)", big, "k", [random_class(rng, big) for _ in range(2)]),
        per_class_call("cp2_blowup(8)", mid, "cone", [random_class(rng, mid, cone=True) for _ in range(2)]),
        per_class_call("cp2_blowup(3)", b3, "kprime", [random_class(rng, b3) for _ in range(2)]),
        per_class_call("cp2_blowup(2)", b2, "classify-neg", [negative_class(rng, b2) for _ in range(2)]),
    ]
    return wl


def count_search(seed: int) -> Workload:
    rng = random.Random(f"count-search:{seed}")
    wl = Workload("count-search", "search", list(SEARCH_MODELS), series_lists=300, series_long=10)
    wl.sweep = sweep_queries(rng, SWEEP_MODELS, 40)
    wl.search = search_ops(full=True)
    ruled, cp2, b1 = refs.preset_ref("s2xt2"), refs.preset_ref("cp2"), refs.preset_ref("cp2_blowup(1)")
    wl.cli = [
        gr_call("s2xt2", ruled, (0, rng.randint(2, 6)), [(0, 1)]),
        decomp_call("s2xt2", ruled, (1, 8), [(1, 0), (0, 1), (0, 2), (1, 1)]),
        gr_tori_call([(rng.choice(LABELS), rng.randint(1, 3)) for _ in range(3)], 12),
        gr_tori_call([(rng.choice(LABELS), rng.randint(1, 3)) for _ in range(5)], 24),
        gr_s_call("cp2", cp2, (rng.randint(1, 3),)),
        gr_s_call("cp2_blowup(1)", b1, (3, 1)),
    ]
    return wl


def cli_scripted(seed: int, workdir: Path, root: Path) -> Workload:
    """The scripted CLI session; writes its model files into workdir and
    names them relative to root, the directory the CLI runs in."""
    rng = random.Random(f"cli-scripted:{seed}")
    P = refs.preset_ref
    models = ["cp2", "cp2_blowup(1)", "cp2_blowup(2)", "cp2_blowup(3)", "s2xs2", "s2xt2",
              "elliptic(1)", "elliptic(2)", "elliptic(3)"] + [f"cp2_blowup({n})" for n in CLI_BLOWUPS]
    wl = Workload("cli-scripted", "sweep", models)
    workdir.mkdir(parents=True, exist_ok=True)

    def write(doc, stem):
        path = workdir / f"{stem}.json"
        path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
        return path.relative_to(root).as_posix()

    F1 = blowup_doc(rng, "blowup_small", 4, 3)
    F2 = blowup_doc(rng, "blowup_large", 12, 30)
    F3 = ruled_doc(rng, "ruled", 3)
    f1, f2, f3 = (write(model_doc(M), M.name) for M in (F1, F2, F3))
    wl.files = [f1, f2, f3]
    rc = lambda M, n=2: [random_class(rng, M) for _ in range(n)]  # noqa: E731
    b1, b2, b3, e3 = P("cp2_blowup(1)"), P("cp2_blowup(2)"), P("cp2_blowup(3)"), P("elliptic(3)")
    big = [P(f"cp2_blowup({n})") for n in CLI_BLOWUPS]
    calls = [
        per_class_call("cp2_blowup(2)", b2, "k", rc(b2, 3), human=True),
        per_class_call("cp2_blowup(3)", b3, "kprime", rc(b3, 3)),
        per_class_call("s2xs2", P("s2xs2"), "genus", rc(P("s2xs2"))),
        per_class_call("elliptic(3)", e3, "dim", rc(e3), extra=("--genus", str(rng.randint(0, 2)))),
        per_class_call("cp2_blowup(1)", b1, "good", rc(b1, 3)),
        per_class_call("s2xt2", P("s2xt2"), "cone", rc(P("s2xt2")), extra=("--strict",) if rng.random() < 0.5 else ()),
        per_class_call("cp2_blowup(2)", b2, "classify-neg", [negative_class(rng, b2) for _ in range(2)]),
        per_class_call("cp2_blowup(3)", b3, "reduce", rc(b3)),
        per_class_call("cp2_blowup(2)", b2, "lightcone", [random_class(rng, b2, cone=True) for _ in range(2)]),
        per_class_call("elliptic(1)", P("elliptic(1)"), "kprime", rc(P("elliptic(1)"))),
        per_class_call(f"cp2_blowup({CLI_BLOWUPS[0]})", big[0], "k", rc(big[0])),
        per_class_call(f"cp2_blowup({CLI_BLOWUPS[1]})", big[1], "kprime", rc(big[1])),
        per_class_call(f1, F1, "k", rc(F1, 3)),
        per_class_call(f2, F2, "kprime", rc(F2, 3)),
        per_class_call(f2, F2, "reduce", rc(F2)),
        per_class_call(f3, F3, "genus", rc(F3)),
        per_class_call(f3, F3, "good", rc(F3)),
        gr_s_call(f1, F1, refs._unit(5, 0)),
        decomp_call(f3, F3, refs.add(refs._unit(5, 0), refs._unit(5, 1)),
                    [refs._unit(5, 0), refs._unit(5, 1), (1, 1, 0, 0, 0), refs._unit(5, 2)]),
        gr_call(f3, F3, (0, 2, 0, 0, 0), [refs._unit(5, 1)]),
        gr_call("s2xt2", P("s2xt2"), (0, rng.randint(2, 6)), [(0, 1)]),
        gr_s_call("cp2", P("cp2"), (rng.randint(1, 3),), human=True),
        decomp_call("s2xs2", P("s2xs2"), (1, 1), [(1, 0), (0, 1), (1, 1)]),
        decomp_call("s2xt2", P("s2xt2"), (1, 8), [(1, 0), (0, 1), (0, 2), (1, 1)]),
        gr_s_call("cp2_blowup(2)", b2, (1, 1, 1)),
        gr_tori_call([(rng.choice(LABELS), rng.randint(1, 3)) for _ in range(3)], 12),
        gr_tori_call([(rng.choice(LABELS), rng.randint(1, 3)) for _ in range(4)], 20),
        kmin_call(rng.randint(3, 8)),
        kmin_call(rng.randint(3, 8)),
        fibersum_call(FIBERSUM_N),
    ]
    for stem, M in (("broken_a", F1), ("broken_b", F3)):
        doc, path = broken_doc(rng, M)
        f = write(doc, stem)
        calls.append(CliCall(["k", "--manifold", f, "--class=" + M.basis[0], "--format", "records"], "other", 0, "",
                             code=2, stderr_prefix=f"error code=model msg={path}:"))
    wl.cli = calls
    return wl


def build(name: str, seed: int, workdir: Path, root: Path) -> Workload:
    if name == "invariant-sweep":
        wl = invariant_sweep(seed)
    elif name == "count-search":
        wl = count_search(seed)
    elif name == "cli-scripted":
        wl = cli_scripted(seed, workdir, root)
    else:
        raise ValueError(f"unknown workload {name!r}")
    wl.models = list(dict.fromkeys(wl.models + [q[0] for q in wl.sweep] + [op[1] for op in wl.search]))
    return wl


WORKLOADS = ("invariant-sweep", "count-search", "cli-scripted")

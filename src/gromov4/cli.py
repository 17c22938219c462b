"""Command-line front end.

Every command works on a manifold model named by --manifold, which is
either a preset name (cp2, cp2_blowup(n), s2xs2, s2xt2, elliptic(n)) or a
path to a JSON model file.  Classes are expressions over the model's basis
symbols, e.g. "3L - E1".  Output comes in two formats: "human" (default)
and "records", where every line is key=value with stable keys so golden
tests can diff byte-exactly.

Exit codes: 0 on success, 2 on usage errors (bad flags, unparseable
expressions, invalid model files), 1 on domain errors (an operation asked
outside its mathematical domain, or missing count data).  Errors print a
single machine-parsable record on stderr: error code=<id> msg=<text>.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import warnings
from collections.abc import Callable, Iterator
from itertools import chain

from . import fibersum, model_io, report, spherical, structure, torus_series
from .errors import (
    AssignmentAmbiguityWarning,
    ClassParseError,
    DomainError,
    ModelFileError,
    ReductionConsistencyWarning,
    UnknownPresetError,
)
from .invariants import (
    classify_negative,
    genus_embedded,
    in_forward_cone,
    is_good_class,
    k,
    k_prime,
    light_cone_pair_check,
    moduli_dimension,
    reduce_multicovers,
)
from .lattice import (
    PRESET_NAMES,
    HClass,
    ManifoldModel,
    format_class,
    preset,
)


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse wants to sys.exit on errors; route them through the
    # structured error path instead.
    def error(self, message):
        raise UsageError(message)


def _load_manifold(source: str) -> ManifoldModel:
    looks_like_path = os.sep in source or source.endswith(".json")
    if not looks_like_path:
        try:
            return preset(source)
        except UnknownPresetError:
            if not os.path.exists(source):
                raise
    if not os.path.exists(source):
        raise UsageError(f"manifold {source!r} is neither a preset nor a file")
    return model_io.load_model(source)


def _classes(model: ManifoldModel, args) -> list[HClass]:
    exprs = args.cls or []
    if not exprs:
        raise UsageError("at least one --class is required")
    return [model.parse(e) for e in exprs]


_INTEGER = re.compile(r"[+-]?[0-9]+")


def integer(text: str) -> int:
    """An optionally signed run of ASCII digits as an int.  int() alone
    also reads other Unicode digits, "_" separators and outer spaces."""
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _bool(x: bool) -> str:
    return "true" if x else "false"


def _parse_tori(text: str) -> tuple[tuple[torus_series.TorusLabel, int], ...]:
    tori = []
    for token in filter(None, (t.strip() for t in text.split(","))):
        label, colon, cover = token.partition(":")
        try:
            tori.append((label, integer(cover)) if colon else label)
        except ValueError:
            raise UsageError(f"bad cover multiplicity in torus token {token!r}") from None
    if not tori:
        raise UsageError("--tori needs at least one label")
    try:
        return torus_series.parse_tori(tori)
    except ModelFileError as exc:
        raise UsageError(exc.message) from None


def _parse_component(text: str) -> tuple[str, int, int]:
    fields = text.split(":")
    if len(fields) > 3:
        raise UsageError(f"component {text!r} must be expr[:mult[:genus]]")
    expr = fields[0]
    try:
        mult = integer(fields[1]) if len(fields) > 1 and fields[1] else 1
        genus = integer(fields[2]) if len(fields) > 2 and fields[2] else 0
    except ValueError:
        raise UsageError(f"bad integers in component {text!r}") from None
    return expr, mult, genus


def _witness(w) -> str:
    """A witness item as text; a tuple renders as "(a,b,...)" of its items."""
    if isinstance(w, tuple):
        return "(" + ",".join(map(_witness, w)) + ")"
    return str(w)


def _report_lines(rep: report.Report, prefix: str, fmt: str) -> list[str]:
    lines = []
    for check in rep.checks:
        status = "pass" if check.passed else "fail"
        if fmt == "records":
            lines.append(f"{prefix}.{check.cond}={status}")
            if not check.passed and check.witness:
                wit = "|".join(map(_witness, check.witness))
                lines.append(f"{prefix}.{check.cond}.witness={wit}")
        else:
            line = f"  {check.cond}: {status}"
            if not check.passed:
                line += f"  ({check.detail})"
                if check.witness:
                    line += " witness " + ", ".join(map(_witness, check.witness))
            lines.append(line)
    verdict = "pass" if rep.ok else "fail"
    if fmt == "records":
        lines.append(f"{prefix}.result={verdict}")
    else:
        lines.append(f"result: {verdict}")
    return lines


# --- command handlers; each returns the stdout lines -----------------------


def _cmd_presets(args) -> list[str]:
    if args.format == "records":
        return [f"preset={name}" for name in PRESET_NAMES]
    return list(PRESET_NAMES)


def _reduce(model: ManifoldModel, A: HClass, args) -> dict[str, str]:
    good_part, strips = reduce_multicovers(model, A)
    strip_text = ",".join(f"{format_class(E)}:{m}" for E, m in strips)
    return {"good": format_class(good_part), "strips": strip_text, "shown": strip_text or "none"}


def _classify(model: ManifoldModel, A: HClass, args) -> dict[str, str]:
    verdict = classify_negative(A)
    if verdict.witness is None:
        return {"kind": verdict.kind, "human": "", "records": ""}
    g, c, sq = verdict.witness
    return {
        "kind": verdict.kind,
        "human": f" (g={g}, c1={c}, square={sq})",
        "records": f"\nclassify({format_class(A)}).witness={g},{c},{sq}",
    }


def _cone(model: ManifoldModel, A: HClass, args) -> dict[str, str]:
    return {"in": _bool(in_forward_cone(A, strict=args.strict)), "strict": _bool(args.strict)}


# Per-class commands: command -> (value of one class, human format,
# records format).  A format sees the class as s, the value as v and the
# flags as a; a newline in it starts another output line.
_PER_CLASS: dict[str, tuple[Callable, str, str]] = {
    "k": (lambda m, A, a: k(A), "k({s}) = {v}", "k({s})={v}"),
    "kprime": (lambda m, A, a: k_prime(m, A), "k'({s}) = {v}", "kprime({s})={v}"),
    "genus": (
        lambda m, A, a: genus_embedded(A), "genus_embedded({s}) = {v}", "genus({s})={v}"
    ),
    "dim": (
        lambda m, A, a: moduli_dimension(A, a.genus),
        "dim({s}, g={a.genus}) = {v}",
        "dim({s};g={a.genus})={v}",
    ),
    "good": (lambda m, A, a: _bool(is_good_class(m, A)), "good({s}) = {v}", "good({s})={v}"),
    "reduce": (
        _reduce,
        "reduce({s}) = {v[good]}; strips: {v[shown]}",
        "reduce({s}).good={v[good]}\nreduce({s}).strips={v[strips]}",
    ),
    "classify-neg": (
        _classify,
        "classify_negative({s}) = {v[kind]}{v[human]}",
        "classify({s})={v[kind]}{v[records]}",
    ),
    "cone": (
        _cone,
        "in_forward_cone({s}, strict={v[strict]}) = {v[in]}",
        "cone({s};strict={v[strict]})={v[in]}",
    ),
    "gr": (
        lambda m, A, a: structure.gromov_via_decompositions(m, A, a.parsed_candidates),
        "Gr({s}) = {v}",
        "gr({s})={v}",
    ),
    "gr-s": (lambda m, A, a: spherical.gr_s(m, A), "Gr_s({s}) = {v}", "gr_s({s})={v}"),
}

# The warning a per-class command reports, as one more line after the
# class's result: command -> (category, human line, records line).  No
# Python warning reaches stderr.
_WARNING_LINES: dict[str, tuple[type[Warning], str, str]] = {
    "reduce": (
        ReductionConsistencyWarning,
        "  warning: inconsistent reduction; stored exceptional classes are not pairwise orthogonal",
        "reduce({s}).warning=inconsistent-reduction",
    ),
    "gr-s": (
        AssignmentAmbiguityWarning,
        "  warning: ambiguous point assignment among repeated components",
        "gr_s({s}).warning=ambiguous-assignment",
    ),
}


def _cmd_per_class(args) -> list[str]:
    model = _load_manifold(args.manifold)
    # gr's --candidates, parsed once and before the classes.
    args.parsed_candidates = _candidates(model, args)
    value, human, records = _PER_CLASS[args.command]
    category, warn_human, warn_records = _WARNING_LINES.get(args.command, (None, None, None))
    fmt, warning = (records, warn_records) if args.format == "records" else (human, warn_human)
    lines = []
    for A in _classes(model, args):
        s = format_class(A)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            v = value(model, A, args)
        lines.extend(fmt.format(s=s, v=v, a=args).split("\n"))
        if category and any(issubclass(w.category, category) for w in caught):
            lines.append(warning.format(s=s))
    return lines


def _cmd_lightcone(args) -> list[str]:
    model = _load_manifold(args.manifold)
    classes = _classes(model, args)
    if len(classes) != 2:
        raise UsageError("lightcone needs exactly two --class arguments")
    B1, B2 = classes
    rep = light_cone_pair_check(B1, B2)
    key = f"lightcone({format_class(B1)},{format_class(B2)})"
    if args.format == "records":
        return [f"{key}={'pass' if rep.ok else 'fail'}"] + _report_lines(rep, key, "records")[:-1]
    head = f"lightcone({format_class(B1)}, {format_class(B2)}): {'pass' if rep.ok else 'fail'}"
    return [head] + _report_lines(rep, key, "human")[:-1]


def _cmd_decomp(args) -> list[str]:
    model = _load_manifold(args.manifold)
    classes = _classes(model, args)
    if len(classes) != 1:
        raise UsageError("decomp takes exactly one --class")
    A = classes[0]
    s = format_class(A)
    candidates = _candidates(model, args)
    decs = structure.enumerate_decompositions(model, A, candidates)
    lines = []
    if args.format == "records":
        lines.append(f"decomp({s}).count={len(decs)}")
        for i, dec in enumerate(decs, start=1):
            lines.append(f"decomp({s}).{i}=" + "|".join(format_class(p) for p in dec.parts))
    else:
        lines.append(f"decompositions({s}) = {len(decs)}")
        for i, dec in enumerate(decs, start=1):
            lines.append(f"  [{i}] {{" + ", ".join(format_class(p) for p in dec.parts) + "}")
    return lines


def _candidates(model: ManifoldModel, args) -> list[HClass] | None:
    """The parsed --candidates, or None for the model's default set."""
    text = getattr(args, "candidates", None)
    if text:
        return [model.parse(tok) for tok in text.split(",") if tok.strip()]
    return None


def _cmd_gr_tori(args) -> list[str]:
    tori = _parse_tori(args.tori)
    if args.k is None:
        raise UsageError("gr-tori needs --k")
    v = torus_series.gr_torus_class(tori, args.k)
    return [f"gr_tori={v}"] if args.format == "records" else [str(v)]


def _cmd_fibersum(args) -> Iterator[str]:
    result = fibersum.gr_elliptic_fiber(args.n)  # validates before the first line is made
    if args.format == "records":
        key = f"fibersum({args.n})"
        steps = (f"{key}.trace.{i}={step}" for i, step in enumerate(result.trace, start=1))
        return chain([f"{key}={result.value}"], steps)
    steps = (f"  {step}" for step in result.trace)
    return chain([f"Gr_fiber(V({args.n})) = {result.value}"], steps)


def _cmd_verify(args) -> list[str]:
    mode = args.mode
    if mode == "kmin":
        if args.n is None:
            raise UsageError("verify --mode kmin needs --n (the elliptic parameter)")
        model = preset("elliptic", args.n)
        rep = structure.check_kmin_constraints(model, fibersum.fiber_gr_table(args.n))
        return _report_lines(rep, "verify", args.format)
    if args.manifold is None:
        raise UsageError(f"verify --mode {mode} needs --manifold")
    model = _load_manifold(args.manifold)
    if not args.cls:
        raise UsageError("verify needs at least one --class component (expr[:mult[:genus]])")
    comps = []
    for token in args.cls:
        expr, mult, genus = _parse_component(token)
        comps.append(structure.Component(model.parse(expr), mult, genus))
    cfg = structure.Configuration(tuple(comps))
    if mode == "good":
        if args.points is None:
            raise UsageError("verify --mode good needs --points")
        rep = structure.verify_good_configuration(model, cfg, args.points)
    else:
        rep = structure.verify_kprime_configuration(model, cfg, args.points)
    return _report_lines(rep, "verify", args.format)


def _add_model_class_args(p, required: bool = True) -> None:
    p.add_argument("--manifold", required=required, help="preset name or model file path")
    p.add_argument(
        "--class",
        dest="cls",
        action="append",
        metavar="EXPR",
        help="class expression over the basis symbols (repeatable)",
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="gromov4", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command", parser_class=_Parser)
    sub.required = True

    def new(name: str, handler: Callable, help_text: str, model: bool = True, required: bool = True):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--format", choices=("human", "records"), default="human")
        if model:
            _add_model_class_args(p, required=required)
        return p

    new("presets", _cmd_presets, "list available preset models", model=False)
    new("k", _cmd_per_class, "point budget k(A)")
    new("kprime", _cmd_per_class, "corrected point budget k'(A)")
    new("genus", _cmd_per_class, "adjunction genus of an embedded representative")
    p = new("dim", _cmd_per_class, "moduli dimension at a given genus")
    p.add_argument("--genus", type=integer, default=0)
    new("good", _cmd_per_class, "is the class good (no forced exceptional multi-covers)")
    new("reduce", _cmd_per_class, "strip multiply covered exceptional spheres")
    new("classify-neg", _cmd_per_class, "classify a negative-square class")
    p = new("cone", _cmd_per_class, "forward-cone membership")
    p.add_argument("--strict", action="store_true")
    new("lightcone", _cmd_lightcone, "light-cone pairing check on two classes")
    p = new("decomp", _cmd_decomp, "enumerate decompositions of a class")
    p.add_argument("--candidates", help="comma-separated candidate class expressions")
    p = new("gr", _cmd_per_class, "Gromov invariant via decompositions")
    p.add_argument("--candidates", help="comma-separated candidate class expressions")
    p = new("gr-tori", _cmd_gr_tori, "torus-list count at degree k", model=False)
    p.add_argument("--tori", required=True, help="comma-separated labels, e.g. +0,+0 or -1:2")
    p.add_argument("--k", type=integer, default=None)
    new("gr-s", _cmd_per_class, "spherical invariant Gr_s(A)")
    p = new("fibersum", _cmd_fibersum, "fiber-class count of V(n) by the ledger", model=False)
    p.add_argument("--n", type=integer, required=True)
    # verify --mode kmin builds its own preset, so --manifold is optional there.
    p = new("verify", _cmd_verify, "verify a configuration or an invariant table", required=False)
    p.add_argument("--mode", choices=("good", "kprime", "kmin"), default="good")
    p.add_argument("--points", type=integer, default=None)
    p.add_argument("--n", type=integer, default=None)
    return parser


def _error_record(code: str, message: str) -> None:
    msg = " ".join(str(message).split())
    print(f"error code={code} msg={msg}", file=sys.stderr)


def run(argv: list[str]) -> int:
    """Execute one invocation; returns the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        lines = args.handler(args)
    except ClassParseError as exc:
        _error_record("parse", str(exc))
        return 2
    except ModelFileError as exc:
        _error_record("model", str(exc))
        return 2
    except DomainError as exc:
        _error_record("domain", str(exc))
        return 1
    except ValueError as exc:
        _error_record("usage", str(exc))
        return 2
    except SystemExit as exc:  # argparse -h/--help
        return int(exc.code or 0)
    for line in lines:
        print(line)
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))

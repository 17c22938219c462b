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

from . import configurations, fibersum, invariants, lattice, model_io, spherical
from . import structure, torus_series
from .errors import (
    AssignmentAmbiguityWarning,
    ClassParseError,
    DomainError,
    ModelFileError,
    ReductionConsistencyWarning,
    UnknownPresetError,
)


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse wants to sys.exit on errors; route them through the
    # structured error path instead.
    def error(self, message):
        raise UsageError(message)


def _load_manifold(source: str) -> lattice.ManifoldModel:
    looks_like_path = os.sep in source or source.endswith(".json")
    if not looks_like_path:
        try:
            return lattice.preset(source)
        except UnknownPresetError:
            if not os.path.exists(source):
                raise
    if not os.path.exists(source):
        raise UsageError(f"manifold {source!r} is neither a preset nor a file")
    return model_io.load_model(source)


def _classes(model: lattice.ManifoldModel, args) -> list[lattice.HClass]:
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


def _parse_tori(text: str) -> tuple[tuple[str, int], ...]:
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


def _report_lines(rep: invariants.Report, prefix: str, fmt: str) -> list[str]:
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
        return [f"preset={name}" for name in lattice.PRESET_NAMES]
    return list(lattice.PRESET_NAMES)


def _reduce(model: lattice.ManifoldModel, A: lattice.HClass, args) -> dict[str, str]:
    good_part, strips = invariants.reduce_multicovers(model, A)
    strip_text = ",".join(f"{lattice.format_class(E)}:{m}" for E, m in strips)
    good = lattice.format_class(good_part)
    return {"good": good, "strips": strip_text, "shown": strip_text or "none"}


def _classify(model: lattice.ManifoldModel, A: lattice.HClass, args) -> dict[str, str]:
    verdict = invariants.classify_negative(A)
    if verdict.witness is None:
        return {"kind": verdict.kind, "human": "", "records": ""}
    g, c, sq = verdict.witness
    return {
        "kind": verdict.kind,
        "human": f" (g={g}, c1={c}, square={sq})",
        "records": f"\nclassify({lattice.format_class(A)}).witness={g},{c},{sq}",
    }


def _decomp(model: lattice.ManifoldModel, A: lattice.HClass, args) -> dict[str, str]:
    decs = structure.enumerate_decompositions(model, A, args.parsed_candidates)
    s = lattice.format_class(A)
    human, records = [], []
    for i, dec in enumerate(decs, start=1):
        parts = list(map(lattice.format_class, dec.parts))
        human.append(f"\n  [{i}] {{{', '.join(parts)}}}")
        records.append(f"\ndecomp({s}).{i}={'|'.join(parts)}")
    return {"count": str(len(decs)), "human": "".join(human), "records": "".join(records)}


def _cone(model: lattice.ManifoldModel, A: lattice.HClass, args) -> dict[str, str]:
    inside = invariants.in_forward_cone(A, strict=args.strict)
    return {"in": _bool(inside), "strict": _bool(args.strict)}


# Per-class commands: command -> (value of one class, human format,
# records format), and for a command that reports a warning as one more
# line after the class's result, (category, human line, records line).  A
# format sees the class as s, the value as v and the flags as a; a newline
# in it starts another output line.  No Python warning reaches stderr.
_PER_CLASS: dict[str, tuple] = {
    "k": (lambda m, A, a: invariants.k(A), "k({s}) = {v}", "k({s})={v}"),
    "kprime": (lambda m, A, a: invariants.k_prime(m, A), "k'({s}) = {v}", "kprime({s})={v}"),
    "genus": (
        lambda m, A, a: invariants.genus_embedded(A),
        "genus_embedded({s}) = {v}",
        "genus({s})={v}",
    ),
    "dim": (
        lambda m, A, a: invariants.moduli_dimension(A, a.genus),
        "dim({s}, g={a.genus}) = {v}",
        "dim({s};g={a.genus})={v}",
    ),
    "good": (
        lambda m, A, a: _bool(invariants.is_good_class(m, A)), "good({s}) = {v}", "good({s})={v}"
    ),
    "reduce": (
        _reduce,
        "reduce({s}) = {v[good]}; strips: {v[shown]}",
        "reduce({s}).good={v[good]}\nreduce({s}).strips={v[strips]}",
        ReductionConsistencyWarning,
        "  warning: inconsistent reduction; stored exceptional classes are not pairwise orthogonal",
        "reduce({s}).warning=inconsistent-reduction",
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
    "decomp": (
        _decomp,
        "decompositions({s}) = {v[count]}{v[human]}",
        "decomp({s}).count={v[count]}{v[records]}",
    ),
    "gr": (
        lambda m, A, a: structure.gromov_via_decompositions(m, A, a.parsed_candidates),
        "Gr({s}) = {v}",
        "gr({s})={v}",
    ),
    "gr-s": (
        lambda m, A, a: spherical.gr_s(m, A),
        "Gr_s({s}) = {v}",
        "gr_s({s})={v}",
        AssignmentAmbiguityWarning,
        "  warning: ambiguous point assignment among repeated components",
        "gr_s({s}).warning=ambiguous-assignment",
    ),
}


def _cmd_per_class(args) -> list[str]:
    model = _load_manifold(args.manifold)
    # The --candidates of decomp and gr, parsed once and before the classes.
    args.parsed_candidates = _candidates(model, args)
    value, human, records, *warning = _PER_CLASS[args.command]
    category, warn_human, warn_records = warning or (None, None, None)
    fmt, warn = (records, warn_records) if args.format == "records" else (human, warn_human)
    lines = []
    for A in _classes(model, args):
        s = lattice.format_class(A)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            v = value(model, A, args)
        lines.extend(fmt.format(s=s, v=v, a=args).split("\n"))
        if category and any(issubclass(w.category, category) for w in caught):
            lines.append(warn.format(s=s))
    return lines


def _cmd_lightcone(args) -> list[str]:
    model = _load_manifold(args.manifold)
    classes = _classes(model, args)
    if len(classes) != 2:
        raise UsageError("lightcone needs exactly two --class arguments")
    rep = invariants.light_cone_pair_check(*classes)
    s1, s2 = map(lattice.format_class, classes)
    key = f"lightcone({s1},{s2})"
    verdict = "pass" if rep.ok else "fail"
    head = f"{key}={verdict}" if args.format == "records" else f"lightcone({s1}, {s2}): {verdict}"
    return [head] + _report_lines(rep, key, args.format)[:-1]


def _candidates(model: lattice.ManifoldModel, args) -> list[lattice.HClass] | None:
    """The parsed --candidates, or None for the model's default set."""
    text = getattr(args, "candidates", None)
    if text is None:
        return None
    tokens = [tok for tok in text.split(",") if tok.strip()]
    if not tokens:
        raise UsageError("--candidates needs at least one class")
    return [model.parse(tok) for tok in tokens]


def _cmd_gr_tori(args) -> list[str]:
    tori = _parse_tori(args.tori)
    if args.k is None:
        raise UsageError("gr-tori needs --k")
    v = torus_series.gr_torus_class(tori, args.k)
    return [f"gr_tori={v}"] if args.format == "records" else [str(v)]


def _cmd_fibersum(args) -> list[str]:
    result = fibersum.gr_elliptic_fiber(args.n)
    if args.format == "records":
        key = f"fibersum({args.n})"
        return [f"{key}={result.value}"] + [
            f"{key}.trace.{i}={step}" for i, step in enumerate(result.trace, start=1)
        ]
    return [f"Gr_fiber(V({args.n})) = {result.value}"] + [f"  {step}" for step in result.trace]


def _cmd_verify(args) -> list[str]:
    mode = args.mode
    if mode == "kmin":
        if args.n is None:
            raise UsageError("verify --mode kmin needs --n (the elliptic parameter)")
        model = lattice.preset("elliptic", args.n)
        rep = configurations.check_kmin_constraints(model, fibersum.fiber_gr_table(args.n))
        return _report_lines(rep, "verify", args.format)
    if args.manifold is None:
        raise UsageError(f"verify --mode {mode} needs --manifold")
    model = _load_manifold(args.manifold)
    if not args.cls:
        raise UsageError("verify needs at least one --class component (expr[:mult[:genus]])")
    comps = []
    for token in args.cls:
        expr, mult, genus = _parse_component(token)
        comps.append(configurations.Component(model.parse(expr), mult, genus))
    cfg = configurations.Configuration(tuple(comps))
    if mode == "good":
        if args.points is None:
            raise UsageError("verify --mode good needs --points")
        rep = configurations.verify_good_configuration(model, cfg, args.points)
    else:
        rep = configurations.verify_kprime_configuration(model, cfg, args.points)
    return _report_lines(rep, "verify", args.format)


_CANDIDATES = ("--candidates", {"help": "comma-separated candidate class expressions"})

# The commands in help order: name -> (handler, help, --manifold, extra
# arguments).  --manifold is True where it is required, False where it is
# optional and None where the command reads no model; each extra is a flag
# with its add_argument keywords.
_COMMANDS: dict[str, tuple] = {
    "presets": (_cmd_presets, "list available preset models", None),
    "k": (_cmd_per_class, "point budget k(A)", True),
    "kprime": (_cmd_per_class, "corrected point budget k'(A)", True),
    "genus": (_cmd_per_class, "adjunction genus of an embedded representative", True),
    "dim": (
        _cmd_per_class, "moduli dimension at a given genus", True,
        ("--genus", {"type": integer, "default": 0}),
    ),
    "good": (_cmd_per_class, "is the class good (no forced exceptional multi-covers)", True),
    "reduce": (_cmd_per_class, "strip multiply covered exceptional spheres", True),
    "classify-neg": (_cmd_per_class, "classify a negative-square class", True),
    "cone": (
        _cmd_per_class, "forward-cone membership", True, ("--strict", {"action": "store_true"})
    ),
    "lightcone": (_cmd_lightcone, "light-cone pairing check on two classes", True),
    "decomp": (_cmd_per_class, "enumerate decompositions of a class", True, _CANDIDATES),
    "gr": (_cmd_per_class, "Gromov invariant via decompositions", True, _CANDIDATES),
    "gr-tori": (
        _cmd_gr_tori, "torus-list count at degree k", None,
        ("--tori", {"required": True, "help": "comma-separated labels, e.g. +0,+0 or -1:2"}),
        ("--k", {"type": integer, "default": None}),
    ),
    "gr-s": (_cmd_per_class, "spherical invariant Gr_s(A)", True),
    "fibersum": (
        _cmd_fibersum, "fiber-class count of V(n) by the ledger", None,
        ("--n", {"type": integer, "required": True}),
    ),
    # verify --mode kmin builds its own preset, so --manifold is optional there.
    "verify": (
        _cmd_verify, "verify a configuration or an invariant table", False,
        ("--mode", {"choices": ("good", "kprime", "kmin"), "default": "good"}),
        ("--points", {"type": integer, "default": None}),
        ("--n", {"type": integer, "default": None}),
    ),
}


def build_parser(command: str | None = None) -> _Parser:
    """The parser of every command, or of command alone where it names one:
    a sub-parser's usage, help and errors read the same either way."""
    parser = _Parser(prog="gromov4", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command", parser_class=_Parser)
    sub.required = True
    for name in [command] if command in _COMMANDS else _COMMANDS:
        handler, help_text, manifold, *extras = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--format", choices=("human", "records"), default="human")
        if manifold is not None:
            p.add_argument("--manifold", required=manifold, help="preset name or model file path")
            p.add_argument(
                "--class",
                dest="cls",
                action="append",
                metavar="EXPR",
                help="class expression over the basis symbols (repeatable)",
            )
        for flag, keywords in extras:
            p.add_argument(flag, **keywords)
    return parser


def _error_record(code: str, message: str) -> None:
    msg = " ".join(str(message).split())
    print(f"error code={code} msg={msg}", file=sys.stderr)


# Flags whose value may start with "-" (a class -3L, a torus -1:2), which
# argparse would read as an option: run joins such a flag and its value as
# flag=value first.  "--..." and "-h" are never taken as a value.
_DASH_VALUE_FLAGS = ("--class", "--candidates", "--tori")


def _join_dash_values(argv: list[str]) -> list[str]:
    joined = []
    for arg in argv:
        single_dash = arg.startswith("-") and not arg.startswith("--") and arg != "-h"
        if single_dash and joined and joined[-1] in _DASH_VALUE_FLAGS:
            joined[-1] += f"={arg}"
        else:
            joined.append(arg)
    return joined


def run(argv: list[str]) -> int:
    """Execute one invocation; returns the exit code."""
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(_join_dash_values(argv))
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

"""Benchmark of gromov4, every answer checked against an independent one.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: the package is imported from
src/ and the CLI is started as `python3 -m gromov4` with src/ on the path.
Workloads (one process, one closed-loop client, no threads):

    invariant-sweep  scalar invariants of seeded classes on every preset
    count-search     decomposition and sphere searches, torus series
    cli-scripted     a seeded script of CLI calls, one fresh process each

A run repeats whole rounds of the workload's operations until S seconds
have passed, and prints one JSON object as its last line of output:
correct, attempted, failed, and the metrics BENCHMARK.json declares:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
Result and trace files go to bench/_work/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import select
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
SETUP_SAMPLES = 7
CALL_TIMEOUT_S = 150

sys.path.insert(0, str(BENCH))
import inputs  # noqa: E402
import refs  # noqa: E402
import spans  # noqa: E402


# --- child processes ---------------------------------------------------------------


def spawn(argv, tag):
    """Run one child to its end, in the checkout root, with src/ on its path.

    Returns (wall seconds, exit code, peak RSS in KiB, stdout, stderr)."""
    out_path, err_path = WORK / f"_{tag}-{os.getpid()}.out", WORK / f"_{tag}-{os.getpid()}.err"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, cwd=ROOT, env=env)
        fd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([fd], [], [], CALL_TIMEOUT_S)
        finally:
            os.close(fd)
        if not ready:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    if not ready:
        raise TimeoutError(f"{argv} ran longer than {CALL_TIMEOUT_S} s")
    text = lambda p: p.read_text(encoding="utf-8", errors="replace")  # noqa: E731
    return wall, proc.returncode, usage.ru_maxrss, text(out_path), text(err_path)


def setup_sample(specs):
    """Import gromov4 and build every model the workload queries, once, in a
    fresh process; returns the seconds that took."""
    argv = [sys.executable, str(BENCH / "child.py"), "setup", json.dumps(specs)]
    _, code, _, out, err = spawn(argv, "setup")
    if code != 0:
        raise RuntimeError(f"set-up child failed: {err.strip()}")
    rec = json.loads(out)
    return rec["import_s"] + rec["build_s"]


# --- operations -----------------------------------------------------------------------


# Timing on a shared machine drifts: the same work runs up to about 1.6
# times slower for seconds or minutes at a time.  Each operation is timed
# next to a fixed reference that runs no gromov4 code, and scaled by the
# reference's nominal time over the median of its recent timings: the
# metrics read as seconds at a fixed nominal speed.  In-process operations
# use a pure-Python kernel (integer tuples, dict inserts, Fraction sums);
# child processes use a child that imports the stdlib modules the CLI
# imports, since a child's start-up and imports drift apart from the
# benchmark process.  Raw times go to the result file.


def kernel_s():
    t0 = perf_counter()
    d = {}
    acc = 0
    for i in range(1000):
        t = (i, 3 * i, i ^ 5, -i)
        d[t] = sum(x * y for x, y in zip(t, (1, -2, 3, 5)))
        acc += d[t] % 7
    f = Fraction(0)
    for i in range(1, 80):
        f += Fraction(1, i)
    return perf_counter() - t0


def probe_s():
    wall, code, _, _, err = spawn([sys.executable, "-c", "import argparse, dataclasses, fractions, json, re"], "probe")
    if code != 0:
        raise RuntimeError(f"probe child failed: {err.strip()}")
    return wall


class Clock:
    def __init__(self, reference, nominal_s, every_s):
        self.reference, self.nominal_s, self.every_s = reference, nominal_s, every_s
        self.samples = []  # every timing of the reference in the run
        self.scale = 1.0
        self._recent = []  # (time, sample) of the last five periods
        self._last = float("-inf")

    def tick(self):
        """The scale for the next operation, re-calibrated when stale from
        the samples of the last five periods."""
        now = perf_counter()
        if now - self._last >= self.every_s:
            self.samples.append(self.reference())
            self._recent = [(t, x) for t, x in self._recent if now - t < 5 * self.every_s]
            self._recent.append((now, self.samples[-1]))
            self.scale = self.nominal_s / statistics.median(x for _, x in self._recent)
            self._last = perf_counter()
        return self.scale


def clocks():
    return {"cpu": Clock(kernel_s, 0.0015, 0.1), "proc": Clock(probe_s, 0.07, 0.5)}


def timed(clock, fn, *args):
    """(result or raised error, raw seconds, scaled seconds) of one operation.
    An operation longer than the clock's period is scaled by the mean of the
    scales before and after it."""
    before = clock.tick()
    t0 = perf_counter()
    try:
        out = fn(*args)
    except Exception as exc:  # a raised error is a wrong answer, counted as failed
        out = exc
    raw = perf_counter() - t0
    return out, raw, raw * (before + clock.tick()) / 2


def scaled_child(clock, fn, *args):
    """timed() for the benchmark's own child processes: errors are raised."""
    out, raw, scaled = timed(clock, fn, *args)
    if isinstance(out, Exception):
        raise out
    return out, raw, scaled


def sweep_query(G, m, a, b, negative):
    lat = m.lattice
    A = lat.class_from_coords(a)
    out = (
        G.k(A),
        G.k_prime(m, A),
        G.genus_embedded(A),
        (G.moduli_dimension(A, 0), G.moduli_dimension(A, 1), G.moduli_dimension(A, 2)),
        G.is_good_class(m, A),
        G.in_forward_cone(A),
        G.in_forward_cone(A, strict=True),
        G.classify_negative(A) if negative else None,
        G.reduce_multicovers(m, A) if not m.minimal else None,
        G.light_cone_pair_check(A, lat.class_from_coords(b)) if b is not None else None,
    )
    s = G.format_class(A)
    return out + (s, G.parse_class(lat, s))


def sweep_ok(got, a, want):
    if isinstance(got, Exception):
        return False
    *vals, verdict, red, rep, s, parsed = got
    view = tuple(vals) + (
        (verdict.kind, verdict.witness) if verdict is not None else None,
        (red.good_part.coords, tuple((E.coords, n) for E, n in red.strips)) if red is not None else None,
        (rep.ok, tuple((c.cond, c.passed) for c in rep.checks)) if rep is not None else None,
        s,
    )
    return view == want and parsed.coords == a


def search_query(G, m, kind, a, cands):
    lat = m.lattice
    A = lat.class_from_coords(a)
    if kind == "decomp":
        return G.enumerate_decompositions(m, A, [lat.class_from_coords(c) for c in cands])
    if kind == "gr":
        try:
            return G.gromov_via_decompositions(m, A, [lat.class_from_coords(c) for c in cands])
        except G.UnknownGr0Error as exc:  # the structured answer for missing data
            return exc
    if kind == "spheres":
        return G.enumerate_sphere_configs(m, A)
    return G.gr_s(m, A)


def search_view(G, kind, got):
    if kind == "gr" and isinstance(got, G.UnknownGr0Error):
        return ("missing", tuple(c.coords for c in got.classes))
    if isinstance(got, Exception):
        return got
    if kind == "decomp":
        return [tuple(p.coords for p in d.parts) for d in got]
    if kind == "spheres":
        return [(tuple(b.coords for b in c.parts), c.k, c.p) for c in got]
    return got


def cli_ok(call, code, out, err):
    if code != call.code:
        return False
    if call.stderr_prefix:
        return out == "" and err.startswith(call.stderr_prefix)
    good = call.expect(out) if callable(call.expect) else out == call.expect
    return good and err == ""


# --- rounds ---------------------------------------------------------------------------


class Round:
    def __init__(self):
        self.raw = {}  # segment -> raw seconds
        self.scaled = {}  # segment -> scaled seconds
        self.call_s = []  # scaled seconds of each CLI call, in script order
        self.rss_kib = 0
        self.attempted = 0
        self.failed = []  # (key, known fault?)
        self.children = []  # traced CLI records

    def add(self, segment, results):
        """Record a segment's timings; returns its outputs."""
        self.raw[segment] = sum(r[1] for r in results)
        self.scaled[segment] = sum(r[2] for r in results)
        return [r[0] for r in results]

    @property
    def wall(self):
        """Scaled seconds of the whole round."""
        return sum(self.scaled.values()) + sum(self.call_s)


def run_round(ctx, round_no, tracer=None):
    wl, G, models = ctx["wl"], ctx["G"], ctx["models"]
    clock, proc = ctx["clocks"]["cpu"], ctx["clocks"]["proc"]
    series = inputs.series_ops(ctx["seed"], round_no, wl.series_lists, wl.series_long)
    r = Round()
    in_process = tracer is not None and G is not None
    # CLI calls first: the child processes leave the caches cold, and the
    # workload's main in-process segment, which comes next, is long enough
    # to warm them before the short companion segments run.
    for i, call in enumerate(wl.cli):
        record_path = WORK / f"_call-{os.getpid()}.json"
        if tracer is not None:
            record_path.unlink(missing_ok=True)
            argv = [sys.executable, str(BENCH / "child.py"), "cli", str(record_path)] + call.argv
        else:
            argv = [sys.executable, "-m", "gromov4"] + call.argv
        (wall, code, rss, out, err), _, scaled = scaled_child(proc, spawn, argv, "call")
        r.raw["cli"] = r.raw.get("cli", 0.0) + wall
        r.call_s.append(scaled)
        r.rss_kib = max(r.rss_kib, rss)
        traced_ok = tracer is None or record_path.is_file()
        if not (traced_ok and cli_ok(call, code, out, err)):
            r.failed.append((("cli", i, " ".join(call.argv)), False))
        if tracer is not None and traced_ok:
            rec = json.loads(record_path.read_text(encoding="utf-8"))
            rec["wall_s"] = wall
            r.children.append(rec)

    if in_process:
        tracer.install()
        for name in wl.models:  # the set-up builds, traced once
            G.preset(name)
    segments = {
        "sweep": lambda: [
            timed(clock, sweep_query, G, models[q[0]], q[1], q[2], q[3][7] is not None) for q in wl.sweep
        ],
        "search": lambda: [timed(clock, search_query, G, models[op[1]], op[0], op[2], op[3]) for op in wl.search],
        "series": lambda: [timed(clock, G.gr_torus_class, tori, kk) for tori, ks, _ in series for kk in ks],
    }
    outputs = {}
    for name in sorted(segments, key=lambda name: name != wl.main):
        outputs[name] = r.add(name, segments[name]())
    if in_process:
        tracer.uninstall()
    sweep_out, search_out, flat = outputs["sweep"], outputs["search"], outputs["series"]
    series_out, i = [], 0
    for _, ks, _ in series:
        series_out.append(flat[i:i + len(ks)])
        i += len(ks)

    for q, got in zip(wl.sweep, sweep_out):
        if not sweep_ok(got, q[1], q[3]):
            r.failed.append((("sweep", q[0], q[1]), False))
    for op, got in zip(wl.search, search_out):
        if search_view(G, op[0], got) != op[4]:
            key = (op[0], op[1], op[2])
            r.failed.append((key, key in inputs.KNOWN_FAULTS))
    for (tori, ks, want), got in zip(series, series_out):
        for kk, value in zip(ks, got):
            if value != want[kk]:
                r.failed.append((("series", tuple(tori), kk), False))
    r.attempted = len(wl.sweep) + len(wl.search) + sum(len(ks) for _, ks, _ in series) + len(wl.cli)
    return r


# --- set-up checks ----------------------------------------------------------------------


def model_matches(G, m, M):
    """The built model against the conventions refs.py writes down, and the
    basic invariants of each basis class recomputed from them."""
    lat = m.lattice
    tori = {A.coords: [(str(label), cover) for label, cover in v] for A, v in m.torus_table.items()}
    same = (
        lat.basis == M.basis and lat.gram == M.gram and lat.canonical == M.K and lat.area == M.area
        and [E.coords for E in m.exceptional] == list(M.exceptional) and m.minimal == M.minimal
        and G.b2_plus(lat) == M.b2plus
        and {A.coords: v for A, v in m.gr0_table.items()} == M.gr0
        and {A.coords: v for A, v in m.sphere_table.items()} == M.spheres
        and tori == {A: list(v) for A, v in M.tori.items()}
    )
    for i in range(lat.rank):
        A, a = lat.basis_class(i), refs._unit(lat.rank, i)
        for j in range(lat.rank):
            same = same and G.pair(A, lat.basis_class(j)) == refs.pair(M, a, refs._unit(lat.rank, j))
        same = same and (G.c1(A), G.k(A), G.genus_embedded(A), G.omega_area(A)) == (
            refs.c1(M, a), refs.k(M, a), refs.genus(M, a), refs.area(M, a))
    return same


# --- metrics ----------------------------------------------------------------------------


def end_to_end(wl, rounds, setup_s, rss_kib):
    """Medians over rounds of scaled seconds."""
    med = statistics.median
    if wl.name == "cli-scripted":
        def wall_of(r, category):
            return sum(w for w, call in zip(r.call_s, wl.cli) if call.category == category)

        queries = sum(call.classes for call in wl.cli if call.category == "class")
        sweep = med(queries / wall_of(r, "class") for r in rounds)
        search = med(wall_of(r, "search") for r in rounds)
        series = med(wall_of(r, "series") for r in rounds)
    else:
        sweep = med(len(wl.sweep) / r.scaled["sweep"] for r in rounds)
        search = med(r.scaled["search"] for r in rounds)
        series = med(r.scaled["series"] for r in rounds)
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (rss_kib / 1024, "MiB"),
        "sweep_queries_per_s": (sweep, "queries/s"),
        "search_wall_s": (search, "s"),
        "series_wall_s": (series, "s"),
        "cli_wall_s": (med(sum(r.call_s) for r in rounds), "s"),
        "cli_call_ms_p50": (med(w for r in rounds for w in r.call_s) * 1000, "ms"),
    }


def per_layer(tracer, traced, untraced, trace_path):
    children = traced.children
    total = spans.merge([tracer.totals()] + [c["totals"] for c in children])
    out = spans.layer_metrics(total)
    imp = sum(c["import_s"] for c in children)
    run = sum(c["run_s"] for c in children)
    rest = sum(c["wall_s"] - c["import_s"] - c["install_s"] - c["run_s"] for c in children)
    out.update({
        "cli.import_s": (imp, "s"),
        "cli.run_s": (run, "s"),
        "cli.process_s": (rest, "s"),
        "trace.overhead_s": (traced.wall - untraced.wall, "s"),
    })
    with open(trace_path, "w", encoding="utf-8") as f:
        for span in tracer.spans:
            f.write(json.dumps(["bench", *span]) + "\n")
        for i, c in enumerate(children):
            for span in c["spans"]:
                f.write(json.dumps([f"call{i}", *span]) + "\n")
    return out


# --- main -------------------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "gromov4" / "__init__.py").is_file():
        print(f"no gromov4 package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    WORK.mkdir(parents=True, exist_ok=True)

    wl = inputs.build(args.workload, args.seed, WORK / f"models-{args.seed}", ROOT)
    specs = list(wl.models) + [f"file:{f}" for f in wl.files]
    ctx = {"wl": wl, "seed": args.seed, "G": None, "models": {}, "clocks": clocks()}
    proc = ctx["clocks"]["proc"]
    setup = [scaled_child(proc, setup_sample, specs)[2]]
    setup_ok = True
    if wl.sweep or wl.search:
        sys.path.insert(0, str(SRC))
        import gromov4 as G

        ctx["G"] = G
        ctx["models"] = {name: G.preset(name) for name in wl.models}
        setup_ok = all(model_matches(G, m, refs.preset_ref(name)) for name, m in ctx["models"].items())
    # The inputs and expected answers stay alive all run; keep them out of
    # the program's garbage collections.
    gc.collect()
    gc.freeze()

    rounds = []
    if args.trace:
        tracer = spans.Tracer()
        rounds = [run_round(ctx, 0), run_round(ctx, 1), run_round(ctx, 2, tracer)]
        trace_path = WORK / f"trace-{args.workload}-{args.seed}.jsonl"
        values = per_layer(tracer, rounds[2], rounds[1], trace_path)
        names = [m["name"] for m in declared["per_layer"]]
    else:
        t_start = perf_counter()
        while not rounds or perf_counter() - t_start < args.seconds:
            rounds.append(run_round(ctx, len(rounds)))
            if len(setup) < SETUP_SAMPLES:  # spread set-up samples over the run
                setup.append(scaled_child(proc, setup_sample, specs)[2])
        while len(setup) < SETUP_SAMPLES:
            setup.append(scaled_child(proc, setup_sample, specs)[2])
        rss = max(r.rss_kib for r in rounds)
        if ctx["G"] is not None:
            rss = max(rss, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        values = end_to_end(wl, rounds, statistics.median(setup), rss)
        names = [m["name"] for m in declared["end_to_end"]]

    failures = [f for r in rounds for f in r.failed]
    for key in sorted({repr(key) for key, known in failures if not known}):
        print(f"wrong answer: {key}", file=sys.stderr)
    result = {
        "correct": setup_ok and all(known for _, known in failures),
        "attempted": sum(r.attempted for r in rounds),
        "failed": len(failures),
        "metrics": {name: {"value": values[name][0], "unit": values[name][1]} for name in names},
    }
    line = json.dumps(result)
    raw = {seg: statistics.median(r.raw.get(seg, 0.0) for r in rounds) for seg in ("sweep", "search", "series", "cli")}
    refs_s = {name: c.samples for name, c in ctx["clocks"].items()}
    per_round = [dict(r.scaled, cli=sum(r.call_s), calls=r.call_s) for r in rounds]
    detail = dict(result, rounds=len(rounds), raw_median_s=raw, scaled_per_round_s=per_round, reference_s=refs_s)
    (WORK / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail) + "\n", encoding="utf-8")
    print(line)
    return 0


if __name__ == "__main__":
    try:
        code = main()
    finally:  # the per-process scratch files of the child processes
        for path in WORK.glob(f"_*-{os.getpid()}.*"):
            path.unlink()
    sys.exit(code)

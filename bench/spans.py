"""Run-time tracing of gromov4's public functions, without editing them.

Tracer.install() replaces each traced function by a wrapper wherever the
package's modules bind it (gromov4.lattice.pair, gromov4.structure.pair,
gromov4.pair, ...), so calls between layers are counted as well as calls
from the benchmark.  A wrapper times its call, charges the time to its
caller as child time, and adds a span (id, parent id, name, start, end).
Self time is a call's duration minus its children's.  Hot leaf functions
(pair, area, hashing, construction, series products) are only counted and
timed: a span each would hold millions of records.  uninstall() puts the
original functions back.
"""

from __future__ import annotations

import itertools
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute or Class.method, metric name, record spans)
TRACED = (
    ("lattice", "pair", "lattice.pair", False),
    ("lattice", "omega_area", "lattice.omega_area", False),
    ("lattice", "b2_plus", "lattice.b2_plus", True),
    ("lattice", "HClass.__hash__", "lattice.hclass_hash", False),
    ("lattice", "HClass.__post_init__", "lattice.hclass_new", False),
    ("lattice", "parse_class", "lattice.parse_class", True),
    ("lattice", "format_class", "lattice.format_class", True),
    ("lattice", "preset", "lattice.preset", True),
    ("invariants", "k", "invariants.k", True),
    ("invariants", "k_prime", "invariants.k_prime", True),
    ("invariants", "genus_embedded", "invariants.genus_embedded", True),
    ("invariants", "classify_negative", "invariants.classify_negative", True),
    ("invariants", "in_forward_cone", "invariants.in_forward_cone", True),
    ("invariants", "light_cone_pair_check", "invariants.light_cone_pair_check", True),
    ("invariants", "reduce_multicovers", "invariants.reduce_multicovers", True),
    ("structure", "enumerate_decompositions", "structure.enumerate_decompositions", True),
    ("structure", "gromov_via_decompositions", "structure.gromov_via_decompositions", True),
    ("spherical", "enumerate_sphere_configs", "spherical.enumerate_sphere_configs", True),
    ("spherical", "gr_s", "spherical.gr_s", True),
    ("torus_series", "gr_torus_class", "torus_series.gr_torus_class", True),
    ("torus_series", "TruncSeries.__mul__", "torus_series.series_mul", False),
    ("torus_series", "TruncSeries.inverse", "torus_series.series_inverse", False),
    ("fibersum", "gr_elliptic_fiber", "fibersum.gr_elliptic_fiber", True),
    ("fibersum", "glue", "fibersum.glue", False),
    ("fibersum", "fiber_gr_table", "fibersum.fiber_gr_table", True),
    ("model_io", "load_model", "model_io.load_model", True),
)

# Searches whose results are counted, with the HClass constructions made
# while they run, to give results per constructed class.
SEARCHES = {
    "structure.enumerate_decompositions": "structure",
    "spherical.enumerate_sphere_configs": "spherical",
}


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.found = Counter()
        self.hclass_in = Counter()
        self.spans = []
        self._stack = []  # frames: [child seconds, span id]
        self._ids = itertools.count(1)
        self._searching = Counter()
        self._patched = []

    def _wrap(self, fn, name, record):
        calls, self_s, stack, spans, ids = self.calls, self.self_s, self._stack, self.spans, self._ids
        layer = SEARCHES.get(name)
        tracer = self

        def traced(*args, **kwargs):
            frame = [0.0, next(ids) if record else 0]
            parent = stack[-1][1] if stack else 0
            stack.append(frame)
            if layer:
                tracer._searching[layer] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                elapsed = t1 - t0
                calls[name] += 1
                self_s[name] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if record:
                    spans.append((frame[1], parent, name, t0, t1))
                if layer:
                    tracer._searching[layer] -= 1
            if layer:
                tracer.found[layer] += len(result)
            return result

        def counted_new(obj):
            calls[name] += 1
            for active, depth in tracer._searching.items():
                if depth:
                    tracer.hclass_in[active] += 1
            return fn(obj)

        return counted_new if name == "lattice.hclass_new" else traced

    def install(self, package="gromov4"):
        modules = [m for key, m in sys.modules.items() if key == package or key.startswith(package + ".")]
        for mod_name, attr, name, record in TRACED:
            owner = sys.modules[f"{package}.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._patched.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(orig, name, record))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(orig, name, record)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patched.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, key, orig in reversed(self._patched):
            setattr(owner, key, orig)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def totals(self) -> dict:
        """Aggregates that can be summed across tracers (one per process)."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "found": dict(self.found),
            "hclass_in": dict(self.hclass_in),
            "spans": len(self.spans),
        }


def merge(totals: list) -> dict:
    out = {"calls": Counter(), "self_s": defaultdict(float), "found": Counter(), "hclass_in": Counter(), "spans": 0}
    for t in totals:
        for key in ("calls", "self_s", "found", "hclass_in"):
            for name, value in t[key].items():
                out[key][name] += value
        out["spans"] += t["spans"]
    return out


def layer_metrics(total: dict) -> dict:
    """Per-layer metric values from merged totals: name -> (value, unit)."""
    calls, self_s = total["calls"], total["self_s"]
    out = {}
    for _, _, name, _ in TRACED:
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
        out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    for layer, what in (("structure", "decompositions_found"), ("spherical", "configs_found")):
        found = total["found"].get(layer, 0)
        made = total["hclass_in"].get(layer, 0)
        out[f"{layer}.{what}"] = (found, "count")
        out[f"{layer}.found_per_hclass"] = (found / made if made else 0.0, "1/HClass")
    return out

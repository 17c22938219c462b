"""Tests of the benchmark's references and of its failure accounting.

    python3 -m unittest discover -s bench -p "test_*.py"

The references are checked against hand values, and a deliberately wrong
program answer must come out as a failed operation.
"""

import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import gromov4  # noqa: E402
import inputs  # noqa: E402
import refs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


class References(unittest.TestCase):
    def test_kontsevich_manin_hand_values(self):
        self.assertEqual([refs.km(d) for d in range(1, 7)], [1, 1, 12, 620, 87304, 26312976])

    def test_long_division(self):
        self.assertEqual(refs.divide(*refs.RATIONAL["+0"], 5), [1] * 6)
        self.assertEqual(refs.divide(*refs.RATIONAL["-0"], 4), [1, -1, 0, 0, 0])
        self.assertEqual(refs.torus_counts([("+0", 1)] * 2, 6), [1, 2, 3, 4, 5, 6, 7])
        self.assertEqual(refs.torus_counts([("+0", 2)], 5), [1, 0, 1, 0, 1, 0])
        self.assertEqual(refs.torus_counts([("+0", 1)] * 3 + [("-0", 1)], 2)[2], 3)
        for label in ("+0", "+1", "+2", "+3"):
            born = [("+1", 2), (label, 3), ("-" + label[1], 3)]
            self.assertEqual(refs.torus_counts(born, 12), refs.torus_counts([("+1", 2)], 12))

    def test_lattice_hand_values(self):
        cp2, b1, ss = refs.preset_ref("cp2"), refs.preset_ref("cp2_blowup(1)"), refs.preset_ref("s2xs2")
        self.assertEqual((refs.k(cp2, (3,)), refs.genus(cp2, (3,)), refs.c1(cp2, (1,))), (9, 1, 3))
        self.assertEqual((refs.k(b1, (1, 2)), refs.k_prime(b1, (1, 2))), (1, 2))
        self.assertEqual(refs.reduce(b1, (1, 2)), ((1, 0), (((0, 1), 2),)))
        self.assertEqual(refs.k(ss, (1, 1)), 3)
        self.assertEqual(refs.area(b1, (1, -1)), 2)
        self.assertEqual(refs.fmt(b1, (-1, 2)), "-L+2E1")
        self.assertEqual(refs.parse(b1, "-L+2E1"), (-1, 2))

    def test_properties(self):
        b2 = refs.preset_ref("cp2_blowup(2)")
        for a in [(0, 1, 0), (1, -1, -1), (0, 2, 0), (1, 1, 1), (0, 1, -1)]:
            kind, _ = refs.classify(b2, a)
            want = (refs.c1(b2, a), refs.pair(b2, a, a)) == (1, -1)
            self.assertEqual(kind == "ExceptionalSphere", want)
        a = (1, 3, 2)  # m_E = 3 and 2: k' - k = 3 + 1
        self.assertEqual(refs.k_prime(b2, a) - refs.k(b2, a), 4)

    def test_search_oracles(self):
        ss, ruled = refs.preset_ref("s2xs2"), refs.preset_ref("s2xt2")
        self.assertEqual(refs.decompositions(ss, (1, 1), [(1, 0), (0, 1), (1, 1)]), [((1, 1),)])
        self.assertEqual(refs.gromov(ruled, (0, 3), [(0, 1)]), 4)
        self.assertEqual(refs.decompositions(ruled, (1, 16), [(1, 0), (0, 1), (0, 2), (1, 1)]), [])
        cp2, b1 = refs.preset_ref("cp2"), refs.preset_ref("cp2_blowup(1)")
        self.assertEqual([refs.gr_s(cp2, (d,)) for d in range(1, 6)], [1, 1, 12, 620, 87304])
        self.assertEqual(refs.sphere_configs(b1, (1, 2), b1.spheres), [(((0, 1), (0, 1), (1, 0)), 2, 3)])
        self.assertEqual(refs.gr_s(b1, (3, 1)), 12)


def small_context(name):
    wl = inputs.build(name, 5, run.WORK / "test-models", run.ROOT)
    wl.cli = []
    models = {n: gromov4.preset(n) for n in wl.models}
    return {"wl": wl, "seed": 5, "G": gromov4, "models": models, "clocks": run.clocks()}


class FailureAccounting(unittest.TestCase):
    def test_sound_round_has_only_the_known_faults(self):
        ctx = small_context("count-search")
        ctx["wl"].search = [op for op in ctx["wl"].search if op[1] != "cp2_blowup(3)"]
        r = run.run_round(ctx, 0)
        self.assertEqual(sorted(key for key, _ in r.failed), sorted(inputs.KNOWN_FAULTS))
        self.assertTrue(all(known for _, known in r.failed))

    def test_wrong_answer_is_a_failed_operation(self):
        ctx = small_context("invariant-sweep")
        ctx["wl"].sweep = ctx["wl"].sweep[:30]
        original = gromov4.k
        gromov4.k = lambda A: original(A) + 1
        try:
            r = run.run_round(ctx, 0)
        finally:
            gromov4.k = original
        self.assertEqual(len([key for key, known in r.failed if key[0] == "sweep" and not known]), 30)

    def test_wrong_series_coefficient_is_failed(self):
        ctx = small_context("invariant-sweep")
        ctx["wl"].sweep, ctx["wl"].search = [], []
        original = gromov4.gr_torus_class
        gromov4.gr_torus_class = lambda tori, k: original(tori, k) + (k == 7)
        try:
            r = run.run_round(ctx, 0)
        finally:
            gromov4.gr_torus_class = original
        ops = inputs.series_ops(5, 0, ctx["wl"].series_lists, ctx["wl"].series_long)
        self.assertEqual(len(r.failed), sum(7 in ks for _, ks, _ in ops))

    def test_cli_checks(self):
        call = inputs.fibersum_call(3)
        good = "fibersum(3)=-1\n" + "".join(f"fibersum(3).trace.{i}=x\n" for i in range(1, 8))
        self.assertTrue(run.cli_ok(call, 0, good, ""))
        self.assertFalse(run.cli_ok(call, 0, good.replace("=-1", "=0", 1), ""))
        self.assertFalse(run.cli_ok(call, 0, good, "a warning\n"))
        k_call = inputs.per_class_call("cp2", refs.preset_ref("cp2"), "k", [(3,)])
        self.assertTrue(run.cli_ok(k_call, 0, "k(3L)=9\n", ""))
        self.assertFalse(run.cli_ok(k_call, 0, "k(3L)=8\n", ""))


class Tracing(unittest.TestCase):
    def test_counts_reach_calls_between_layers(self):
        m = gromov4.preset("cp2_blowup(2)")
        A = m.parse("3L-E1")
        original = gromov4.invariants.k
        with spans.Tracer() as tracer:
            gromov4.k_prime(m, A)
        self.assertIs(gromov4.invariants.k, original)
        self.assertEqual(tracer.calls["invariants.k_prime"], 1)
        self.assertEqual(tracer.calls["invariants.k"], 1)  # k_prime -> k inside the package
        self.assertGreaterEqual(tracer.calls["lattice.pair"], 3)
        self.assertTrue(all(v >= 0 for v in tracer.self_s.values()))
        self.assertEqual([s[2] for s in tracer.spans], ["invariants.k", "invariants.k_prime"])
        self.assertEqual(tracer.spans[0][1], tracer.spans[1][0])  # k's parent is k_prime

    def test_search_results_per_constructed_class(self):
        m = gromov4.preset("s2xs2")
        with spans.Tracer() as tracer:
            gromov4.enumerate_decompositions(m, m.parse("A1+A2"), [m.parse(c) for c in ("A1", "A2", "A1+A2")])
        metrics = spans.layer_metrics(tracer.totals())
        self.assertEqual(metrics["structure.decompositions_found"][0], 1)
        self.assertGreater(metrics["structure.found_per_hclass"][0], 0)


if __name__ == "__main__":
    unittest.main()

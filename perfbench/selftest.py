"""Self-tests of the benchmark; run from the repository root:

    python3 perfbench/selftest.py

They check the input generator, the closed-form references, the tracer's
rebinding and that tracing changes neither reports nor counts.  Temporary
files go under ./.perfbench.
"""

import itertools
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import shapes  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def scratch_dir(test):
    base = os.path.join(ROOT, ".perfbench")
    os.makedirs(base, exist_ok=True)
    path = tempfile.mkdtemp(dir=base)
    test.addCleanup(shutil.rmtree, path, True)
    return path


def pool(test, name, seed, count=3):
    """(argv with the directory stripped, input file contents) of the
    first rounds."""
    workdir = scratch_dir(test)
    source = workloads.rounds(name, seed, workdir)
    jobs = [job for _ in range(count) for job in next(source)]
    files = {}
    for dirpath, _, names in os.walk(workdir):
        for n in names:
            with open(os.path.join(dirpath, n)) as fh:
                files[os.path.relpath(os.path.join(dirpath, n), workdir)] = fh.read()
    argvs = [[a.replace(workdir, "") for a in job.argv] for job in jobs]
    return argvs, files


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for name in workloads.NAMES:
            self.assertEqual(pool(self, name, 5), pool(self, name, 5), name)

    def test_other_seed_other_inputs(self):
        for name in workloads.NAMES:
            self.assertNotEqual(pool(self, name, 5)[1], pool(self, name, 6)[1], name)

    def test_embedding_is_unimodular(self):
        import random
        rng = random.Random(0)
        for n in (2, 3):
            for _ in range(50):
                self.assertIn(shapes._det(shapes.random_unimodular(rng, n)), (1, -1))

    def test_negative_vertex_is_one_argument(self):
        self.assertEqual(shapes.vertex_arg((-1, 2)), "--vertex=-1,2")


class OracleTest(unittest.TestCase):
    def test_builtin_trapezoid(self):
        # conv{(0,0), (3,0), (1,1), (0,1)}: area 2, so n! vol = 4, and every
        # vertex has an edge of lattice length 1.
        T = shapes.trapezoid(1, 1, 2)
        self.assertEqual(T.vertices, ((0, 0), (0, 1), (1, 1), (3, 0)))
        self.assertEqual(2 * T.volume, 4)
        for v in T.vertices:
            self.assertEqual(T.seshadri(v), 1)
        self.assertEqual(T.lattice_count(1), 6)

    def test_box_and_simplex_closed_forms(self):
        B = shapes.box((2, 3))
        S = shapes.simplex(3, 2)
        for k in (1, 2, 4, 8):
            self.assertEqual(B.lattice_count(k), (2 * k + 1) * (3 * k + 1))
            self.assertEqual(S.lattice_count(k), math.comb(2 * k + 3, 3))
        self.assertEqual(B.volume, 6)
        self.assertEqual(S.volume, Fraction(8, 6))
        self.assertEqual(B.seshadri((2, 3)), 2)
        self.assertEqual(S.seshadri((0, 0, 2)), 2)
        self.assertEqual(B.normalized_sums((2, 0)), [0, 2, 3, 5])
        self.assertEqual(S.normalized_sums((2, 0, 0)), [0, 2])

    def test_row_count_matches_brute_force(self):
        P = shapes.prism(1, 2, 2, 1)
        for k in (1, 2, 3):
            box = itertools.product(*(range(k * max(v[c] for v in P.vertices) + 1)
                                      for c in range(3)))
            brute = sum(all(shapes._dot(a, x) <= k * beta for a, beta in P.facets)
                        for x in box)
            self.assertEqual(P.lattice_count(k), brute)

    def test_prism_obtuse_vertex(self):
        # trapezoid (a, b, c) = (1, 2, 2) at (a, b): edges of lattice length
        # a = 1 along -e1 and b = 2 along (c, -1); height 1 along e3.
        P = shapes.prism(1, 2, 2, 1)
        self.assertEqual(P.seshadri((1, 2, 0)), 1)
        self.assertEqual(P.volume, Fraction((2 + 4) * 2, 2))

    def test_tail_rule(self):
        times = [float(i) for i in range(1, 41)]
        self.assertEqual(run.tail(times), (30.0, 75.0, 10))
        self.assertEqual(run.tail(times[:19]), (19.0, 100.0, 0))


class TraceTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        base = os.path.join(ROOT, ".perfbench")
        os.makedirs(base, exist_ok=True)
        cls.workdir = tempfile.mkdtemp(dir=base)
        cls.cli, bodies, _ = worker.setup(ROOT, "bodies", 3, cls.workdir)
        numeric = next(workloads.rounds("numeric", 3, os.path.join(cls.workdir, "n")))
        cls.jobs = bodies[:4] + numeric[:3]

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.workdir, ignore_errors=True)

    def test_counts_repeat_and_reports_match(self):
        runs = []
        for _ in range(2):
            attempted, failures, metrics, _ = worker.trace(
                self.cli, self.jobs, os.path.join(self.workdir, "spans.jsonl"))
            self.assertEqual(failures, [])
            self.assertEqual(attempted, 2 * len(self.jobs))
            runs.append({k: v for k, (v, unit) in metrics.items() if unit == "count"})
        self.assertEqual(runs[0], runs[1])
        self.assertGreater(runs[0]["polytope.from_points.calls"], 0)
        self.assertGreater(runs[0]["convexfn.SmoothToricPotential.grad_many.rows"], 0)

    def test_traced_stdout_is_byte_identical(self):
        plain = [worker.call(self.cli, job)[2:] for job in self.jobs]
        with tracer.installed(tracer.Tracer()):
            traced = [worker.call(self.cli, job)[2:] for job in self.jobs]
        self.assertEqual(plain, traced)
        self.assertTrue(all(rc == 0 for rc, _ in plain))

    def test_every_binding_is_rebound(self):
        originals = []
        for _, path, _, _ in tracer.LAYERS:
            owner, attr = tracer._resolve(path)
            originals.append((owner, attr, owner.__dict__[attr]))
        raws = [getattr(raw, "__func__", raw) for _, _, raw in originals]
        with tracer.installed(tracer.Tracer()):
            for m in tracer._growthlab_modules():
                for name, value in vars(m).items():
                    self.assertFalse(any(value is raw for raw in raws),
                                     f"{m.__name__}.{name} is not wrapped")
            for owner, attr, raw in originals:
                now = owner.__dict__[attr]
                self.assertIs(getattr(now, "__func__", now).__wrapped__,
                              getattr(raw, "__func__", raw))
            from growthlab import polytope, rationals
            self.assertIs(polytope.solve, rationals.solve)
            self.assertTrue(hasattr(polytope.solve, "__wrapped__"))
        for owner, attr, raw in originals:
            self.assertIs(owner.__dict__[attr], raw)

    def test_empty_polytope_traces_like_untraced(self):
        from growthlab import polytope
        empty = polytope.Polytope.empty(3)
        t = tracer.Tracer()
        with tracer.installed(t):
            self.assertEqual(polytope.lattice_points(empty, 2), [])
        summary = t.summary()
        self.assertEqual(summary["polytope.lattice_points.calls"], 1)
        self.assertEqual(summary["polytope.lattice_points.box_points"], 0)

    def test_metric_names_cover_summary(self):
        summary = tracer.Tracer().summary()
        names = [n for n, _ in tracer.metric_names()]
        self.assertEqual(sorted(summary), sorted(names[:-1]))
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            declared = [m["name"] for m in json.load(fh)["per_layer"]]
        self.assertEqual(declared, names)


class EntryPointTest(unittest.TestCase):
    def test_fails_without_sources(self):
        bare = scratch_dir(self)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                               "growth", "--seed", "1", "--seconds", "1",
                               "--trace", "0"], cwd=bare, capture_output=True,
                              text=True, timeout=120)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()

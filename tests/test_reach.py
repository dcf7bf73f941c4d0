"""Reachability guard: every statement in a function body of growthlab runs
for some argv of a fixed list, run in-process through cli.main under
sys.settrace.

The list is the golden argvs (test_golden.argvs) and EDGE_ARGVS, the flags
and edge inputs a user can give.  Statements come from ast, and one counts
as run when its first line is hit.  Raise statements count like any other:
each one runs for some argv, or it has a witness.  A witness is an entry of
WITNESSES: a statement prefix, the reason no argv can fire that raise, and
a zero-argument callable that, run under the same tracer after the argvs,
raises a GrowthLabError from that very line.  Witnesses are for internal
certificate checks, which no input can make fail, and for the one API-only
precondition left.  Exempt are except handlers (safety code), __repr__ and
__hash__, and the ALLOWLIST, where each entry says why.  A statement that
only tests reach is code no command runs: delete it, or add the argv that
reaches it when a command ought to.  Every exit-2 argv must print error
JSON with its error.type on stdout, except argparse's usage errors, which
go to stderr.
"""

import ast
import contextlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

from growthlab import cli
from growthlab import convexfn as cf
from growthlab import embed as em
from growthlab import growth as gr
from growthlab import polytope as pt
from growthlab.errors import GrowthLabError
from test_golden import argvs, write_fixtures

SRC = Path(cli.__file__).parent

EXEMPT_FUNCTIONS = {"__repr__", "__hash__"}

# (why they stay, statements): a statement is "file:function: first line",
# and an entry names statements by prefixes of that.  Every prefix must match
# an unreached statement, so a stale entry fails the guard too.
ALLOWLIST = [
    ("the exact LP's infeasible, unbounded and degenerate routes: every LP that chebyshev "
     "solves asks for a point of P; lp.py goes with ROADMAP item 9's LP half",
     ["lp.py:solve_lp: return INFEASIBLE", "lp.py:solve_lp: return UNBOUNDED",
      "lp.py:_simplex: return UNBOUNDED", "lp.py:_drive_out_artificials: _pivot"]),
    ("nothing in the package calls it; perfbench's tracer wraps it by name until "
     "the benchmark drops it (ROADMAP items 3 and 9)",
     ["rationals.py:solve: "]),
    ("a singular or inconsistent system: _facet and inverse turn it into their "
     "errors, and _certify's barycenter system is consistent by construction",
     ["rationals.py:null_vector: return None", "rationals.py:_solve_columns: return None",
      "rationals.py:solve_general: return None"]),
    ("the empty band between R and R': it needs n >= 10 and a Seshadri constant "
     "above 4, whose dilates the lattice-point budget refuses before any command "
     "glues, but fit_ball takes any growth condition",
     ["embed.py:fit_ball: X_band = np.zeros",
      'embed.py:fit_ball: band = {"min_margin": 0.0, "points": 0}']),
    ("certificate check (a), a vertex of kB missing from W_k: a toric series "
     "holds every lattice point of kP",
     ["okounkov.py:_is_dilate: return False"]),
]

# Shapes the edge argvs read besides the golden fixtures: {name: vertices,
# written with their dimension, or the whole JSON object}.
EDGE_SHAPES = {
    "point": [["1", "1"]],
    "no_vertices": [],
    # non-simple: 4 facets at each vertex, so edges need the rank test
    "octahedron": [[s * (i == j) for j in range(3)] for i in range(3) for s in (1, -1)],
    # edge generators (1,2) and (2,1) at the origin: determinant -3
    "skew_triangle": [["0", "0"], ["1", "2"], ["2", "1"]],
    "zero_denominator": [["1/0", "0"], ["1", "0"], ["0", "1"]],
    "null_coordinate": [[None, "0"], ["1", "0"], ["0", "1"]],
    "mixed_lengths": [["0", "0"], ["1", "0", "0"], ["0", "1"]],
    "no_dim": {"vertices": [[0, 0]]},
    "dim_zero": {"dim": 0, "vertices": [[0]]},
    # the origin is a vertex, but (-1, 1) is off the positive orthant
    "off_orthant": [["0", "0"], ["1", "0"], ["-1", "1"]],
}

# (exit code, argv) with {dir} for the fixture directory.
EDGE_ARGVS = [
    (0, ["growth", "--polytope", "{dir}/trapezoid.json", "--vertex", "3,0", "--numeric",
         "--samples", "500", "--svg", "{dir}/growth.svg"]),
    (0, ["growth", "--polytope", "{dir}/interval.json", "--vertex", "2", "--numeric",
         "--samples", "500", "--seed", "5"]),
    (0, ["volume", "--polytope", "{dir}/prism.json", "--vertex", "2,0,1", "--numeric",
         "--samples", "500"]),
    (0, ["seshadri", "--polytope", "{dir}/trapezoid.json", "--vertex", "3,0",
         "--svg", "{dir}/seshadri.svg", "--out", "{dir}/seshadri.json"]),
    (0, ["okounkov", "--polytope", "{dir}/trapezoid.json", "--svg", "{dir}/body.svg"]),
    (0, ["chebyshev", "--fs-lambda", "3"]),
    (0, ["chebyshev", "--fs-lambda", "3/2", "--dim", "3"]),
    (2, ["chebyshev", "--fs-lambda", "1e400"]),
    # a float of 0.0 below the float range, and a weight of 0
    (2, ["chebyshev", "--fs-lambda", "1e-400"]),
    (2, ["chebyshev", "--fs-lambda", "0"]),
    (0, ["chebyshev", "--polytope", "{dir}/trapezoid.json", "--vertex", "3,0", "--k", "2"]),
    (0, ["embed-ball", "--polytope", "{dir}/trapezoid.json", "--vertex", "3,0",
         "--fs-lambda", "1/2", "--samples", "200", "--profile", "{dir}/profile.csv"]),
    # too large a weight: GrowthViolation with its vertex and facet
    (2, ["embed-ball", "--polytope", "{dir}/trapezoid.json", "--vertex", "3,0",
         "--fs-lambda", "3"]),
    (2, ["embed-ball", "--polytope", "{dir}/trapezoid.json", "--vertex", "3,0",
         "--fs-lambda", "1/2", "--R", "0"]),
    (2, ["seshadri", "--polytope", "{dir}/trapezoid.json", "--vertex", "3,0", "--tol", "0"]),
    # a tolerance whose denominator has 4301 digits, which rat_str cannot print
    (2, ["seshadri", "--polytope", "{dir}/trapezoid.json", "--vertex", "3,0",
         "--tol", "1e-4300"]),
    (2, ["check-delzant", "--polytope", "{dir}/mixed_lengths.json"]),
    # the golden conv{(0,1/2), (3/2,0)} has no lattice point at k = 1
    (2, ["okounkov", "--polytope", "{dir}/rational_segment.json", "--k-max", "1"]),
    (2, ["okounkov", "--polytope", "{dir}/point.json"]),
    (2, ["normalize", "--polytope", "{dir}/point.json", "--vertex", "1,1"]),
    (2, ["okounkov", "--polytope", "{dir}/no_vertices.json"]),
    (0, ["check-delzant", "--polytope", "{dir}/octahedron.json"]),
    (2, ["growth", "--polytope", "{dir}/octahedron.json", "--vertex", "1,0,0"]),
    (2, ["normalize", "--polytope", "{dir}/skew_triangle.json", "--vertex", "0,0"]),
    (2, ["check-delzant", "--polytope", "{dir}/zero_denominator.json"]),
    (2, ["check-delzant", "--polytope", "{dir}/null_coordinate.json"]),
    (0, ["corpus", "--k", "1", "--dir", "{dir}/mixed"]),
    (2, ["growth", "--polytope", "{dir}/prism.json", "--vertex", "2,0,1", "--k", "200"]),
    # a required flag left out
    (2, ["growth", "--vertex", "3,0"]),
    (2, ["growth", "--polytope", "{dir}/trapezoid.json"]),
    (2, ["embed-ball", "--polytope", "{dir}/trapezoid.json", "--vertex", "3,0"]),
    (2, ["chebyshev"]),
    # --svg on a 3-d polytope, and on a body with no limit
    (2, ["growth", "--polytope", "{dir}/prism.json", "--vertex", "2,0,1",
         "--svg", "{dir}/refused.svg"]),
    (2, ["okounkov", "--polytope", "{dir}/half_square.json", "--k-max", "2",
         "--svg", "{dir}/refused.svg"]),
    # no vertices, a dimension out of range, and a u_k of a non-lattice polytope
    (2, ["chebyshev", "--polytope", "{dir}/no_vertices.json"]),
    (2, ["chebyshev", "--fs-lambda", "1", "--dim", "0"]),
    (2, ["chebyshev", "--fs-lambda", "1", "--dim", "49"]),
    (2, ["chebyshev", "--polytope", "{dir}/half_square.json", "--vertex", "0,0", "--k", "2"]),
    (2, ["chebyshev", "--polytope", "{dir}/off_orthant.json", "--k", "2"]),
    # the ball's radius, samples and width out of range
    *[(2, ["embed-ball", "--polytope", "{dir}/trapezoid.json", "--vertex", "3,0",
           "--fs-lambda", "1/2", flag, value])
      for flag, value in (("--R", "inf"), ("--samples", "0"), ("--samples", "100000000"),
                          ("--R", "1e300"), ("--epsilon", "0"))],
    # too few and too many gradient samples, and too large a gradient block
    (2, ["volume", "--polytope", "{dir}/trapezoid.json", "--vertex", "3,0", "--numeric",
         "--samples", "2"]),
    (2, ["volume", "--polytope", "{dir}/trapezoid.json", "--vertex", "3,0", "--numeric",
         "--samples", "10000000"]),
    (2, ["volume", "--polytope", "{dir}/prism.json", "--vertex", "2,0,1", "--k", "40",
         "--numeric"]),
    (2, ["normalize", "--polytope", "{dir}/trapezoid.json", "--vertex", "1,0"]),
    (2, ["growth", "--polytope", "{dir}/trapezoid.json", "--vertex", "3,0", "--k", "0"]),
    # a decimal exponent beyond the 4300 digits int() reads
    (2, ["seshadri", "--polytope", "{dir}/trapezoid.json", "--vertex", "3,0",
         "--tol", "1e-100000000"]),
    (2, ["check-delzant", "--polytope", "{dir}/no_dim.json"]),
    (2, ["check-delzant", "--polytope", "{dir}/dim_zero.json"]),
]

# Argvs that cli.main's table parse declines, so that argparse parses them:
# an unknown command or flag, a value on a store_true flag, a value int()
# refuses, a flag with no value, and a "-"-led value, which argparse takes.
ARGPARSE_ARGVS = [
    (2, ["bogus"]),
    (2, ["growth", "--bogus"]),
    (2, ["growth", "--numeric=1"]),
    (2, ["growth", "--samples", "x"]),
    (2, ["growth", "--polytope"]),
    (0, ["decompose", "--polytope", "{dir}/trapezoid.json", "--vertex", "3,0",
         "--lams=-1,0"]),
]
EDGE_ARGVS += ARGPARSE_ARGVS

# Run last, with GROWTHLAB_SEED set: the seed the report records.
SEED_ARGV = ["check-delzant", "--polytope", "{dir}/trapezoid.json"]


def _triangle():
    """The unit triangle's integer points and its certified simplicial facets."""
    pts = [(0, 0), (0, 1), (1, 0)]
    return pts, pt._incremental_hull(pts, 2, pt._affine_basis(pts))


def _certify(pts, facets):
    return pt._certify(pts, facets, pt._dedupe_halfspaces(facets, 1), 2)


def _certify_off_plane():
    pts, facets = _triangle()
    ids, a, b = facets[0]
    _certify(pts, [(ids, a, b + 1)] + facets[1:])


def _certify_open_chain():
    pts, facets = _triangle()
    _certify(pts, facets[1:])


def _certify_double_cover():
    pts, facets = _triangle()
    _certify(pts, facets + facets)


def _certify_outside():
    # the triangle's facets, with (1, 1) among the input points
    pts, facets = _triangle()
    _certify(pts + [(1, 1)], facets)


def _normalize_off_orthant():
    # unimodular generators at the origin that are not its edges: (0, 1) maps to (0, -1)
    P = pt.standard_simplex(2)
    P._generators = (((0, -1), (1, 0)),) * 3
    pt.normalize_at_vertex(P, (0, 0))


def _ehrhart_off_volume():
    P = pt.box([1, 2])
    P._volume = Fraction(7)
    pt.lattice_count(P, 3)


def _simplex_scale_unbounded():
    # the standard triangle without its facet x + y <= 1
    P = pt.standard_simplex(2)
    P.int_facets = tuple(f for f in P.int_facets if max(f[0]) <= 0)
    pt.simplex_inclusion(P)


def _gluing_certificate_fails():
    # c_max = 0 leaves C too small: h_Q exceeds source + C inside the ball
    gc = gr.build_growth_condition(pt.box([2, 2]), (0, 0), (1,))
    gc.c_max = Fraction(0)
    source = cf.SmoothToricPotential.fubini_study(Fraction(1, 2), 2)
    em.fit_ball(gc, source, 10.0, samples=50, pairs=50)


CERTIFICATE = "an internal certificate check: no input makes a certified hull fail it"

# (statement prefix, why no argv fires it, a call that raises from it): each
# prefix matches exactly one raise that the argvs leave unreached.
WITNESSES = [
    ('polytope.py:_facet: raise GrowthLabError("degenerate hull facet")',
     "_incremental_hull only passes n affinely independent points",
     lambda: pt._facet([(0, 0), (0, 0)], [0, 1], (0, 0))),
    ('polytope.py:_certify: raise GrowthLabError("hull facet point off its plane")',
     CERTIFICATE, _certify_off_plane),
    ('polytope.py:_certify: raise GrowthLabError("degenerate hull facet")',
     CERTIFICATE, lambda: _certify([(0, 0), (0, 0)], [(frozenset({0, 1}), (1, 0), 0)])),
    ('polytope.py:_certify: raise GrowthLabError("hull facets do not form an oriented cycle")',
     CERTIFICATE, _certify_open_chain),
    ('polytope.py:_certify: raise GrowthLabError("hull facets cover the boundary more',
     CERTIFICATE, _certify_double_cover),
    ('polytope.py:_certify: raise GrowthLabError("input point outside a hull facet")',
     CERTIFICATE, _certify_outside),
    ('polytope.py:normalize_at_vertex: raise GrowthLabError("normalized polytope left',
     "the map sends the edge cone at a Delzant vertex onto the positive orthant, and "
     "the polytope lies in its edge cone", _normalize_off_orthant),
    ('polytope.py:lattice_count: raise GrowthLabError("the Ehrhart leading coefficient',
     "the scans at 1..n and the certified volume agree on every lattice polytope",
     _ehrhart_off_volume),
    ('polytope.py:simplex_inclusion: raise GrowthLabError("bounded polytope must bound',
     "a bounded polytope with a vertex at the origin in the positive orthant has a "
     "facet whose normal has a positive coordinate", _simplex_scale_unbounded),
    ("embed.py:fit_ball: raise NonConvergence(",
     "C and R' come from exact bounds that make every sampled check hold",
     _gluing_certificate_fails),
    ("polytope.py:hull: raise DegenerateInput(",
     "the one API-only precondition: the commands hull with Polytope.from_points, which "
     "takes any dimension, and 47 call sites in the tests build their fixtures with hull",
     lambda: pt.hull([(0, 0), (1, 1)])),
]


def write_edge_fixtures(root):
    write_fixtures(root)
    for name, shape in EDGE_SHAPES.items():
        if isinstance(shape, list):
            shape = {"dim": len(shape[0]) if shape else 2, "vertices": shape}
        (root / f"{name}.json").write_text(json.dumps(shape))
    (root / "mixed").mkdir()
    (root / "mixed" / "README.txt").write_text("not a polytope\n")
    (root / "mixed" / "trapezoid.json").write_text((root / "trapezoid.json").read_text())


def statements(path):
    """{(first line, function, first line's text)} of the statements in the
    function bodies of the file, less the exempt ones."""
    text = path.read_text()
    lines, out = text.splitlines(), set()

    def function(node, name):
        if node.name in EXEMPT_FUNCTIONS:
            return
        body = node.body
        if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
            body = body[1:]  # the docstring
        block(body, name)

    def block(stmts, name):
        for s in stmts:
            out.add((s.lineno, name, lines[s.lineno - 1].strip()))
            if isinstance(s, ast.FunctionDef):
                function(s, f"{name}.{s.name}")
            else:
                for field in ("body", "orelse", "finalbody"):
                    block(getattr(s, field, ()), name)

    def members(stmts, prefix):
        for s in stmts:
            if isinstance(s, ast.FunctionDef):
                function(s, f"{prefix}{s.name}")
            elif isinstance(s, ast.ClassDef):
                members(s.body, f"{prefix}{s.name}.")

    members(ast.parse(text).body, "")
    return out


def left_unreached(hit):
    """[(key, (file, line))] of the statements whose line is not in hit; the
    key "file:function: text" is what ALLOWLIST and WITNESSES prefixes match."""
    return [(f"{path.name}:{name}: {text}", (str(path), line))
            for path in sorted(SRC.glob("*.py"))
            for line, name, text in sorted(statements(path)) if (str(path), line) not in hit]


@contextlib.contextmanager
def tracing():
    """The set of (file, line) of growthlab that run inside the block, with
    the previous trace function restored after."""
    src, hit = str(SRC), set()

    def local(frame, event, arg):
        if event == "line":
            hit.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def start(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(src) else None

    previous = sys.gettrace()
    sys.settrace(start)
    try:
        yield hit
    finally:
        sys.settrace(previous)


def run_traced(runs):
    """The set of (file, line) of growthlab that the argvs run, and their
    (exit code, stdout)."""
    results = []
    with tracing() as hit:
        for argv in runs:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = cli.main(argv)
                except SystemExit as e:  # argparse's usage errors
                    code = e.code
            results.append((code, out.getvalue()))
    return hit, results


def witnessed(hit):
    """The (file, line) of the raises that WITNESSES fire, and the entries
    that fail, as "prefix: why": a prefix must match exactly one raise left
    unreached by hit, and its call, run under the tracer, must raise a
    GrowthLabError whose innermost frame is that raise's line."""
    left, fired, failed = left_unreached(hit), set(), []
    for prefix, _, call in WITNESSES:
        matched = [where for key, where in left if key.startswith(prefix)
                   and key.split(": ", 1)[1].startswith("raise ")]
        if len(matched) != 1:
            failed.append(f"{prefix}: matches {len(matched)} unreached raises")
            continue
        with tracing() as run:
            try:
                call()
                raised = None
            except GrowthLabError as e:
                tb = e.__traceback__
                while tb.tb_next:
                    tb = tb.tb_next
                raised = (tb.tb_frame.f_code.co_filename, tb.tb_lineno)
        if raised != matched[0] or raised not in run:
            failed.append(f"{prefix}: the call raised from {raised}, not {matched[0]}")
            continue
        fired.add(raised)
    return fired, failed


def unreached(hit):
    """The statements no argv ran, less ALLOWLIST, as "file:line function:
    text"; and the ALLOWLIST prefixes that match none of them."""
    prefixes = [prefix for _, entry in ALLOWLIST for prefix in entry]
    left, used = [], set()
    for key, (_, line) in left_unreached(hit):
        matched = {prefix for prefix in prefixes if key.startswith(prefix)}
        if not matched:
            file, rest = key.split(":", 1)
            left.append(f"{file}:{line} {rest}")
        used |= matched
    return left, [prefix for prefix in prefixes if prefix not in used]


def error_type(out):
    """The error.type of the error JSON on a command's stdout, else None."""
    try:
        return json.loads(out)["error"]["type"]
    except (ValueError, KeyError, TypeError):
        return None


def test_every_statement_runs_for_some_argv(tmp_path, monkeypatch):
    write_edge_fixtures(tmp_path)
    monkeypatch.delenv("GROWTHLAB_SEED", raising=False)
    runs = [[a.format(dir=tmp_path) for a in argv]
            for argv in argvs() + [argv for _, argv in EDGE_ARGVS]]
    hit, results = run_traced(runs)
    edge = results[len(argvs()):]
    assert [code for code, _ in edge] == [code for code, _ in EDGE_ARGVS]
    # argparse's usage errors print to stderr alone; every other exit 2 prints error JSON
    silent = [argv for _, argv in ARGPARSE_ARGVS]
    assert [argv for (want, argv), (_, out) in zip(EDGE_ARGVS, edge) if want == 2
            and (out != "" if argv in silent else error_type(out) is None)] == []

    monkeypatch.setenv("GROWTHLAB_SEED", "7")
    seed_hit, [(code, out)] = run_traced([[a.format(dir=tmp_path) for a in SEED_ARGV]])
    assert (code, json.loads(out)["seed"]) == (0, 7)

    fired, failed = witnessed(hit | seed_hit)
    assert failed == []
    left, stale = unreached(hit | seed_hit | fired)
    assert left == []
    assert stale == []


def test_allowlist_gives_reasons():
    assert all(reason and prefixes for reason, prefixes in ALLOWLIST)
    assert all(reason and callable(call) for _, reason, call in WITNESSES)

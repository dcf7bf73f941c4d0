"""Reachability guard: every statement in a function body of growthlab runs
for some argv of a fixed list, run in-process through cli.main under
sys.settrace.

The list is the golden argvs (test_golden.argvs) and EDGE_ARGVS, the flags
and edge inputs a user can give.  Statements come from ast, and one counts
as run when its first line is hit.  Exempt are raise statements and an if
whose only body is one, except handlers (safety code), __repr__ and
__hash__, and the ALLOWLIST, where each entry says why.  A statement that
only tests reach is code no command runs: delete it, or add the argv that
reaches it when a command ought to.
"""

import ast
import contextlib
import io
import json
import sys
from pathlib import Path

from growthlab import cli
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

# Shapes the edge argvs read besides the golden fixtures: {name: vertices}.
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


def write_edge_fixtures(root):
    write_fixtures(root)
    for name, vertices in EDGE_SHAPES.items():
        dim = len(vertices[0]) if vertices else 2
        (root / f"{name}.json").write_text(json.dumps({"dim": dim, "vertices": vertices}))
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
            if isinstance(s, ast.Raise):
                continue
            if isinstance(s, ast.If) and len(s.body) == 1 and isinstance(s.body[0], ast.Raise):
                block(s.orelse, name)
                continue
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


def run_traced(runs):
    """The set of (file, line) of growthlab that the argvs run, and their
    (exit code, stdout), with the previous trace function restored after."""
    src, hit, results = str(SRC), set(), []

    def local(frame, event, arg):
        if event == "line":
            hit.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def start(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(src) else None

    previous = sys.gettrace()
    sys.settrace(start)
    try:
        for argv in runs:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = cli.main(argv)
                except SystemExit as e:  # argparse's usage errors
                    code = e.code
            results.append((code, out.getvalue()))
    finally:
        sys.settrace(previous)
    return hit, results


def unreached(hit):
    """The statements no argv ran, less ALLOWLIST, as "file:line function:
    text"; and the ALLOWLIST prefixes that match none of them."""
    prefixes = [prefix for _, entry in ALLOWLIST for prefix in entry]
    left, used = [], set()
    for path in sorted(SRC.glob("*.py")):
        for line, name, text in sorted(statements(path)):
            if (str(path), line) in hit:
                continue
            key = f"{path.name}:{name}: {text}"
            matched = {prefix for prefix in prefixes if key.startswith(prefix)}
            if not matched:
                left.append(f"{path.name}:{line} {name}: {text}")
            used |= matched
    return left, [prefix for prefix in prefixes if prefix not in used]


def test_every_statement_runs_for_some_argv(tmp_path, monkeypatch):
    write_edge_fixtures(tmp_path)
    monkeypatch.delenv("GROWTHLAB_SEED", raising=False)
    runs = [[a.format(dir=tmp_path) for a in argv]
            for argv in argvs() + [argv for _, argv in EDGE_ARGVS]]
    hit, results = run_traced(runs)
    assert [code for code, _ in results[len(argvs()):]] == [code for code, _ in EDGE_ARGVS]

    monkeypatch.setenv("GROWTHLAB_SEED", "7")
    seed_hit, [(code, out)] = run_traced([[a.format(dir=tmp_path) for a in SEED_ARGV]])
    assert (code, json.loads(out)["seed"]) == (0, 7)

    left, stale = unreached(hit | seed_hit)
    assert left == []
    assert stale == []


def test_allowlist_gives_reasons():
    assert all(reason and prefixes for reason, prefixes in ALLOWLIST)

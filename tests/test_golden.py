"""Golden reports: a fixed set of exact-command argvs re-run in-process and
compared with the reports recorded in golden_reports.json.

Exact strings compare byte for byte.  Floats (nth_root_volume, upper_bound,
slack, ln N(k)/k and the like) compare with math.isclose(rel_tol=1e-12), so
that a last-ulp difference in libm does not fail.  After a deliberate change
of a report, record them again with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import math
import re
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).with_name("golden_reports.json")

# name -> (vertices, the vertex the vertex-taking commands use)
FIXTURES = {
    "interval": ([["-1"], ["2"]], "2"),
    "trapezoid": ([["0", "0"], ["3", "0"], ["1", "1"], ["0", "1"]], "3,0"),
    "prism": ([[x, y, z] for x, y in (("0", "0"), ("2", "0"), ("1", "1"), ("0", "1"))
               for z in ("0", "1")], "2,0,1"),
    "simplex4": ([["0"] * 4] + [["2" if j == i else "0" for j in range(4)] for i in range(4)],
                 "0,0,2,0"),
    # the Hirzebruch trapezoid prism through a unimodular map and a translation
    "scrambled": ([["2", "-3", "3"], ["2", "-1", "1"], ["3", "-2", "4"], ["3", "0", "2"],
                   ["4", "-2", "5"], ["4", "0", "3"], ["5", "-3", "6"], ["5", "-1", "4"]],
                  "3,0,2"),
    # denominators 2 and 3: the hull runs over D = 6
    "rational_triangle": ([["1/2", "1/3"], ["5/2", "1/3"], ["1/2", "7/3"]], "5/2,1/3"),
    "half_square": ([["0", "0"], ["3/2", "0"], ["0", "3/2"], ["3/2", "3/2"]], "3/2,0"),
    # first full-dimensional Okounkov level k = 2; its dilate by 3 is not integral
    "quarter_square": ([["0", "0"], ["1/2", "0"], ["0", "1/2"], ["1/2", "1/2"]], "1/2,0"),
    "segment": ([["0", "0"], ["2", "1"]], "2,1"),
    # lower-dimensional with denominators: k t of the chart is integral only at even k
    "rational_segment": ([["0", "1/2"], ["3/2", "0"]], "3/2,0"),
    "flat_triangle": ([["0", "0", "0"], ["3/2", "0", "0"], ["0", "3/2", "1"]], "3/2,0,0"),
}

# The fixtures `corpus --dir` reads besides the built-in corpus.
CORPUS_DIR = ("trapezoid", "rational_triangle", "segment")

COMMANDS = [
    ["check-delzant"],
    ["normalize", "--vertex"],
    ["growth", "--vertex"],
    # levels above n, where N(k) is read off the Ehrhart polynomial
    ["growth", "--k", "3,5,16", "--vertex"],
    ["volume", "--vertex"],
    ["seshadri", "--vertex"],
    ["seshadri", "--tol", "1/3", "--vertex"],
    ["seshadri", "--tol", "100", "--vertex"],
    ["decompose", "--vertex"],
    # empty, negative and off-vertex slices; a list led by -1 would read as a flag
    ["decompose", "--lams", "0,-1,1/3,7/5,5/2,100", "--vertex"],
    ["okounkov"],
    ["okounkov", "--k-max", "4"],
    ["chebyshev"],
    ["chebyshev", "--vertex"],
    ["gromov", "--vertex"],
]


def argvs():
    """Every recorded argv, with {dir} for the fixture directory."""
    out = []
    for name, (_, vertex) in FIXTURES.items():
        for cmd in COMMANDS:
            argv = [cmd[0], "--polytope", f"{{dir}}/{name}.json"] + cmd[1:]
            out.append(argv + [vertex] if cmd[-1] == "--vertex" else argv)
    return out + [["corpus", "--k", "1,2"], ["corpus", "--k", "1,2", "--dir", "{dir}/corpus"]]


def write_fixtures(root):
    (root / "corpus").mkdir()
    for name, (vertices, _) in FIXTURES.items():
        text = json.dumps({"dim": len(vertices[0]), "vertices": vertices})
        (root / f"{name}.json").write_text(text)
        if name in CORPUS_DIR:
            (root / "corpus" / f"{name}.json").write_text(text)


def run(argv):
    """(exit code, stdout, stderr) of main(argv), in-process."""
    from growthlab.cli import main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# a JSON string, or a number; a number with a fraction or an exponent is a float
TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?')


def split_floats(text):
    """(text with each float literal replaced by '<float>', the floats)."""
    floats = []

    def mask(m):
        token = m.group()
        if token.startswith('"') or not any(c in token for c in ".eE"):
            return token
        floats.append(float(token))
        return "<float>"

    return TOKEN.sub(mask, text), floats


def key(argv):
    return " ".join(argv)


def record():
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        write_fixtures(Path(tmp))
        reports = {}
        for argv in argvs():
            code, out, err = run([a.format(dir=tmp) for a in argv])
            reports[key(argv)] = {"code": code, "stdout": out, "stderr": err}
    GOLDEN.write_text(json.dumps(reports, indent=1, sort_keys=True) + "\n")


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    write_fixtures(root)
    return root


def test_every_argv_is_recorded(golden):
    assert sorted(golden) == sorted(key(argv) for argv in argvs())


@pytest.mark.parametrize("argv", argvs(), ids=key)
def test_report_matches_recording(argv, golden, fixture_dir):
    want = golden[key(argv)]
    code, out, err = run([a.format(dir=fixture_dir) for a in argv])
    assert (code, err) == (want["code"], want["stderr"])
    text, floats = split_floats(out)
    want_text, want_floats = split_floats(want["stdout"])
    assert text == want_text
    assert len(floats) == len(want_floats)
    assert all(math.isclose(a, b, rel_tol=1e-12) for a, b in zip(floats, want_floats))


if __name__ == "__main__":
    sys.exit(record())

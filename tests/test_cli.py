import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growthlab import cli
from growthlab import polytope as pt
from growthlab.cli import main
from test_golden import argvs
from test_reach import ARGPARSE_ARGVS, EDGE_ARGVS


@pytest.fixture()
def files(tmp_path):
    paths = {}
    shapes = {
        "square2": pt.box([2, 2]),
        "simplex": pt.standard_simplex(2),
        "trapezoid": pt.hull([(0, 0), (3, 0), (1, 1), (0, 1)]),
        "bad": pt.hull([(0, 0), (2, 0), (0, 1)]),
        "cube2": pt.box([2, 2, 2]),
        "segment": pt.Polytope.from_points([(0, 0), (2, 1)]),
    }
    for name, P in shapes.items():
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(P.to_json_dict()))
        paths[name] = str(p)
    paths["tmp"] = tmp_path
    return paths


# Polytope JSON that from_json_dict must reject with DegenerateInput.
MALFORMED_POLYTOPES = {
    "no_vertices": '{"dim": 2}',
    "no_dim": '{"vertices": [["0", "0"]]}',
    "flat_vertices": '{"dim": 2, "vertices": [1, 2]}',
    "scalar_vertices": '{"dim": 2, "vertices": 5}',
    "null_coordinate": '{"dim": 2, "vertices": [[null, 0]]}',
    "infinite_coordinate": '{"dim": 2, "vertices": [[1e400, 0]]}',
    "null_dim": '{"dim": null, "vertices": [[0, 0], [1, 0], [0, 1]]}',
    "bool_dim": '{"dim": true, "vertices": [[0], [1]]}',
    "string_dim": '{"dim": "2", "vertices": [[0, 0], [1, 0], [0, 1]]}',
    "bool_coordinate": '{"dim": 2, "vertices": [[true, 0], [0, 0], [0, 1]]}',
}


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestCommands:
    def test_growth_report(self, files, capsys):
        code, out = run_cli(["growth", "--polytope", files["square2"],
                             "--vertex", "0,0", "--k", "1,2,4"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["volume_MA"] == "8"
        assert data["seshadri"]["lp"] == "2"

    def test_check_delzant_failure_is_verdict_not_error(self, files, capsys):
        code, out = run_cli(["check-delzant", "--polytope", files["bad"]],
                            capsys)
        assert code == 0
        data = json.loads(out)
        assert data["ok"] is False
        failing = [v for v in data["vertices"] if not v["ok"]]
        assert failing[0]["vertex"] == ["0", "1"]

    def test_embed_ball_violation_exit_code(self, files, capsys):
        code, out = run_cli(["embed-ball", "--polytope", files["simplex"],
                             "--vertex", "0,0", "--fs-lambda", "2",
                             "--R", "5"], capsys)
        assert code == 2
        data = json.loads(out)
        assert data["error"]["type"] == "GrowthViolation"
        assert data["error"]["vertex"] == ["2", "0"]

    def test_embed_ball_success_writes_profile(self, files, capsys):
        profile = str(files["tmp"] / "profile.csv")
        code, out = run_cli(["embed-ball", "--polytope", files["square2"],
                             "--vertex", "0,0", "--fs-lambda", "3/2",
                             "--R", "5", "--profile", profile], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["passing"] is True
        with open(profile) as fh:
            header = fh.readline().strip().split(",")
        assert header == ["t", "source_plus_C", "target", "glued"]

    def test_normalize(self, files, capsys):
        code, out = run_cli(["normalize", "--polytope", files["square2"],
                             "--vertex", "2,2"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["polytope"]["vertices"][0] == ["0", "0"]
        assert "normalization" in data

    @pytest.mark.parametrize("tol, domination", [("1/3", "2"), ("1e-300", "2"), ("100", "0")])
    def test_seshadri_tolerance(self, files, capsys, tol, domination):
        code, out = run_cli(["seshadri", "--polytope", files["square2"],
                             "--vertex", "0,0", "--tol", tol], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["seshadri"]["lp"] == "2"
        assert data["seshadri"]["domination"] == domination
        assert F(data["tolerance"]) == F(tol)

    def test_normalize_rational_polytope(self, files, capsys):
        path = files["tmp"] / "rational_triangle.json"
        path.write_text(json.dumps({"dim": 2, "vertices": [["1/2", "1/3"], ["5/2", "1/3"],
                                                           ["1/2", "7/3"]]}))
        code, out = run_cli(["normalize", "--polytope", str(path), "--vertex", "5/2,1/3"],
                            capsys)
        assert code == 0
        assert json.loads(out) == {
            "normalization": {"base": ["5/2", "1/3"], "matrix": [["0", "1"], ["-1", "-1"]]},
            "polytope": {"dim": 2,
                         "facets": [{"normal": ["-1", "0"], "offset": "0"},
                                    {"normal": ["0", "-1"], "offset": "0"},
                                    {"normal": ["1", "1"], "offset": "2"}],
                         "vertices": [["0", "0"], ["0", "2"], ["2", "0"]]},
            "seed": 0}

    def test_seshadri_svg(self, files, capsys):
        svg = str(files["tmp"] / "overlay.svg")
        code, _ = run_cli(["seshadri", "--polytope", files["trapezoid"],
                           "--vertex", "0,0", "--svg", svg], capsys)
        assert code == 0
        with open(svg) as fh:
            text = fh.read()
        assert text.startswith("<svg") and "polygon" in text

    @pytest.mark.parametrize("argv", [
        ["growth", "--polytope", "{trapezoid}", "--vertex", "0,0"],
        ["okounkov", "--polytope", "{trapezoid}"],
    ], ids=["growth", "okounkov"])
    def test_svg_on_2d(self, files, capsys, argv):
        svg = files["tmp"] / "overlay.svg"
        code, out = run_cli([a.format(**files) for a in argv] + ["--svg", str(svg)],
                            capsys)
        assert code == 0 and json.loads(out)
        assert svg.read_text().startswith("<svg")

    @pytest.mark.parametrize("argv", [
        ["growth", "--polytope", "{cube2}", "--vertex", "0,0,0"],
        ["seshadri", "--polytope", "{cube2}", "--vertex", "0,0,0"],
        ["okounkov", "--polytope", "{cube2}"],
        ["okounkov", "--polytope", "{interval}"],
    ], ids=["growth-3d", "seshadri-3d", "okounkov-3d", "okounkov-1d"])
    def test_svg_off_2d_is_rejected_before_any_work(self, files, capsys, argv,
                                                     monkeypatch):
        from growthlab import growth as gr
        from growthlab import okounkov as ok

        def refuse(*args):
            raise AssertionError("work started before the --svg check")

        monkeypatch.setattr(gr, "build_growth_condition", refuse)
        monkeypatch.setattr(ok, "okounkov_body", refuse)
        interval = files["tmp"] / "interval.json"
        interval.write_text(json.dumps(pt.box([3]).to_json_dict()))
        svg = files["tmp"] / "overlay.svg"
        argv = [a.format(interval=interval, **files) for a in argv]
        code, out = run_cli(argv + ["--svg", str(svg)], capsys)
        assert code == 2
        assert json.loads(out)["error"]["type"] == "ValueError"
        assert not svg.exists()

    @pytest.mark.parametrize("argv", [
        ["growth", "--polytope", "{square2}", "--vertex", "0,0", "--k", "1,2"],
        ["okounkov", "--polytope", "{trapezoid}", "--k-max", "2"],
        ["chebyshev", "--fs-lambda", "3", "--dim", "2"],
        ["corpus", "--k", "1"],
    ], ids=["growth", "okounkov", "chebyshev", "corpus"])
    def test_out_file_holds_the_stdout_report(self, files, capsys, argv):
        argv = [a.format(**files) for a in argv] + ["--seed", "5"]
        code, shown = run_cli(argv, capsys)
        assert code == 0
        out = files["tmp"] / "report.json"
        code, printed = run_cli(argv + ["--out", str(out)], capsys)
        assert code == 0 and printed == ""
        assert out.read_text() == shown

    def test_decompose(self, files, capsys):
        code, out = run_cli(["decompose", "--polytope", files["simplex"],
                             "--vertex", "0,0", "--lams", "0,1,2"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["components"]["2"] is None
        assert len(data["components"]["1"]["pieces"]) == 2

    def test_okounkov(self, files, capsys):
        code, out = run_cli(["okounkov", "--polytope", files["trapezoid"],
                             "--k-max", "3"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["seshadri_from_body"] == "1"
        assert set(data["hull_at"]) == {"1", "2", "3"}

    def test_chebyshev_fs(self, files, capsys):
        code, out = run_cli(["chebyshev", "--fs-lambda", "3", "--dim", "2"],
                            capsys)
        assert code == 0
        data = json.loads(out)
        assert data["kind"] == "closed-form"

    def test_gromov(self, files, capsys):
        code, out = run_cli(["gromov", "--polytope", files["trapezoid"],
                             "--vertex", "0,0"], capsys)
        assert code == 0
        assert json.loads(out)["value"] == "1"

    def test_missing_vertex_is_precondition_error(self, files, capsys):
        code, out = run_cli(["growth", "--polytope", files["square2"]], capsys)
        assert code == 2
        assert json.loads(out)["error"]["type"] == "ValueError"


    def test_chebyshev_support_function_without_k(self, files, capsys):
        code, out = run_cli(["chebyshev", "--polytope", files["square2"],
                             "--vertex=2,2"], capsys)
        assert code == 0
        assert json.loads(out)["kind"] == "exact-lp"

    def test_embed_ball_honours_samples(self, files, capsys):
        code, out = run_cli(["embed-ball", "--polytope", files["square2"],
                             "--vertex", "0,0", "--fs-lambda", "3/2",
                             "--R", "5", "--samples", "20000"], capsys)
        assert code == 0
        assert json.loads(out)["inner_check"]["points"] == 20000


class TestBadInput:
    @pytest.mark.parametrize("argv", [
        ["check-delzant", "--tol", "1"],
        ["corpus", "--polytope", "x"],
        ["normalize", "--svg", "x"],
        ["gromov", "--samples", "5"],
        ["volume", "--svg", "x"],
        ["decompose", "--tol", "1"],
        ["okounkov", "--polytope", "x", "--k", "2"],
        # okounkov's monomial order flags are gone: a body needs no order
        ["okounkov", "--polytope", "x", "--order", "lex"],
        ["okounkov", "--polytope", "x", "--perm", "1,0"],
    ])
    def test_flag_a_command_ignores_is_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, error", [
        (["check-delzant"], "ValueError"),
        (["check-delzant", "--polytope", "{no_vertices}"], "DegenerateInput"),
        (["check-delzant", "--polytope", "{no_dim}"], "DegenerateInput"),
        (["decompose", "--polytope", "{simplex}", "--vertex", "0,0",
          "--lams", "1/0"], "ValueError"),
        # more samples than MAX_SAMPLE_FLOATS holds, refused before any draw
        (["volume", "--polytope", "{square2}", "--vertex", "0,0", "--numeric",
          "--samples", "5000001"], "ValueError"),
        (["growth", "--polytope", "{cube2}", "--vertex", "0,0,0", "--k", "1",
          "--numeric", "--samples", "3333334"], "ValueError"),
        (["chebyshev", "--fs-lambda", "3", "--dim", "0"], "ValueError"),
    ] + [(["embed-ball", "--polytope", "{square2}", "--vertex", "0,0",
           "--fs-lambda", "3/2", flag, value], "ValueError")
         for flag, value in (("--R", "nan"), ("--R", "inf"), ("--R", "1e300"),
                             ("--epsilon", "nan"))]
       + [(["okounkov", "--polytope", "{segment}", "--k-max", "2"],
           "NotNormalized"),
          (["chebyshev", "--fs-lambda", "1", "--dim", "100000000"], "ValueError")]
       + [(["check-delzant", "--polytope", "{%s}" % name], "DegenerateInput")
          for name in ("flat_vertices", "scalar_vertices", "null_coordinate",
                       "infinite_coordinate")]
       + [(["corpus", "--dir", "{bad_dir}"], "DegenerateInput")]
       + [(["check-delzant", "--polytope", "{%s}" % name], "DegenerateInput")
          for name in ("null_dim", "bool_dim", "string_dim", "bool_coordinate")]
       # a directory where a file is read or written; the report of a command
       # that writes a file is held back until the file is written
       + [(argv, "IsADirectoryError") for argv in (
           ["check-delzant", "--polytope", "{tmp}"],
           ["chebyshev", "--fs-lambda", "1", "--out", "{tmp}"],
           ["seshadri", "--polytope", "{trapezoid}", "--vertex", "0,0", "--svg", "{tmp}"],
           ["embed-ball", "--polytope", "{square2}", "--vertex", "0,0",
            "--fs-lambda", "3/2", "--R", "5", "--profile", "{tmp}"],
           ["corpus", "--k", "1", "--dir", "{dir_corpus}"])]
       + [(["chebyshev", "--fs-lambda", "1e400"], "ValueError")]
       # the closed form overflows to -inf, which is not JSON
       + [(["chebyshev", "--fs-lambda", "1.7e308"], "ValueError")]
       # a non-lattice polytope's levels disagree: no limit body to draw
       + [(["okounkov", "--polytope", "{rational_square}", "--svg", "{svg}"],
           "ValueError")]
       # the inner ball is drawn in z-space, 2n floats a sample
       + [(["embed-ball", "--polytope", "{square2}", "--vertex", "0,0",
            "--fs-lambda", "3/2", "--samples", "2500001"], "ValueError")]
       # the source of the gluing, and chebyshev's input, are required
       + [(["embed-ball", "--polytope", "{square2}", "--vertex", "0,0"], "ValueError"),
          (["chebyshev"], "ValueError")]
       # 20000 samples over the 531441 lattice points of 40P: a gradient
       # block above MAX_GRADIENT_FLOATS, refused before any draw
       + [(["volume", "--polytope", "{cube2}", "--vertex", "0,0,0", "--k", "40",
            "--numeric"], "ValueError")]
       # a decimal exponent past 4300, refused before Fraction expands it
       + [(["seshadri", "--polytope", "{square2}", "--vertex", "0,0",
            "--tol", "1e-100000000"], "ValueError"),
          (["normalize", "--polytope", "{square2}", "--vertex", "1e100000000,0"],
           "ValueError"),
          (["check-delzant", "--polytope", "{huge_exponent}"], "ValueError")])
    def test_error_json_exit_2(self, files, capsys, monkeypatch, argv, error):
        if argv[0] == "embed-ball" and "--fs-lambda" not in argv:
            # the missing source is refused before the growth condition is built
            from growthlab import growth as gr

            def refuse(*args):
                raise AssertionError("work started before the --fs-lambda check")

            monkeypatch.setattr(gr, "build_growth_condition", refuse)
        paths = dict(files)
        rational = files["tmp"] / "rational_square.json"
        rational.write_text(json.dumps(pt.box([F(3, 2), F(3, 2)]).to_json_dict()))
        paths["rational_square"] = str(rational)
        paths["svg"] = str(files["tmp"] / "out.svg")
        huge = files["tmp"] / "huge_exponent.json"
        huge.write_text('{"dim": 2, "vertices": [["1e100000000", "0"], ["1", "0"], ["0", "1"]]}')
        paths["huge_exponent"] = str(huge)
        for name, text in MALFORMED_POLYTOPES.items():
            (files["tmp"] / f"{name}.json").write_text(text)
            paths[name] = str(files["tmp"] / f"{name}.json")
        bad_dir = files["tmp"] / "bad_dir"
        bad_dir.mkdir()
        (bad_dir / "scalar.json").write_text(MALFORMED_POLYTOPES["scalar_vertices"])
        paths["bad_dir"] = str(bad_dir)
        (files["tmp"] / "dir_corpus" / "x.json").mkdir(parents=True)
        paths["dir_corpus"] = str(files["tmp"] / "dir_corpus")
        code, out = run_cli([a.format(**paths) for a in argv], capsys)
        assert code == 2
        # json.loads refuses a second document after the first
        assert json.loads(out)["error"]["type"] == error
        assert not (files["tmp"] / "out.svg").exists()

    @pytest.mark.parametrize("argv", [
        ["growth", "--polytope", "{cube2}", "--vertex", "0,0,0", "--k", "1",
         "--numeric", "--samples", "3"],
        ["volume", "--polytope", "{square2}", "--vertex", "0,0", "--numeric",
         "--samples", "2"],
        ["volume", "--polytope", "{square2}", "--vertex", "0,0", "--numeric",
         "--samples", "0"],
        ["embed-ball", "--polytope", "{square2}", "--vertex", "0,0",
         "--fs-lambda", "3/2", "--samples", "0"],
    ], ids=["growth-3d-3", "volume-2d-2", "volume-0", "embed-ball-0"])
    def test_too_few_samples_exit_2(self, files, capsys, argv):
        # qhull needs n + 1 points in dimension n; no check may sample nothing
        code, out = run_cli([a.format(**files) for a in argv], capsys)
        assert code == 2
        error = json.loads(out)["error"]
        assert error["type"] == "ValueError" and "samples" in error["message"]

    @pytest.mark.parametrize("argv", [
        ["growth", "--polytope", "{cube2}", "--vertex", "0,0,0", "--k", "1",
         "--numeric", "--samples", "4"],
        ["volume", "--polytope", "{square2}", "--vertex", "0,0", "--numeric",
         "--samples", "3"],
    ], ids=["growth-3d-4", "volume-2d-3"])
    def test_fewest_samples_run(self, files, capsys, argv):
        code, out = run_cli([a.format(**files) for a in argv], capsys)
        assert code == 0
        assert json.loads(out)["volume_MA_numeric"]["samples"] == int(argv[-1])

    @pytest.mark.parametrize("argv", [["check-delzant", "--polytope", "{square2}"],
                                      ["check-delzant", "--polytope", "{tmp}"],
                                      ["corpus", "--k", "1"]],
                             ids=["report", "error-json", "corpus"])
    def test_closed_stdout_exits_2(self, files, capsys, monkeypatch, argv):
        # a pipe with no reader: writing to it raises BrokenPipeError
        r, w = os.pipe()
        os.close(r)
        with open(w, "w") as pipe:
            monkeypatch.setattr(sys, "stdout", pipe)
            code = main([a.format(**files) for a in argv])
            monkeypatch.undo()
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "BrokenPipeError"

    def test_closed_stdout_subprocess_has_no_traceback(self, files):
        r, w = os.pipe()
        os.close(r)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "growthlab", "corpus", "--k", "1"],
                stdout=w, stderr=subprocess.PIPE, text=True, timeout=60)
        finally:
            os.close(w)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert json.loads(proc.stderr)["error"]["type"] == "BrokenPipeError"

    def test_zero_tolerance_exits_instead_of_hanging(self, files):
        proc = subprocess.run(
            [sys.executable, "-m", "growthlab", "seshadri", "--polytope",
             files["square2"], "--vertex", "0,0", "--tol", "0"],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert json.loads(proc.stdout)["error"]["type"] == "ValueError"

    def test_fs_dim_limit_edge(self, capsys, monkeypatch):
        from growthlab import convexfn as cf
        monkeypatch.setattr(cf, "MAX_FS_DIM", 3)
        code, _ = run_cli(["chebyshev", "--fs-lambda", "1", "--dim", "3"], capsys)
        assert code == 0
        code, out = run_cli(["chebyshev", "--fs-lambda", "1", "--dim", "4"], capsys)
        assert code == 2 and json.loads(out)["error"]["type"] == "ValueError"
        with pytest.raises(ValueError, match="dim <= 3"):
            cf.SmoothToricPotential.fubini_study(1, dim=4)

    @pytest.mark.parametrize("argv", [
        ["okounkov", "--polytope", "{square2}", "--k-max", "100000"],
        ["growth", "--polytope", "{square2}", "--vertex", "0,0", "--k", "500,600"],
    ], ids=["k-max", "k-list"])
    def test_series_budget_exits_instead_of_hanging(self, files, argv):
        # the levels' boxes pass the budget together before any one box does
        proc = subprocess.run(
            [sys.executable, "-m", "growthlab"] + [a.format(**files) for a in argv],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        error = json.loads(proc.stdout)["error"]
        assert error["type"] == "ValueError" and "together" in error["message"]

    def test_oversized_dilate_exits_instead_of_hanging(self, files):
        proc = subprocess.run(
            [sys.executable, "-m", "growthlab", "growth", "--polytope",
             files["cube2"], "--vertex", "0,0,0", "--k", "200"],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert json.loads(proc.stdout)["error"]["type"] == "ValueError"


def _refuse_enumeration(*args):
    raise AssertionError("the lattice points of kQ were enumerated")


class TestExactClass:
    """Only growth and volume --numeric build the smooth potentials u_k; every
    other command reads the exact class, yet checks --k against the budget.
    growth counts the points of kQ; only a command that evaluates u_k lists them."""

    @pytest.mark.parametrize("argv", [
        ["seshadri", "--polytope", "{trapezoid}", "--vertex", "0,0"],
        ["decompose", "--polytope", "{trapezoid}", "--vertex", "0,0"],
        ["gromov", "--polytope", "{trapezoid}", "--vertex", "0,0"],
        ["volume", "--polytope", "{trapezoid}", "--vertex", "0,0"],
        ["embed-ball", "--polytope", "{square2}", "--vertex", "0,0", "--fs-lambda", "3/2",
         "--R", "5"],
        ["corpus", "--k", "1,2,4"],
    ], ids=["seshadri", "decompose", "gromov", "volume", "embed-ball", "corpus"])
    def test_builds_no_potential(self, files, capsys, monkeypatch, argv):
        from growthlab import convexfn as cf

        def refuse(*args):
            raise AssertionError("a smooth potential or its certificate was built")

        monkeypatch.setattr(cf, "logsumexp_from_polytope", refuse)
        monkeypatch.setattr(cf, "sup_difference", refuse)
        code, _ = run_cli([a.format(**files) for a in argv], capsys)
        assert code == 0

    def test_growth_counts_without_enumerating(self, files, capsys, monkeypatch):
        # lattice_points and u_k's exponents both list points through row_points
        monkeypatch.setattr(pt, "row_points", _refuse_enumeration)
        code, _ = run_cli(["growth", "--polytope", files["cube2"], "--vertex", "0,0,0",
                           "--k", "1,2,4,8"], capsys)
        assert code == 0

    @pytest.mark.parametrize("argv", [
        ["okounkov", "--polytope", "{cube2}", "--k-max", "3"],
        ["okounkov", "--polytope", "{trapezoid}", "--k-max", "4"],
        ["corpus", "--k", "1,2,4"],
    ], ids=["okounkov-3d", "okounkov-2d", "corpus"])
    def test_bodies_read_rows_without_enumerating(self, files, capsys, monkeypatch, argv):
        # a toric series keeps each W_k as the rows of its scan
        monkeypatch.setattr(pt, "row_points", _refuse_enumeration)
        code, _ = run_cli([a.format(**files) for a in argv], capsys)
        assert code == 0

    @pytest.mark.parametrize("argv", [
        ["growth", "--polytope", "{square2}", "--vertex", "0,0", "--numeric",
         "--samples", "100"],
        ["volume", "--polytope", "{square2}", "--vertex", "0,0", "--numeric",
         "--samples", "100"],
        ["chebyshev", "--polytope", "{square2}", "--vertex", "0,0", "--k", "2"],
    ], ids=["growth-numeric", "volume-numeric", "chebyshev-k"])
    def test_evaluating_u_k_enumerates(self, files, capsys, monkeypatch, argv):
        monkeypatch.setattr(pt, "row_points", _refuse_enumeration)
        with pytest.raises(AssertionError, match="enumerated"):
            run_cli([a.format(**files) for a in argv], capsys)

    @pytest.mark.parametrize("command", ["seshadri", "decompose", "growth"])
    @pytest.mark.parametrize("k", [0, 200])
    def test_bad_level_is_the_budget_error(self, files, capsys, command, k):
        with pytest.raises(ValueError) as expected:
            pt.dilate_boxes(pt.box([2, 2, 2]), (k,))
        code, out = run_cli([command, "--polytope", files["cube2"], "--vertex", "0,0,0",
                             "--k", str(k)], capsys)
        assert code == 2
        assert json.loads(out)["error"] == {"type": "ValueError",
                                            "message": str(expected.value)}

    def test_small_level_scans_only_its_own_box(self, files, capsys):
        # the box of 1P fits the budget and the box of 2P does not, so N(1)
        # must come from its own scan, not from the Ehrhart nodes 1, 2, 3
        big = files["tmp"] / "big.json"
        big.write_text(json.dumps(pt.box([120] * 3).to_json_dict()))
        argv = ["growth", "--polytope", str(big), "--vertex", "0,0,0", "--k"]
        code, out = run_cli(argv + ["1"], capsys)
        assert code == 0
        assert json.loads(out)["certificates"]["1"]["witnesses"]["lattice_count"] == 121 ** 3
        code, out = run_cli(argv + ["1,2"], capsys)
        assert code == 2
        assert json.loads(out)["error"] == {
            "type": "ValueError",
            "message": "the bounding box of 2P has 13997521 lattice points, "
                       "above the limit of 2000000"}

    def test_ehrhart_volume_mismatch_exits_1(self, files, capsys, monkeypatch):
        monkeypatch.setattr(pt, "volume", lambda P: F(1))
        code = main(["growth", "--polytope", files["cube2"], "--vertex", "0,0,0", "--k", "4"])
        assert code == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "GrowthLabError" and "Ehrhart" in error["message"]


# One argv per command that makes no float computation.
EXACT_ARGVS = {
    "check-delzant": ["check-delzant", "--polytope", "{trapezoid}"],
    "okounkov": ["okounkov", "--polytope", "{trapezoid}"],
    "corpus": ["corpus", "--k", "1"],
    "chebyshev-polytope": ["chebyshev", "--polytope", "{trapezoid}", "--vertex", "0,0"],
    "chebyshev-fs": ["chebyshev", "--fs-lambda", "3"],
} | {cmd: [cmd, "--polytope", "{trapezoid}", "--vertex", "0,0"]
     for cmd in ("normalize", "growth", "volume", "seshadri", "decompose", "gromov")}

# Run in a fresh interpreter, since this one has numpy and argparse loaded:
# which of numpy, scipy, argparse, dataclasses and inspect `import
# growthlab.cli` loads, main's exit code, and which are loaded after main, on
# the last line of stderr.
MODULE_PROBE = """
import json, sys
import growthlab.cli
watched = ("numpy", "scipy", "argparse", "dataclasses", "inspect")
on_import = [m for m in watched if m in sys.modules]
try:
    code = growthlab.cli.main(json.loads(sys.argv[1]))
except SystemExit as e:  # argparse's usage errors
    code = e.code
after = [m for m in watched if m in sys.modules]
sys.stderr.write("\\n" + json.dumps([on_import, code, after]))
"""


def modules_loaded(argv):
    proc = subprocess.run([sys.executable, "-c", MODULE_PROBE, json.dumps(argv)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stderr.splitlines()[-1])


class TestImportHygiene:
    @pytest.mark.parametrize("argv", list(EXACT_ARGVS.values()), ids=list(EXACT_ARGVS))
    def test_exact_commands_load_no_float_stack(self, files, argv):
        # a well-formed argv is read off the command table, without argparse;
        # the records are plain classes, so neither dataclasses nor inspect loads
        argv = [a.format(**files) for a in argv]
        assert modules_loaded(argv) == [[], 0, []]

    def test_numeric_route_loads_numpy(self, files):
        # the control: the probe sees a float import when there is one
        on_import, code, after = modules_loaded(
            ["growth", "--polytope", files["trapezoid"], "--vertex", "0,0",
             "--numeric", "--samples", "100"])
        assert on_import == [] and code == 0 and "numpy" in after

    def test_usage_error_loads_argparse(self):
        # the control: argparse prints usage errors, and the probe sees it load
        assert modules_loaded(["growth", "--bogus"]) == [[], 2, ["argparse"]]


def parse_outcome(fn, argv, capsys):
    try:
        code = fn(argv)
    except SystemExit as e:
        code = e.code
    out, err = capsys.readouterr()
    return code, out, err


class TestParserEquivalence:
    """main leaves an argv that its table parse declines to the parser of
    its command alone; on argvs that end in argparse it must print and exit
    as the full parser does."""

    @pytest.mark.parametrize("argv", [
        [cmd] + tail for cmd in cli.COMMANDS
        for tail in (["-h"], ["--bogus"], ["--seed"], ["--pol", "x"],
                     # a flag that only another command reads
                     ["--tol", "1"] if cmd == "decompose" else ["--lams", "1"])
    ] + [["bogus"], [], ["-h"]], ids=lambda argv: " ".join(argv) or "empty")
    def test_same_answer_as_the_full_parser(self, argv, capsys, monkeypatch):
        expected = parse_outcome(cli.build_parser().parse_args, argv, capsys)
        built, full = [], cli.build_parser
        monkeypatch.setattr(cli, "build_parser",
                            lambda command=None: built.append(command) or full(command))
        assert parse_outcome(main, argv, capsys) == expected
        assert expected[0] in (0, 2)
        assert built == [argv[0] if argv and argv[0] in cli.COMMANDS else None]


# Values that argparse reads in more than one way: "-"-led ones, which it
# takes as options or as negative numbers, "--", and ones that int() and
# float() take or refuse.
VALUE_POOL = ["-1", "-1,0", "--", "-", "", "=", "a=b", "x", " 5", "1_0", "nan", "1e3"]
ALL_FLAGS = sorted({flag for _, shared, own in cli.COMMANDS.values()
                    for flag in shared + tuple(own)} | {"--seed", "--out"})


@st.composite
def command_argvs(draw):
    """A command, then its flags with a value from the pool after them or
    joined by "=", or alone, and stray flags of any command or values."""
    command = draw(st.sampled_from(list(cli.COMMANDS)))
    _, shared, own = cli.COMMANDS[command]
    flag = st.sampled_from(shared + ("--seed", "--out") + tuple(own))
    value = st.sampled_from(VALUE_POOL)
    tokens = st.one_of(st.tuples(flag, value), st.tuples(flag),
                       st.tuples(st.builds("{}={}".format, flag, value)),
                       st.tuples(st.sampled_from(ALL_FLAGS + VALUE_POOL)))
    return [command] + [t for group in draw(st.lists(tokens, max_size=4)) for t in group]


def argparse_namespace(argv):
    """repr of the dests argparse parses argv into, or its exit code."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return repr(vars(cli.build_parser(argv[0]).parse_args(argv)))
        except SystemExit as e:
            return f"exit {e.code}"


class TestTableParse:
    """main reads a well-formed argv off COMMANDS and SHARED_FLAGS; what it
    reads must be what argparse would have parsed, or it declines."""

    @settings(max_examples=400)
    @given(command_argvs())
    def test_same_namespace_as_argparse(self, argv):
        table = cli._parse_table(argv)
        if table is not None:
            # NaN != NaN, so the namespaces are compared by repr
            assert repr(vars(table)) == argparse_namespace(argv)

    def test_reads_golden_and_edge_argvs(self):
        declined = [argv for _, argv in ARGPARSE_ARGVS]
        read = argvs() + [argv for _, argv in EDGE_ARGVS if argv not in declined]
        assert [argv for argv in read if cli._parse_table(argv) is None] == []
        assert [argv for argv in read
                if repr(vars(cli._parse_table(argv))) != argparse_namespace(argv)] == []
        assert [argv for argv in declined if cli._parse_table(argv) is not None] == []


class TestPruningAvoidsSimplex:
    def test_no_lp_outside_conjugate_values(self, files, capsys, monkeypatch):
        from growthlab import lp

        def refuse(*args):
            raise AssertionError("decompose reached the simplex")

        monkeypatch.setattr(lp, "solve_lp", refuse)
        for name in ("square2", "trapezoid"):
            code, _ = run_cli(["decompose", "--polytope", files[name],
                               "--vertex", "0,0"], capsys)
            assert code == 0


class TestDeterminism:
    def test_byte_identical_reports(self, files, capsys):
        argv = ["growth", "--polytope", files["square2"], "--vertex", "0,0",
                "--numeric", "--samples", "2000", "--seed", "11"]
        _, out1 = run_cli(argv, capsys)
        _, out2 = run_cli(argv, capsys)
        assert out1 == out2

    def test_seed_environment_override(self, files, capsys, monkeypatch):
        monkeypatch.setenv("GROWTHLAB_SEED", "99")
        code, out = run_cli(["volume", "--polytope", files["simplex"],
                             "--vertex", "0,0"], capsys)
        assert code == 0
        assert json.loads(out)["seed"] == 99


class TestCorpus:
    def test_builtin_rows_and_identities(self, capsys):
        code, out = run_cli(["corpus", "--k", "1,2"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["identities_hold"] is True
        names = {r["name"] for r in data["rows"]}
        assert {"simplex1", "simplex2", "simplex3", "interval2", "square2",
                "cube2", "trapezoid"} <= names
        by_name = {}
        for r in data["rows"]:
            by_name.setdefault(r["name"], []).append(r)
        assert len(by_name["square2"]) == 4          # one row per vertex
        assert all(r["volume_MA"] == "8" for r in by_name["square2"])

    def test_bad_entry_isolated(self, files, capsys):
        # only .json files are entries
        (files["tmp"] / "notes.txt").write_text("not json {")
        code, out = run_cli(["corpus", "--k", "1", "--dir",
                             str(files["tmp"])], capsys)
        assert code == 0
        data = json.loads(out)
        assert not any(r["name"] == "notes" for r in data["rows"])
        bad_rows = [r for r in data["rows"] if r["name"] == "bad"]
        good_rows = [r for r in data["rows"] if r["name"] == "square2"]
        assert bad_rows and all("error" in r for r in bad_rows)
        assert good_rows and all("error" not in r for r in good_rows)


class TestSubprocessEntry:
    def test_module_invocation(self, files):
        proc = subprocess.run(
            [sys.executable, "-m", "growthlab", "volume", "--polytope",
             files["simplex"], "--vertex", "0,0"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["volume_MA"] == "1"


def readme_command_lines():
    """The `growthlab ...` lines of README's "Command line" block, with their
    continuation lines joined and comments dropped."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [line.split("#", 1)[0].split() for line in lines if line.startswith("growthlab ")]


class TestReadme:
    @pytest.mark.parametrize("words", readme_command_lines(),
                             ids=lambda words: words[1])
    def test_command_line_block_runs(self, words, files, capsys):
        # every bracketed optional flag is passed, with its example value
        names = {"P.json": files["square2"], "DIR": str(files["tmp"]), "K": "2"}
        argv = []
        for word in words[1:]:
            word = word.strip("[]")
            word = names.get(word, word)
            if word.endswith((".svg", ".csv")):
                word = str(files["tmp"] / word)
            argv.append(word)
        code, _, err = parse_outcome(main, argv, capsys)
        assert code == 0, (argv, err)


# Nothing in the package calls rationals.solve, but perfbench's tracer wraps
# it by name as one of its layers and fails on a missing name.
SURFACE_EXEMPT = {"solve"}


def unreferenced_definitions():
    """Names of the functions, methods and classes defined in growthlab that
    no name or attribute in growthlab's source uses outside their own
    definition; dunder methods are skipped."""
    import ast
    defs, refs = [], {}
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((node.name, path, node.lineno, node.end_lineno))
            elif isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                refs.setdefault(name, []).append((path, node.lineno))
    return sorted({name for name, path, lo, hi in defs
                   if not (name.startswith("__") and name.endswith("__"))
                   and name not in SURFACE_EXEMPT
                   and all(p == path and lo <= line <= hi for p, line in refs.get(name, ()))})


class TestDeadSurface:
    def test_every_definition_is_used(self):
        assert unreferenced_definitions() == []

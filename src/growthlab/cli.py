"""Command-line surface: file I/O, reports, SVG emission, corpus runner.

Exit codes: 0 success, 2 precondition errors (machine-readable error JSON on
stdout), 1 internal errors.  The seed is always recorded in the output; the
GROWTHLAB_SEED environment variable overrides the default.
"""

import argparse
import csv
import json
import os
import sys
from fractions import Fraction

from . import convexfn as cf
from . import corpus as corpus_mod
from . import embed as em
from . import growth as gr
from . import okounkov as ok
from . import polytope as pt
from . import render
from .errors import (
    DegenerateInput,
    DimensionMismatch,
    EmptyInput,
    EmptySupport,
    GrowthLabError,
    GrowthViolation,
    IncomparableFamilies,
    NonpositiveEpsilon,
    NotDelzantVertex,
    NotLatticePolytope,
    NotNormalized,
    UnknownLevel,
)
from .rationals import rat, rat_str

PRECONDITION_ERRORS = (
    GrowthViolation, NotDelzantVertex, NotLatticePolytope, NotNormalized,
    DegenerateInput, DimensionMismatch, IncomparableFamilies, EmptySupport,
    EmptyInput, UnknownLevel, NonpositiveEpsilon, OSError,
    json.JSONDecodeError, ValueError,
)

DEFAULT_SAMPLES = 10 ** 5
DEFAULT_TOL = Fraction(1, 2 ** 40)

# Flags that several subcommands read; each subcommand takes only the ones
# it reads.  Every subcommand takes --seed and --out, which _emit reads.
SHARED_FLAGS = {
    "--polytope": {}, "--vertex": {}, "--k": {"default": "1,2,4"},
    "--numeric": {"action": "store_true"},
    "--samples": {"type": int, "default": DEFAULT_SAMPLES},
    "--svg": {}, "--seed": {"type": int}, "--out": {},
}


def _emit(args, obj):
    if isinstance(obj, dict) and "seed" not in obj:
        obj = dict(obj, seed=_seed(args))
    text = json.dumps(obj, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_polytope(path, svg=None):
    """The polytope at path; a ValueError if --svg is set and it is not 2-d."""
    if path is None:
        raise ValueError("--polytope is required")
    with open(path) as fh:
        P = pt.Polytope.from_json_dict(json.load(fh))
    if svg and P.ambient_dim != 2:
        raise ValueError(f"--svg draws 2-d polytopes, not {P.ambient_dim}-d ones")
    return P


def _parse_vertex(s):
    return tuple(rat(part) for part in s.split(","))


def _parse_klist(s):
    return tuple(int(part) for part in s.split(","))


def _seed(args):
    env = os.environ.get("GROWTHLAB_SEED")
    if args.seed is not None:
        return args.seed
    if env is not None:
        return int(env)
    return 0


def _svg_out(path, layers):
    with open(path, "w") as fh:
        fh.write(render.polygons_svg(layers) + "\n")


def _simplex_overlay(P, lam):
    S = pt.standard_simplex(2).scaled(lam)
    return [{"points": render.polygon_cycle(P), "stroke": "#1f3b70",
             "fill": "#9db8e8", "label": "polytope"},
            {"points": render.polygon_cycle(S), "stroke": "#a03030",
             "fill": "#e8a0a0", "label": f"{rat_str(lam)} simplex"}]


def cmd_check_delzant(args):
    P = _load_polytope(args.polytope)
    report = pt.is_delzant(P)
    _emit(args, report.to_json_dict())
    return 0


def cmd_normalize(args):
    P = _load_polytope(args.polytope)
    Q, umap = pt.normalize_at_vertex(P, _parse_vertex(args.vertex))
    _emit(args, {"polytope": Q.to_json_dict(),
                 "normalization": umap.to_json_dict()})
    return 0


def _build(args):
    P = _load_polytope(args.polytope, getattr(args, "svg", None))
    return gr.build_growth_condition(P, _parse_vertex(args.vertex),
                                     _parse_klist(args.k))


def cmd_growth(args):
    gc = _build(args)
    seed = _seed(args)
    report = gr.growth_report(gc, name=os.path.basename(args.polytope),
                              numeric=args.numeric, samples=args.samples,
                              seed=seed)
    out = report.to_json_dict()
    out["seed"] = seed
    if args.svg:
        _svg_out(args.svg, _simplex_overlay(gc.polytope, report.seshadri.lp_value))
    _emit(args, out)
    return 0


def cmd_volume(args):
    gc = _build(args)
    seed = _seed(args)
    out = {"volume_MA": rat_str(gr.monge_ampere_volume(gc)),
           "volume_polytope": rat_str(pt.volume(gc.polytope)),
           "seed": seed}
    if args.numeric:
        mc = gr.monge_ampere_volume_numeric(gc, k=max(gc.approximants),
                                            samples=args.samples, seed=seed)
        out["volume_MA_numeric"] = mc.to_json_dict()
    _emit(args, out)
    return 0


def cmd_seshadri(args):
    gc = _build(args)
    tol = rat(args.tol) if args.tol else DEFAULT_TOL
    ses = gr.seshadri_constant(gc, tol=tol)
    if args.svg:
        _svg_out(args.svg, _simplex_overlay(gc.polytope, ses.lp_value))
    _emit(args, {"seshadri": ses.to_json_dict(), "seed": _seed(args),
                 "tolerance": rat_str(tol)})
    return 0


def cmd_decompose(args):
    gc = _build(args)
    lams = None
    if args.lams:
        lams = [rat(x) for x in args.lams.split(",")]
    comps = gr.decompose(gc, lams)
    out = {}
    for lam, comp in sorted(comps.items()):
        out[rat_str(lam)] = (None if comp is None else comp.to_json_dict())
    _emit(args, {"components": out, "c_max": rat_str(gc.c_max)})
    return 0


def cmd_okounkov(args):
    P = _load_polytope(args.polytope, args.svg)
    order = ok.MonomialOrder(args.order,
                             tuple(int(i) for i in args.perm.split(","))
                             if args.perm else None)
    series = ok.GradedMonomialSeries.toric(P, args.k_max)
    body = ok.okounkov_body(series, order)
    out = body.to_json_dict()
    if body.limit is not None:
        out["seshadri_from_body"] = rat_str(ok.seshadri_from_body(body.limit))
        out["infinitesimal_image"] = ok.infinitesimal_map(body.limit) \
            .to_json_dict(with_facets=False)
    if args.svg and body.limit is not None:
        layers = [{"points": render.polygon_cycle(body.limit),
                   "stroke": "#1f3b70", "fill": "#9db8e8", "label": "body"},
                  {"points": render.polygon_cycle(ok.infinitesimal_map(body.limit)),
                   "stroke": "#2e7d32", "fill": "#a5d6a7", "label": "flag image"}]
        _svg_out(args.svg, layers)
    _emit(args, out)
    return 0


def cmd_chebyshev(args):
    if args.fs_lambda:
        u = cf.SmoothToricPotential.fubini_study(rat(args.fs_lambda), dim=args.dim)
    else:
        P = _load_polytope(args.polytope)
        if args.vertex:
            P, _ = pt.normalize_at_vertex(P, _parse_vertex(args.vertex))
        if args.k is not None:
            u = cf.logsumexp_from_polytope(P, args.k)
        else:
            u = cf.MaxAffineFunction.support_function(P)
    tr = ok.chebyshev_transform(u)
    dom = tr.domain
    bary = tuple(sum(col) / len(dom.vertices) for col in zip(*dom.vertices))
    points = [bary] + [tuple((b + v) / 2 for b, v in zip(bary, vtx))
                       for vtx in dom.vertices]
    values = []
    for p in points:
        val = tr(p)
        values.append({"point": [rat_str(c) for c in p],
                       "value": rat_str(val) if isinstance(val, Fraction)
                       else float(val)})
    out = {"kind": tr.kind, "domain": dom.to_json_dict(with_facets=False),
           "values": values}
    if tr.certificate is not None:
        out["certificate"] = {"lower": tr.certificate[0], "upper": tr.certificate[1]}
    _emit(args, out)
    return 0


def cmd_embed_ball(args):
    gc = _build(args)
    seed = _seed(args)
    if args.fs_lambda is None:
        raise ValueError("embed-ball requires --fs-lambda")
    source = cf.SmoothToricPotential.fubini_study(rat(args.fs_lambda), dim=gc.dim)
    glued = em.fit_ball(gc, source, args.R, epsilon=args.epsilon,
                        samples=args.samples, seed=seed)
    out = glued.certificate.to_json_dict()
    out["seed"] = seed
    if args.profile:
        rows = em.radial_profile(glued)
        with open(args.profile, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
    _emit(args, out)
    return 0


def cmd_gromov(args):
    gc = _build(args)
    _emit(args, em.gromov_lower_bound(gc).to_json_dict())
    return 0


def cmd_corpus(args):
    entries = corpus_mod.builtin_corpus()
    if args.dir:
        entries = entries + corpus_mod.load_user_corpus(args.dir)
    rows = corpus_mod.corpus_rows(entries, _parse_klist(args.k))
    _emit(args, {"rows": [r.to_json_dict() for r in rows],
                 "identities_hold": all(corpus_mod.corpus_identities_hold(r)
                                        for r in rows if r.error is None)})
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="growthlab", allow_abbrev=False)
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, fn, *flags):
        sp = sub.add_parser(name, allow_abbrev=False)
        for flag in flags + ("--seed", "--out"):
            sp.add_argument(flag, **SHARED_FLAGS[flag])
        sp.set_defaults(fn=fn)
        return sp

    build = ("--polytope", "--vertex", "--k")  # what _build reads
    command("check-delzant", cmd_check_delzant, "--polytope")
    command("normalize", cmd_normalize, "--polytope", "--vertex")
    command("growth", cmd_growth, *build, "--numeric", "--samples", "--svg")
    command("volume", cmd_volume, *build, "--numeric", "--samples")
    command("seshadri", cmd_seshadri, *build, "--svg").add_argument("--tol")
    command("decompose", cmd_decompose, *build).add_argument("--lams")

    sp = command("okounkov", cmd_okounkov, "--polytope", "--svg")
    sp.add_argument("--k-max", type=int, default=3)
    sp.add_argument("--order", default="deglex", choices=("deglex", "lex"))
    sp.add_argument("--perm")

    sp = command("chebyshev", cmd_chebyshev, "--polytope", "--vertex")
    sp.add_argument("--k", type=int)
    sp.add_argument("--fs-lambda")
    sp.add_argument("--dim", type=int, default=2)

    sp = command("embed-ball", cmd_embed_ball, *build)
    sp.add_argument("--samples", type=int, default=1000)
    sp.add_argument("--fs-lambda")
    sp.add_argument("--R", type=float, default=10.0)
    sp.add_argument("--epsilon", type=float, default=0.25)
    sp.add_argument("--profile")

    command("gromov", cmd_gromov, *build)
    command("corpus", cmd_corpus, "--k").add_argument("--dir")
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "chebyshev":
            if not args.fs_lambda and not args.polytope:
                raise ValueError("chebyshev needs --polytope or --fs-lambda")
        if getattr(args, "vertex", None) is None and args.command in (
                "normalize", "growth", "volume", "seshadri", "decompose",
                "embed-ball", "gromov"):
            raise ValueError(f"{args.command} requires --vertex")
        return args.fn(args)
    except PRECONDITION_ERRORS as e:
        payload = {"error": {"type": type(e).__name__, "message": str(e)}}
        if isinstance(e, GrowthViolation):
            if e.vertex is not None:
                payload["error"]["vertex"] = [rat_str(x) for x in e.vertex]
            if e.facet is not None:
                payload["error"]["facet"] = e.facet.to_json_dict()
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 2
    except GrowthLabError as e:
        print(json.dumps({"error": {"type": type(e).__name__,
                                    "message": str(e)}}, indent=2,
                         sort_keys=True), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

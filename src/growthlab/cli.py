"""Command-line surface: file I/O, reports, SVG emission, corpus runner.

Exit codes: 0 success, 2 precondition errors (machine-readable error JSON on
stdout), 1 internal errors.  The seed is always recorded in the output; the
GROWTHLAB_SEED environment variable overrides the default.  growthlab's
modules import numpy and scipy inside their float routes only, so the exact
commands start without them.

`main` reads a well-formed argv off COMMANDS and SHARED_FLAGS: exact flags,
each value after its flag or as --flag=value, none of them led by "-".  Any
other argv goes to argparse, which prints help, usage and errors, so a
well-formed command never imports it.
"""

import csv
import json
import os
import sys
import types
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
    NonpositiveEpsilon,
    NotDelzantVertex,
    NotLatticePolytope,
    NotNormalized,
)
from .rationals import rat, rat_str

PRECONDITION_ERRORS = (
    GrowthViolation, NotDelzantVertex, NotLatticePolytope, NotNormalized,
    DegenerateInput, DimensionMismatch, EmptySupport,
    EmptyInput, NonpositiveEpsilon, OSError,
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
    # a NaN or an infinity raises ValueError: neither is JSON (RFC 8259)
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
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
    report = gr.growth_report(gc, name=os.path.basename(args.polytope),
                              numeric=args.numeric, samples=args.samples,
                              seed=_seed(args))
    if args.svg:
        _svg_out(args.svg, _simplex_overlay(gc.polytope, pt.simplex_inclusion(gc.polytope)))
    _emit(args, report)
    return 0


def cmd_volume(args):
    gc = _build(args)
    out = {"volume_MA": rat_str(gr.monge_ampere_volume(gc)),
           "volume_polytope": rat_str(pt.volume(gc.polytope))}
    if args.numeric:
        u = cf.logsumexp_from_polytope(gc.polytope, gc.k_levels[-1])
        out["volume_MA_numeric"] = gr.monge_ampere_volume_numeric(u, samples=args.samples,
                                                                  seed=_seed(args))
    _emit(args, out)
    return 0


def cmd_seshadri(args):
    gc = _build(args)
    tol = rat(args.tol) if args.tol else DEFAULT_TOL
    ses = gr.seshadri_constant(gc, tol=tol)
    if args.svg:
        _svg_out(args.svg, _simplex_overlay(gc.polytope, ses.lp_value))
    _emit(args, {"seshadri": ses.to_json_dict(), "tolerance": rat_str(tol)})
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
    body = ok.okounkov_body(ok.GradedMonomialSeries.toric(P, args.k_max))
    out = body.to_json_dict()
    if body.limit is not None:
        out["seshadri_from_body"] = rat_str(pt.simplex_inclusion(body.limit))
        out["infinitesimal_image"] = ok.infinitesimal_map(body.limit) \
            .to_json_dict(with_facets=False)
    if args.svg:
        if body.limit is None:
            raise ValueError("--svg draws the limit body; the levels up to "
                             "--k-max disagree, so there is none")
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
    source = cf.SmoothToricPotential.fubini_study(rat(args.fs_lambda), dim=gc.dim)
    glued = em.fit_ball(gc, source, args.R, epsilon=args.epsilon,
                        samples=args.samples, seed=seed)
    if args.profile:
        rows = em.radial_profile(glued)
        with open(args.profile, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
    _emit(args, glued.certificate.to_json_dict())
    return 0


def cmd_gromov(args):
    gc = _build(args)
    _emit(args, em.gromov_lower_bound(gc))
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


BUILD = ("--polytope", "--vertex", "--k")  # what _build reads

# name -> (handler, shared flags it reads, its own flags), in usage order
COMMANDS = {
    "check-delzant": (cmd_check_delzant, ("--polytope",), {}),
    "normalize": (cmd_normalize, ("--polytope", "--vertex"), {}),
    "growth": (cmd_growth, BUILD + ("--numeric", "--samples", "--svg"), {}),
    "volume": (cmd_volume, BUILD + ("--numeric", "--samples"), {}),
    "seshadri": (cmd_seshadri, BUILD + ("--svg",), {"--tol": {}}),
    "decompose": (cmd_decompose, BUILD, {"--lams": {}}),
    "okounkov": (cmd_okounkov, ("--polytope", "--svg"),
                 {"--k-max": {"type": int, "default": 3}}),
    "chebyshev": (cmd_chebyshev, ("--polytope", "--vertex"), {
        "--k": {"type": int}, "--fs-lambda": {}, "--dim": {"type": int, "default": 2}}),
    "embed-ball": (cmd_embed_ball, BUILD, {
        "--samples": {"type": int, "default": 1000}, "--fs-lambda": {},
        "--R": {"type": float, "default": 10.0},
        "--epsilon": {"type": float, "default": 0.25}, "--profile": {}}),
    "gromov": (cmd_gromov, BUILD, {}),
    "corpus": (cmd_corpus, ("--k",), {"--dir": {}}),
}


def build_parser(command=None):
    """The parser of every subcommand, or of `command` alone.  The one-command
    parser lists every name in its usage, so both print the same usage and
    errors for an argv that starts with `command`.  main builds one only for
    an argv that _parse_table declines."""
    import argparse
    p = argparse.ArgumentParser(prog="growthlab", allow_abbrev=False)
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = p.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in COMMANDS if command is None else (command,):
        fn, shared, own = COMMANDS[name]
        sp = sub.add_parser(name, allow_abbrev=False)
        for flag in shared + ("--seed", "--out"):
            sp.add_argument(flag, **SHARED_FLAGS[flag])
        for flag, kwargs in own.items():
            sp.add_argument(flag, **kwargs)
        sp.set_defaults(fn=fn)
    return p


def _parse_table(argv):
    """The attributes build_parser(argv[0]).parse_args(argv) sets, in its
    order, for an argv of a command and its exact flags whose values parse
    and start with no "-"; else None.  argparse reads a "-"-led value as an
    option unless it looks like a negative number, and Python 3.10 to 3.12
    read --out=-- as [], so such an argv is left to it."""
    if not argv or argv[0] not in COMMANDS:
        return None
    fn, shared, own = COMMANDS[argv[0]]
    flags = {flag: SHARED_FLAGS[flag] for flag in shared + ("--seed", "--out")} | own
    values = {flag: False if kwargs.get("action") == "store_true" else kwargs.get("default")
              for flag, kwargs in flags.items()}
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=")
        kwargs = flags.get(flag)
        if kwargs is None:
            return None
        if kwargs.get("action") == "store_true":
            if eq:
                return None
            values[flag] = True
            continue
        if not eq:
            value = next(tokens, None)
            if value is None:
                return None
        if value.startswith("-"):
            return None
        try:
            values[flag] = kwargs.get("type", str)(value)
        except (TypeError, ValueError):  # argparse prints "invalid int value"
            return None
    return types.SimpleNamespace(
        command=argv[0], **{flag[2:].replace("-", "_"): v for flag, v in values.items()},
        fn=fn)


def main(argv=None):
    """Parse argv, run its command and return the exit code.  An argv that
    _parse_table declines, such as -h, an empty argv, an unknown command or
    flag, or a "-"-led value, goes to argparse, which prints and exits as the
    full parser does."""
    argv = sys.argv[1:] if argv is None else argv
    args = _parse_table(argv)
    if args is None:
        # -h, an empty argv and an unknown command need the full parser
        command = argv[0] if argv and argv[0] in COMMANDS else None
        args = build_parser(command).parse_args(argv)
    try:
        code = _run(args)
        sys.stdout.flush()  # a reader that is gone shows here at the latest
        return code
    except BrokenPipeError as e:
        # point stdout at os.devnull, so that the interpreter's last flush of
        # the unwritten report does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(_error_json(e), file=sys.stderr)
        return 2


def _error_json(e, **extra):
    return json.dumps({"error": {"type": type(e).__name__, "message": str(e), **extra}},
                      indent=2, sort_keys=True)


def _run(args):
    """The command's exit code: 2 with error JSON on stdout for a
    precondition error, 1 with error JSON on stderr for an internal one."""
    try:
        if args.command == "chebyshev":
            if not args.fs_lambda and not args.polytope:
                raise ValueError("chebyshev needs --polytope or --fs-lambda")
        if getattr(args, "vertex", None) is None and args.command in (
                "normalize", "growth", "volume", "seshadri", "decompose",
                "embed-ball", "gromov"):
            raise ValueError(f"{args.command} requires --vertex")
        if args.command == "embed-ball" and args.fs_lambda is None:
            raise ValueError("embed-ball requires --fs-lambda")
        return args.fn(args)
    except PRECONDITION_ERRORS as e:
        extra = {}
        if isinstance(e, GrowthViolation):
            if e.vertex is not None:
                extra["vertex"] = [rat_str(x) for x in e.vertex]
            if e.facet is not None:
                extra["facet"] = e.facet.to_json_dict()
        print(_error_json(e, **extra))
        return 2
    except GrowthLabError as e:
        print(_error_json(e), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

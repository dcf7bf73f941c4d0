"""The four workloads: seeded sequences of CLI argument lists, each job with
its closed-form output check.

A workload is a fixed design of (job kind, shape size) entries, run in
rounds that hold every entry once, each round in its own seeded order.  The
seed picks the order, the coordinate order, the unimodular embedding, the
translation, the vertex and the Monte-Carlo seed; the sizes stay fixed so
that runs on different seeds do the same amount of work, and a run measures
whole rounds so that every entry weighs the same in its figures.
"""

import math
import os
import random
from fractions import Fraction

from shapes import (box, embed, permuted, polytope_json, prism, simplex,
                    trapezoid, vertex_arg)

# Rounds per traced run: the first rounds of the sequence, so per-layer
# counts repeat exactly for a seed.
TRACE_ROUNDS = {"growth": 2, "bodies": 2, "numeric": 2, "corpus": 1}

# Costs are spread so that the median and the tail each fall among several
# entries of similar cost, not on a gap between two.
GROWTH_SHAPES = [box((1, 1, 2)), simplex(3, 2), box((1, 1, 3)), prism(2, 1, 1, 1),
                 prism(1, 1, 1, 2), box((1, 2, 2)), prism(2, 1, 2, 1),
                 box((1, 2, 3)), box((2, 2, 2)), box((1, 3, 3))]
BODY_SHAPES = [box((2, 3)), simplex(2, 3), trapezoid(1, 2, 1), trapezoid(2, 1, 2),
               box((1, 2, 2)), simplex(3, 2), prism(1, 1, 1, 1), prism(1, 1, 2, 2)]
NUMERIC_SHAPES = [box((1, 2)), simplex(2, 3), trapezoid(1, 2, 1),
                  box((1, 2, 2)), simplex(3, 2), prism(1, 1, 1, 2)]
CORPUS_SHAPES = [box((1, 2)), simplex(2, 2), trapezoid(1, 1, 2), simplex(3, 1)]

K_GROWTH = (1, 2, 4, 8)
K_MAX_BODY = {2: 4, 3: 3}
MC_SAMPLES = 100000
# Relative error allowed for the Monte-Carlo volume: the hull of 10^5
# gradient samples on a radius-50 ball misses the polytope's corners by far
# less than this.
MC_REL_TOL = 1e-3
EMBED_SAMPLES = 10000
# Slack for the numeric Chebyshev maximization against its certificate.
CHEB_SLACK = 1e-9


class Job:
    """One CLI call; `check` maps the parsed JSON report to a list of
    failure messages, empty when the output matches its references."""

    def __init__(self, kind, argv, check):
        self.kind = kind
        self.argv = argv
        self.check = check


def rounds(name, seed, workdir):
    """Endless sequence of rounds of the design, each a list of jobs whose
    input files are written under workdir when the round is made."""
    os.makedirs(workdir, exist_ok=True)
    rng = random.Random(f"{name}:{seed}")
    design = DESIGNS[name]
    count = 0
    while True:
        jobs = []
        for kind, shape in rng.sample(design, len(design)):
            stem = os.path.join(workdir, f"{count:05d}")
            count += 1
            if shape is not None:
                shape = _random_perm(rng, shape)
            argv, check = _MAKERS[kind](rng, stem, shape)
            jobs.append(Job(kind, argv, check))
        yield jobs


def _random_perm(rng, shape):
    perm = list(range(shape.dim))
    rng.shuffle(perm)
    return permuted(shape, perm)


def _write(path, vertices):
    with open(path, "w") as fh:
        fh.write(polytope_json(vertices) + "\n")
    return path


def _growth_job(rng, stem, shape):
    e = embed(rng, shape)
    path = _write(stem + ".json", e.vertices)
    argv = ["growth", "--polytope", path, vertex_arg(e.vertex),
            "--k", ",".join(map(str, K_GROWTH))]

    def check(out):
        errs = _exact_checks(out, shape, e.base_vertex)
        for k in K_GROWTH:
            got = out["certificates"][str(k)]["witnesses"]["lattice_count"]
            if got != shape.lattice_count(k):
                errs.append(f"lattice_count k={k}: {got} != {shape.lattice_count(k)}")
        return errs

    return argv, check


def _okounkov_job(rng, stem, shape):
    path = _write(stem + ".json", shape.vertices)
    argv = ["okounkov", "--polytope", path, "--k-max", str(K_MAX_BODY[shape.dim])]

    def check(out):
        errs = []
        limit = sorted(tuple(int(c) for c in v) for v in out["limit"]["vertices"])
        if limit != list(shape.vertices):
            errs.append(f"limit {limit} != input {shape.vertices}")
        ses = shape.seshadri((0,) * shape.dim)
        if Fraction(out["seshadri_from_body"]) != ses:
            errs.append(f"seshadri_from_body {out['seshadri_from_body']} != {ses}")
        return errs

    return argv, check


def _decompose_job(rng, stem, shape):
    e = embed(rng, shape)
    path = _write(stem + ".json", e.vertices)
    argv = ["decompose", "--polytope", path, vertex_arg(e.vertex), "--k", "1"]

    def check(out):
        sums = shape.normalized_sums(e.base_vertex)
        errs = []
        if Fraction(out["c_max"]) != max(sums):
            errs.append(f"c_max {out['c_max']} != {max(sums)}")
        if sorted(Fraction(lam) for lam in out["components"]) != sums:
            errs.append(f"levels {sorted(out['components'])} != {sums}")
        if any(comp is None for comp in out["components"].values()):
            errs.append("empty component at a vertex level")
        return errs

    return argv, check


def _volume_job(rng, stem, shape):
    e = embed(rng, shape)
    path = _write(stem + ".json", e.vertices)
    argv = ["volume", "--polytope", path, vertex_arg(e.vertex), "--k", "2",
            "--numeric", "--samples", str(MC_SAMPLES),
            "--seed", str(rng.randrange(2 ** 31))]

    def check(out):
        errs = _volume_checks(out, shape)
        exact = float(math.factorial(shape.dim) * shape.volume)
        got = out["volume_MA_numeric"]["value"]
        if abs(got - exact) > MC_REL_TOL * exact:
            errs.append(f"Monte-Carlo volume {got} vs {exact}")
        return errs

    return argv, check


def _embed_job(rng, stem, shape):
    e = embed(rng, shape)
    path = _write(stem + ".json", e.vertices)
    lam = shape.seshadri(e.base_vertex) / 2
    argv = ["embed-ball", "--polytope", path, vertex_arg(e.vertex), "--k", "1",
            "--R", "10", "--samples", str(EMBED_SAMPLES), "--fs-lambda", str(lam),
            "--seed", str(rng.randrange(2 ** 31))]

    def check(out):
        return [] if out["passing"] is True else ["gluing certificate fails"]

    return argv, check


def _chebyshev_job(rng, stem, shape):
    e = embed(rng, shape)
    path = _write(stem + ".json", e.vertices)
    argv = ["chebyshev", "--polytope", path, vertex_arg(e.vertex), "--k", "2"]

    def check(out):
        lower, upper = out["certificate"]["lower"], out["certificate"]["upper"]
        errs = []
        width = math.log(shape.lattice_count(2)) / 2
        if not math.isclose(lower, -width, rel_tol=1e-12) or upper != 0.0:
            errs.append(f"certificate [{lower}, {upper}] != [-{width}, 0]")
        for v in out["values"]:
            if not lower - CHEB_SLACK <= v["value"] <= upper + CHEB_SLACK:
                errs.append(f"value {v['value']} outside [{lower}, {upper}]")
        return errs

    return argv, check


def _corpus_job(rng, stem, _shape):
    os.makedirs(stem)
    expected = {}
    for j, base in enumerate(CORPUS_SHAPES):
        shape = _random_perm(rng, base)
        e = embed(rng, shape)
        name = f"user{j}"
        _write(os.path.join(stem, name + ".json"), e.vertices)
        for b in shape.vertices:
            expected[(name, tuple(map(str, e.apply(b))))] = (
                math.factorial(shape.dim) * shape.volume, shape.seshadri(b))
    argv = ["corpus", "--dir", stem, "--k", "1,2,4"]

    def check(out):
        errs = []
        if out["identities_hold"] is not True:
            errs.append("identities_hold is not true")
        errs += [f"row error {r['name']}: {r['error']}"
                 for r in out["rows"] if "error" in r]
        seen = {}
        for r in out["rows"]:
            key = (r["name"], tuple(r["vertex"]))
            if key in expected and "error" not in r:
                seen[key] = (Fraction(r["volume_MA"]), Fraction(r["seshadri_lp"]))
        if seen != expected:
            errs.append("seeded rows differ from their references")
        return errs

    return argv, check


def _exact_checks(out, shape, v):
    errs = _volume_checks(out, shape)
    ses = shape.seshadri(v)
    for route in ("lp", "domination"):
        if Fraction(out["seshadri"][route]) != ses:
            errs.append(f"seshadri.{route} {out['seshadri'][route]} != {ses}")
    return errs


def _volume_checks(out, shape):
    errs = []
    if Fraction(out["volume_polytope"]) != shape.volume:
        errs.append(f"volume_polytope {out['volume_polytope']} != {shape.volume}")
    vol_ma = math.factorial(shape.dim) * shape.volume
    if Fraction(out["volume_MA"]) != vol_ma:
        errs.append(f"volume_MA {out['volume_MA']} != {vol_ma}")
    return errs


_MAKERS = {"growth": _growth_job, "okounkov": _okounkov_job,
           "decompose": _decompose_job, "volume": _volume_job,
           "embed-ball": _embed_job, "chebyshev": _chebyshev_job,
           "corpus": _corpus_job}

# (job kind, base shape) entries; a workload runs rounds of its design, each
# round in seeded order.
DESIGNS = {
    "growth": [("growth", s) for s in GROWTH_SHAPES],
    "bodies": [(kind, s) for s in BODY_SHAPES
               for kind in ("okounkov", "decompose")],
    "numeric": [(kind, s) for s in NUMERIC_SHAPES
                for kind in ("volume", "embed-ball", "chebyshev")],
    "corpus": [("corpus", None)],
}
NAMES = tuple(DESIGNS)

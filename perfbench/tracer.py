"""Outside-in spans around the public functions of growthlab's modules.

`installed(tracer)` rebinds every listed function in every growthlab module
that holds it (``polytope.solve`` is ``rationals.solve``), and methods and
classmethods on their class, then restores the originals.  Spans (layer,
start, end, parent) stay in memory; `summary()` turns them into per-layer
metrics and `write()` saves them.  Per-element helpers such as ``rationals.dot``, ``vsub``, ``rat``
and ``HalfSpace.value`` are left alone: they run 10^5-10^6 times a job and a
wrapper's cost would swamp them.
"""

import contextlib
import functools
import json
import math
import os
import sys
import time


def _lattice_counts(args, kwargs, result):
    P = args[0]
    if not P.vertices:
        return {"box_points": 0, "points_out": len(result)}
    k = int(kwargs.get("k", args[1] if len(args) > 1 else 1))
    box = 1
    for c in range(P.ambient_dim):
        vals = [k * v[c] for v in P.vertices]
        box *= max(0, math.floor(max(vals)) - math.ceil(min(vals)) + 1)
    return {"box_points": box, "points_out": len(result)}


def _hull_counts(args, kwargs, result):
    return {"points_in": len(args[1]), "vertices_out": len(result.vertices)}


def _lp_counts(args, kwargs, result):
    return {"infeasible": int(result[0] == "infeasible")}


def _rows(args, kwargs, result):
    return {"rows": len(args[1])}


def _corpus_counts(args, kwargs, result):
    return {"rows": len(result)}


# (metric prefix, object path inside growthlab, stats, counter function)
LAYERS = [
    ("polytope.lattice_points", "polytope.lattice_points",
     ("self_s", "calls", "box_points", "points_out", "kept_ratio"), _lattice_counts),
    ("polytope.from_points", "polytope.Polytope.from_points",
     ("self_s", "calls", "points_in", "vertices_out", "vertex_ratio"), _hull_counts),
    ("rationals.solve", "rationals.solve", ("calls", "self_s"), None),
    ("rationals.rank", "rationals.rank", ("calls", "self_s"), None),
    ("rationals.det", "rationals.det", ("calls", "self_s"), None),
    ("lp.solve_lp", "lp.solve_lp", ("self_s", "calls", "infeasible"), _lp_counts),
    ("lp.envelope_min", "lp.envelope_min", ("self_s", "calls"), None),
    ("polytope.volume", "polytope.volume", ("self_s",), None),
    ("polytope.is_delzant", "polytope.is_delzant", ("self_s",), None),
    ("polytope.normalize_at_vertex", "polytope.normalize_at_vertex", ("self_s",), None),
    ("convexfn.logsumexp_from_polytope", "convexfn.logsumexp_from_polytope",
     ("total_s",), None),
    ("convexfn.sup_difference", "convexfn.sup_difference", ("self_s",), None),
    ("convexfn.radial_component", "convexfn.radial_component", ("self_s",), None),
    ("growth.build_growth_condition", "growth.build_growth_condition",
     ("total_s",), None),
    ("growth.seshadri_constant", "growth.seshadri_constant", ("self_s",), None),
    ("growth.decompose", "growth.decompose", ("total_s",), None),
    ("convexfn.SmoothToricPotential.grad_many",
     "convexfn.SmoothToricPotential.grad_many", ("self_s", "rows"), _rows),
    ("convexfn.SmoothToricPotential.value_many",
     "convexfn.SmoothToricPotential.value_many", ("self_s", "rows"), _rows),
    ("convexfn.MaxAffineFunction.eval_many", "convexfn.MaxAffineFunction.eval_many",
     ("self_s",), None),
    ("growth.monge_ampere_volume_numeric", "growth.monge_ampere_volume_numeric",
     ("self_s",), None),
    ("embed.fit_ball", "embed.fit_ball", ("self_s", "calls"), None),
    ("okounkov.ChebyshevTransform.__call__", "okounkov.ChebyshevTransform.__call__",
     ("self_s", "calls"), None),
    ("corpus.corpus_rows", "corpus.corpus_rows", ("total_s", "rows"), _corpus_counts),
    ("okounkov.okounkov_body", "okounkov.okounkov_body", ("total_s",), None),
    ("okounkov.volume_identity_check", "okounkov.volume_identity_check",
     ("total_s",), None),
    ("cli.main", "cli.main", ("self_s", "total_s"), None),
    ("cli._emit", "cli._emit", ("self_s",), None),
    ("cli._load_polytope", "cli._load_polytope", ("total_s",), None),
]

# Ratios reported beside the counts they are made of.
RATIOS = {"kept_ratio": ("points_out", "box_points"),
          "vertex_ratio": ("vertices_out", "points_in")}

UNITS = {"self_s": "s", "total_s": "s", "kept_ratio": "ratio",
         "vertex_ratio": "ratio"}


def metric_names():
    """Every per-layer metric name with its unit, in report order."""
    names = [(f"{prefix}.{stat}", UNITS.get(stat, "count"))
             for prefix, _, stats, _ in LAYERS for stat in stats]
    return names + [("trace_time_ratio", "ratio")]


class Tracer:
    def __init__(self):
        self.spans = []      # (layer index, start, end, parent span index)
        self.counts = [dict() for _ in LAYERS]
        self._stack = []

    def wrap(self, index, fn):
        counter = LAYERS[index][3]
        spans, stack, counts = self.spans, self._stack, self.counts[index]
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            me = len(spans)
            spans.append(None)
            stack.append(me)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[me] = (index, start, end, stack[-1] if stack else -1)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    counts[key] = counts.get(key, 0) + value
            return result

        return traced

    def summary(self):
        """Per-layer metrics from the recorded spans: calls, self time (a
        span minus its wrapped children), total time (spans with no
        ancestor of the same layer) and the counters."""
        n = len(LAYERS)
        calls, self_s, total_s = [0] * n, [0.0] * n, [0.0] * n
        spans = self.spans
        for index, start, end, parent in spans:
            dur = end - start
            calls[index] += 1
            self_s[index] += dur
            if parent >= 0:
                self_s[spans[parent][0]] -= dur
            p = parent
            while p >= 0 and spans[p][0] != index:
                p = spans[p][3]
            if p < 0:
                total_s[index] += dur
        out = {}
        for i, (prefix, _, stats, _) in enumerate(LAYERS):
            values = dict(self.counts[i], calls=calls[i], self_s=self_s[i],
                          total_s=total_s[i])
            for ratio, (num, den) in RATIOS.items():
                values[ratio] = values[num] / values[den] if values.get(den) else 0.0
            for stat in stats:
                out[f"{prefix}.{stat}"] = values.get(stat, 0)
        return out

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for index, start, end, parent in self.spans:
                fh.write(json.dumps([LAYERS[index][0], start, end, parent]) + "\n")


def _growthlab_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "growthlab" or name.startswith("growthlab."))]


def _resolve(path):
    module, *attrs = path.split(".")
    owner = sys.modules["growthlab." + module]
    for attr in attrs[:-1]:
        owner = getattr(owner, attr)
    return owner, attrs[-1]


@contextlib.contextmanager
def installed(tracer):
    """Wrap every layer of LAYERS for the duration of the block."""
    undo = []
    modules = _growthlab_modules()
    try:
        for index, (_, path, _, _) in enumerate(LAYERS):
            owner, attr = _resolve(path)
            raw = owner.__dict__[attr]
            if isinstance(owner, type):
                if isinstance(raw, classmethod):
                    wrapped = classmethod(tracer.wrap(index, raw.__func__))
                else:
                    wrapped = tracer.wrap(index, raw)
                setattr(owner, attr, wrapped)
                undo.append((owner, attr, raw))
                continue
            wrapped = tracer.wrap(index, raw)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is raw:
                        setattr(m, name, wrapped)
                        undo.append((m, name, raw))
        yield
    finally:
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)

"""One benchmark run in a fresh interpreter.

    python3 perfbench/worker.py ROOT WORKLOAD SEED SECONDS MODE WORKDIR RESULT

MODE is `setup` (set up and stop), `run` (the untraced measurement),
`trace` (an untraced and a traced run of each of the same fixed jobs) or
`paired` (the check of the speed scaling, see scalecheck.py).  Set-up
imports growthlab.cli from ROOT/src and writes the first round's inputs
under WORKDIR.  Jobs run back to back through growthlab.cli.main with stdout
captured: one client, closed loop.  The worker writes one JSON object to
RESULT: raw job spans and the moment set-up ended, on the monotonic clock,
which the parent turns into metrics; per-layer metrics in `trace` mode.
"""

import contextlib
import io
import itertools
import json
import os
import resource
import sys
import threading
import time
import traceback

import tracer
import workloads


def setup(root, workload, seed, workdir):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "growthlab", "cli.py")):
        raise SystemExit(f"no growthlab sources under {src}")
    sys.path.insert(0, src)
    import growthlab.cli as cli
    if os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__))) != src:
        raise SystemExit(f"growthlab imported from {cli.__file__}, not {src}")
    source = workloads.rounds(workload, seed, workdir)
    first = next(source)
    return cli, first, source


def call(cli, job):
    """Run one job; returns (start, end, exit code, stdout text), times on
    the monotonic clock."""
    buf = io.StringIO()
    start = time.monotonic()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(list(job.argv))
    except SystemExit as e:
        rc = e.code if isinstance(e.code, int) else 1
    except Exception:
        traceback.print_exc()
        rc = 1
    return start, time.monotonic(), rc, buf.getvalue()


def verdict(job, rc, text):
    """Failure message for one job, or None when its output checks out;
    also the number of report rows."""
    if rc != 0:
        return f"{job.kind}: exit {rc}: {text[:200]}", 0
    try:
        out = json.loads(text)
        errs = job.check(out)
    except (ValueError, KeyError, TypeError) as e:
        return f"{job.kind}: malformed report: {e!r}", 0
    if errs:
        return f"{job.kind} {' '.join(job.argv)}: {'; '.join(errs)}", 0
    return None, len(out["rows"]) if job.kind == "corpus" else 1


def measure(cli, first, source, seconds):
    """Whole rounds of the design, a new round started while less than
    `seconds` have passed.  Returns the raw job spans on the monotonic
    clock; the parent scales them to reference speed (see speed.py)."""
    spans, rows, failures = [], 0, []
    start = time.monotonic()
    for jobs in itertools.chain([first], source):
        for job in jobs:
            t0, t1, rc, text = call(cli, job)
            spans.append((t0, t1))
            message, nrows = verdict(job, rc, text)
            rows += nrows
            if message:
                failures.append(message)
        if time.monotonic() - start >= seconds:
            break
    detail = {"jobs": len(spans), "rounds": len(spans) // len(first), "rows": rows}
    return len(spans), failures, spans, detail


def paired(cli, jobs):
    """Each job three ways, in rotating order so that machine drift cancels:
    once, twice in a row (twice the work), and once while a thread of this
    process spins on the GIL.  Returns the spans of each variant."""

    def once(job):
        return call(cli, job)[:2]

    def twice(job):
        t0 = call(cli, job)[0]
        return t0, call(cli, job)[1]

    def contended(job):
        stop = threading.Event()

        def spin():
            while not stop.is_set():
                pass

        spinner = threading.Thread(target=spin)
        spinner.start()
        try:
            return call(cli, job)[:2]
        finally:
            stop.set()
            spinner.join()

    variants = {"once": once, "twice": twice, "contended": contended}
    names = list(variants)
    spans = {name: [] for name in names}
    for i, job in enumerate(jobs):
        for name in names[i % 3:] + names[:i % 3]:
            spans[name].append(variants[name](job))
    return 0, [], spans, {"jobs": len(jobs)}


def trace(cli, subset, spans_path):
    """Untraced and traced run of each job, in alternating order so that
    machine drift does not bias the overhead; the traced run must print
    byte-identical reports.  The spans go to spans_path, one JSON list
    [layer, start, end, parent span] per line."""
    seen = set()
    for job in subset:      # lazy imports (scipy) land in neither pass
        if job.kind not in seen:
            seen.add(job.kind)
            call(cli, job)
    t = tracer.Tracer()

    def traced_call(job):
        with tracer.installed(t):
            return call(cli, job)

    plain, traced = [], []
    for i, job in enumerate(subset):
        if i % 2:
            traced.append(traced_call(job))
            plain.append(call(cli, job))
        else:
            plain.append(call(cli, job))
            traced.append(traced_call(job))
    failures = []
    for job, (_, _, rc, text), (_, _, trc, ttext) in zip(subset, plain, traced):
        for r, out in ((rc, text), (trc, ttext)):
            message, _ = verdict(job, r, out)
            if message:
                failures.append(message)
        if (rc, text) != (trc, ttext):
            failures.append(f"{job.kind}: traced report differs from untraced")
    summary = t.summary()
    t.write(spans_path)
    plain_s = sum(t1 - t0 for t0, t1, _, _ in plain)
    traced_s = sum(t1 - t0 for t0, t1, _, _ in traced)
    summary["trace_time_ratio"] = traced_s / plain_s
    units = dict(tracer.metric_names())
    metrics = {name: (value, units[name]) for name, value in summary.items()}
    detail = {"jobs": len(subset), "untraced_s": plain_s, "traced_s": traced_s,
              "spans": len(t.spans)}
    return 2 * len(subset), failures, metrics, detail


def main(argv):
    root, workload, seed, seconds, mode, workdir, result_path = argv
    cli, first, source = setup(root, workload, int(seed), workdir)
    ready = time.monotonic()
    attempted, failures, spans, metrics, detail = 0, [], [], {}, {}
    if mode == "run":
        attempted, failures, spans, detail = measure(cli, first, source, float(seconds))
    elif mode == "paired":
        attempted, failures, spans, detail = paired(cli, first + next(source))
    elif mode == "trace":
        jobs = first + [job for _ in range(workloads.TRACE_ROUNDS[workload] - 1)
                        for job in next(source)]
        spans_path = os.path.join(root, ".perfbench", f"spans-{workload}-{seed}.jsonl")
        attempted, failures, metrics, detail = trace(cli, jobs, spans_path)
    result = {"ready": ready, "spans": spans, "attempted": attempted,
              "failures": failures[:20], "failed": len(failures), "detail": detail,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
              "python": sys.version.split()[0], "blas_threads": blas_threads()}
    with open(result_path, "w") as fh:
        json.dump(result, fh)


def blas_threads():
    """Thread count of numpy's OpenBLAS, when it can be asked."""
    import ctypes
    import glob
    import numpy
    libdir = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


if __name__ == "__main__":
    main(sys.argv[1:])

"""growthlab benchmark: one run of one workload.

    python3 perfbench/run.py --workload growth --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; growthlab is imported from ./src.
Set-up is timed in fresh worker interpreters (several, median reported);
the measurement runs in one more.  Times are at reference machine speed
(speed.py): this process freezes the worker every 50 ms to time a probe.  The last line of stdout is the result:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.  The
line before it records the run's conditions and the machine-speed probe.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time

import speed
from workloads import NAMES

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SETUP_WORKERS = 16
# Every worker must end this long after the run started, or it is killed.
DEADLINE_S = 170
# The drift record: a longer probe before and after each run.
DRIFT_PROBE_ITERATIONS = 20000


def git_sha():
    """Commit of the checkout, read from .git without running git; None
    outside a git work tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def spawn(workload, seed, seconds, mode, workdir, deadline):
    """Run one worker to its end.  Returns its result, with set-up time at
    reference speed unless traced, and the speed record taken meanwhile."""
    os.makedirs(workdir)
    result_path = os.path.join(workdir, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), ROOT, workload,
           str(seed), str(seconds), mode, workdir, result_path]
    try:
        rc, record, started = speed.run_sampled(cmd, deadline, ROOT,
                                                sample=mode != "trace")
        if rc != 0:
            raise SystemExit(f"worker {mode} exited {rc}")
        with open(result_path) as fh:
            result = json.load(fh)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["raw_setup_s"] = result["ready"] - started
    if mode != "trace":
        result["setup_s"] = record.at_reference(started, result["ready"])
    return result, record


def tail(times):
    """Highest percentile with at least 10 jobs beyond it, as (value,
    percentile, jobs beyond).  Below 20 jobs that percentile would sit at or
    under the median, so the maximum stands in, with 0 jobs beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def end_to_end(result, record):
    """Job metrics of an untraced run, at reference speed, and their detail."""
    ref = [record.at_reference(t0, t1) for t0, t1 in result["spans"]]
    raw = [t1 - t0 for t0, t1 in result["spans"]]
    busy = sum(ref)
    value, pct, beyond = tail(ref)
    metrics = {"jobs_per_s": {"value": len(ref) / busy, "unit": "1/s"},
               "job_p50_s": {"value": statistics.median(ref), "unit": "s"},
               "job_tail_s": {"value": value, "unit": "s"},
               "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"}}
    detail = {"busy_s": busy, "raw_busy_s": sum(raw),
              "raw_job_p50_s": statistics.median(raw), "tail_percentile": pct,
              "tail_jobs_beyond": beyond, "probe_mean_s": record.mean_probe_s(),
              "stolen_s": record.stolen_s()}
    return metrics, detail


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    # Unwind on SIGTERM too, so that a frozen worker is killed, not left.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    scratch = os.path.join(ROOT, ".perfbench")
    tag = f"{args.workload}-{args.seed}-{os.getpid()}"
    deadline = time.monotonic() + DEADLINE_S
    probe_before = speed.probe(DRIFT_PROBE_ITERATIONS)
    setup_runs = []
    if not args.trace:
        for i in range(SETUP_WORKERS):
            setup_runs.append(spawn(args.workload, args.seed, args.seconds, "setup",
                                    os.path.join(scratch, f"{tag}-setup{i}"),
                                    deadline)[0])
    mode = "trace" if args.trace else "run"
    result, record = spawn(args.workload, args.seed, args.seconds, mode,
                           os.path.join(scratch, tag), deadline)
    probe_after = speed.probe(DRIFT_PROBE_ITERATIONS)
    try:
        os.rmdir(scratch)
    except OSError:
        pass

    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "python": result["python"], "nproc": os.cpu_count(),
              "blas_threads": result["blas_threads"], "git_sha": git_sha(),
              "probe_before_s": probe_before, "probe_after_s": probe_after,
              "peak_rss_mb": result["peak_rss_mb"], **result["detail"]}
    if args.trace:
        metrics = result["metrics"]
    else:
        setup_runs.append(result)
        setups = [r["setup_s"] for r in setup_runs]
        metrics, timing = end_to_end(result, record)
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"},
                   **metrics}
        detail.update(timing, setup_samples_s=setups,
                      raw_setup_samples_s=[r["raw_setup_s"] for r in setup_runs])
    detail["failures"] = result["failures"]
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()

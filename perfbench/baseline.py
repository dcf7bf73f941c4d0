"""Regenerate the baseline table: every workload, untraced then traced.

    python3 perfbench/baseline.py --seed 1

Run from the repository root.  Each run lasts BENCHMARK.json's
run_seconds.  Prints one Markdown row per workload: the end-to-end metrics,
then the three layers with the largest self time and the numeric group, as
shares of the traced job time (cli.main.total_s).
"""

import argparse
import json
import os
import subprocess
import sys

from workloads import NAMES

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as _fh:
    RUN_SECONDS = json.load(_fh)["run_seconds"]
NUMERIC_GROUP = ("convexfn.SmoothToricPotential.grad_many",
                 "convexfn.SmoothToricPotential.value_many",
                 "growth.monge_ampere_volume_numeric", "embed.fit_ball",
                 "okounkov.ChebyshevTransform.__call__")


def run(workload, seed, trace):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(RUN_SECONDS), "--trace", str(trace)],
                          stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: {result['failed']} of "
                         f"{result['attempted']} jobs failed")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    print("| workload | jobs/s | p50 s | tail s | RSS MB | setup s "
          "| largest self time (share of traced job time) | numeric group "
          "| traced / untraced time |")
    print("|---|---|---|---|---|---|---|---|---|")
    for w in NAMES:
        e = run(w, args.seed, 0)
        t = run(w, args.seed, 1)
        total = t["cli.main.total_s"]
        selfs = sorted(((v, k[:-len(".self_s")]) for k, v in t.items()
                        if k.endswith(".self_s")), reverse=True)[:3]
        top = ", ".join(f"`{name}` {100 * v / total:.0f}%" for v, name in selfs)
        group = sum(t[f"{name}.self_s"] for name in NUMERIC_GROUP)
        print(f"| {w} | {e['jobs_per_s']:.3g} | {e['job_p50_s']:.3g} "
              f"| {e['job_tail_s']:.3g} | {e['peak_rss_mb']:.0f} "
              f"| {e['setup_s']:.3g} | {top} | {100 * group / total:.0f}% "
              f"| {t['trace_time_ratio']:.3f} |")


if __name__ == "__main__":
    main()

"""Check that the speed scaling leaves a real change of speed in place.

    python3 perfbench/scalecheck.py --seed 1

Run from the repository root.  For `growth` (exact kernels) and `numeric`
(numpy and its OpenBLAS threads), one worker runs the first two rounds
under the speed sampler, each job three ways in rotating order
(worker.paired): once, twice in a row (twice the work), and once while a
thread of the worker spins on the GIL.  For the two slowed variants
it prints their summed time over the plain one, raw and at reference speed.
The scaling is neutral when the two agree: it divides out the machine, not
the program's own work or threads.
"""

import argparse
import os
import time

import run

WORKLOADS = ("growth", "numeric")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    print("| workload | variant | raw ratio | scaled ratio | scaled / raw |")
    print("|---|---|---|---|---|")
    for w in WORKLOADS:
        workdir = os.path.join(run.ROOT, ".perfbench", f"scalecheck-{w}-{os.getpid()}")
        result, record = run.spawn(w, args.seed, 0, "paired", workdir,
                                   time.monotonic() + run.DEADLINE_S)
        raw, scaled = {}, {}
        for name, spans in result["spans"].items():
            raw[name] = sum(t1 - t0 for t0, t1 in spans)
            scaled[name] = sum(record.at_reference(t0, t1) for t0, t1 in spans)
        for name in ("twice", "contended"):
            r, s = raw[name] / raw["once"], scaled[name] / scaled["once"]
            print(f"| {w} | {name} | {r:.3f} | {s:.3f} | {s / r:.3f} |")
    try:
        os.rmdir(os.path.join(run.ROOT, ".perfbench"))
    except OSError:
        pass


if __name__ == "__main__":
    main()

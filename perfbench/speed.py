"""Machine speed, sampled while a benchmark worker runs.

The machine this benchmark was sized on runs the same code up to twice as
fast at one moment as at the next, and its 20-second averages drift by
+-20%.  So job and set-up times are reported at reference speed.  The
parent process runs the worker and, every INTERVAL_S, freezes it with
SIGSTOP, times a short fixed pure-Python Fraction loop that does not touch
growthlab, and lets it go on with SIGCONT.  The probe runs in its own
process, pinned to the CPU the worker last ran on, while every thread of
the worker stands still, so nothing the program does (its threads, its
heap, the GIL) can slow the probe; only the machine can.  The loop walks a
pool of Fractions larger than the caches, so that it feels contention for
memory as the jobs do.

The loop under-counts the time the hypervisor takes the worker's CPU away
(steal), probably because the parent's timer fires as a stolen CPU comes
back, so the loop tends to run at the start of a fresh slice.  So each
sample also reads the steal column of /proc/stat, and the time stolen from
the worker's CPU between two samples is taken out as well.  A raw time,
less the frozen and the stolen stretches inside it, is scaled by the loop's
reference time over its median time around that span.
"""

import os
import signal
import statistics
import subprocess
import time
from fractions import Fraction

# Seconds per probe iteration in the fastest tenth of probes on the machine
# the baseline was recorded on (2 vCPUs, Intel Xeon at 2.0 GHz, Python 3.11.7).
REF_ITERATION_S = 5e-6
SAMPLE_ITERATIONS = 200
INTERVAL_S = 0.05


POOL_SIZE = 200000
POOL = [Fraction(i % 1009 + 1, i % 997 + 2) for i in range(POOL_SIZE)]


def probe(iterations):
    """Seconds the loop takes."""
    start = time.monotonic()
    acc = Fraction(0)
    j = 12345
    for i in range(iterations):
        j = (j * 1103515245 + 12345) % POOL_SIZE
        acc += POOL[j] * POOL[(j * 7919) % POOL_SIZE]
        if acc.denominator > 10 ** 12:
            acc = Fraction(acc.numerator % 1000, 7)
    return time.monotonic() - start


def steal_s():
    """Seconds stolen from each CPU since boot (/proc/stat), by CPU number."""
    with open("/proc/stat") as fh:
        lines = fh.read().splitlines()
    hz = os.sysconf("SC_CLK_TCK")
    return {int(f[0][3:]): int(f[8]) / hz
            for f in (line.split() for line in lines)
            if f[0].startswith("cpu") and f[0] != "cpu"}


class Record:
    """Probe samples taken while one worker ran: (start, end, probe seconds),
    the worker frozen from start to end, and the time stolen from the
    worker's CPU while it ran between samples: (start, end, seconds)."""

    def __init__(self):
        self.samples = []
        self.stolen = []
        self._last = None       # (end of the last sample, steal at that end)

    def sample(self, cpu):
        """Time the probe; `cpu` is the one the worker last ran on."""
        start, before = time.monotonic(), steal_s()
        d = probe(SAMPLE_ITERATIONS)
        end, after = time.monotonic(), steal_s()
        self.samples.append((start, end, d))
        if self._last is not None:
            last_end, last_steal = self._last
            self.stolen.append((last_end, start, before[cpu] - last_steal[cpu]))
        self._last = (end, after)

    def at_reference(self, start, end):
        """Seconds of [start, end] outside the frozen and stolen stretches, at
        reference speed, judged by the samples within INTERVAL_S of the span.
        Steal is counted in whole clock ticks per interval between samples,
        each spread evenly over its interval."""
        frozen = sum(max(0.0, min(b, end) - max(a, start))
                     for a, b, _ in self.samples)
        stolen = sum(s * max(0.0, min(b, end) - max(a, start)) / (b - a)
                     for a, b, s in self.stolen if b > a)
        near = [d for a, b, d in self.samples
                if a < end + INTERVAL_S and b > start - INTERVAL_S]
        if not near:
            raise RuntimeError("no speed sample near the span")
        ref = REF_ITERATION_S * SAMPLE_ITERATIONS
        return (end - start - frozen - stolen) * ref / statistics.median(near)

    def mean_probe_s(self):
        return statistics.fmean(d for _, _, d in self.samples)

    def stolen_s(self):
        return sum(s for _, _, s in self.stolen)


def _last_cpu(pid):
    """The CPU the process last ran on (field 39 of /proc/PID/stat)."""
    with open(f"/proc/{pid}/stat") as fh:
        return int(fh.read().rsplit(")", 1)[1].split()[36])


def run_sampled(cmd, deadline, cwd, sample=True):
    """Run cmd to its end, sampling the machine's speed with the command
    frozen every INTERVAL_S when `sample`; kill it at `deadline` (monotonic
    time).  Returns (exit code, Record, monotonic time of the start)."""
    record = Record()
    cpus = os.sched_getaffinity(0)
    cpu = _last_cpu(os.getpid())
    if sample:
        record.sample(cpu)
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.DEVNULL)
    try:
        while True:
            time.sleep(INTERVAL_S)
            if time.monotonic() > deadline:
                raise TimeoutError(f"{cmd[1]} did not end in time")
            if not sample:
                pid, status = os.waitpid(proc.pid, os.WNOHANG)
                if pid:
                    break
                continue
            os.kill(proc.pid, signal.SIGSTOP)
            _, status = os.waitpid(proc.pid, os.WUNTRACED)
            if not os.WIFSTOPPED(status):
                break
            cpu = _last_cpu(proc.pid)
            os.sched_setaffinity(0, {cpu})
            record.sample(cpu)
            os.kill(proc.pid, signal.SIGCONT)
        proc.returncode = os.waitstatus_to_exitcode(status)
    except BaseException:
        proc.kill()         # a stopped process dies of SIGKILL too
        proc.wait()
        raise
    finally:
        os.sched_setaffinity(0, cpus)
    if sample:
        record.sample(cpu)
    return proc.returncode, record, started

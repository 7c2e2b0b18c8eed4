"""Percentiles, the reference loop, and the record of the machine a run
measured on."""

from fractions import Fraction
from importlib import metadata
import math
import os
import platform
import time

import numpy as np

# Percentiles a latency may be reported at, lowest first.
LADDER = ("50", "90", "95", "99", "99.9", "99.99")


def tail_percentile(n):
    """The highest percentile in LADDER with at least ten of n samples
    beyond it, or None when even the median has fewer."""
    best = None
    for p in LADDER:
        if n * (100 - Fraction(p)) / 100 >= 10:
            best = p
    return best


def percentile(values, p):
    """Nearest-rank percentile: the smallest value with at least p% of the
    samples at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(Fraction(p) / 100 * len(ordered)))
    return ordered[rank - 1]


def latency_summary(seconds, prefix):
    """Median and p99 in µs, the highest percentile with ten samples beyond
    it with its value, and the sample count."""
    n = len(seconds)
    out = {f"{prefix}_samples": n}
    if n:
        out[f"{prefix}_p50_us"] = percentile(seconds, "50") * 1e6
    tail = tail_percentile(n)
    if tail is not None:
        if Fraction(tail) >= 99:
            out[f"{prefix}_p99_us"] = percentile(seconds, "99") * 1e6
        out[f"{prefix}_tail_percentile"] = tail
        out[f"{prefix}_tail_us"] = percentile(seconds, tail) * 1e6
    return out


# On a shared host the CPU time a fixed piece of work takes drifts by tens
# of percent over minutes, and not by the same share for every kind of work:
# a slow spell slows interpreted Python far more than numpy over large
# arrays. A reference loop does a fixed amount of one kind of work and
# touches no sandpiles code. Timed around each measured call, the loops of
# the kinds a workload spends its time on give that call's CPU seconds at
# one fixed speed: the speed at which the loops take their REFERENCE_LOOPS
# seconds of CPU time.
REF_LOOPS = 4  # passes per reference time


def interpreted_loop():
    """Interpreted Python and small numpy calls, as in the scalar paths."""
    total = 0
    for i in range(60_000):
        total += i * i
    a = np.zeros(64)
    for _ in range(1500):
        a = np.add(a, 1.0)
        a.sum()
    return total


def bulk_loop():
    """numpy over a (10^5, 2) integer array, as in the replica kernels."""
    q = np.arange(200_000, dtype=np.int64).reshape(100_000, 2) % 4
    for _ in range(2):
        q = (q * 3 + 1) % 7
        q[q >= 4] -= 4
        q.sum(axis=1)
    return q


# kind: (loop, its CPU seconds at the reference speed, about one pass on the
# 2-core Xeon KVM guest the bounds were set on)
REFERENCE_LOOPS = {"interpreted": (interpreted_loop, 0.010), "bulk": (bulk_loop, 0.012)}


def reference_time(kinds):
    """CPU seconds of one pass of the loops of the given kinds, averaged
    over REF_LOOPS passes."""
    t = time.process_time()
    for _ in range(REF_LOOPS):
        for kind in kinds:
            REFERENCE_LOOPS[kind][0]()
    return (time.process_time() - t) / REF_LOOPS


def at_reference_speed(seconds, kinds, ref_before, ref_after):
    """CPU seconds measured between two reference times of the loops of the
    given kinds, at the reference speed."""
    ref_seconds = sum(REFERENCE_LOOPS[kind][1] for kind in kinds)
    return seconds * ref_seconds * 2.0 / (ref_before + ref_after)


def _read(path):
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def environment():
    """nproc, CPU model, cache sizes, interpreter and library versions."""
    model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        level = _read(f"{base}/{entry}/level")
        kind = _read(f"{base}/{entry}/type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(f"{base}/{entry}/size")
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        **versions,
        "threads": {v: os.environ.get(v) for v in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }

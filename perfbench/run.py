"""Benchmark of the sandpiles package.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Runs one workload as a closed loop in this process and one thread: set
up (5 to 20 times with tracing off, to report the median set-up time), then
identical rounds until the next round would pass --seconds (at least one;
the default is run_seconds in BENCHMARK.json). Every round's outputs are
checked. Times are CPU seconds at the reference speed (see stats.py), with
the measured CPU and wall seconds in the report. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics: with --trace 0 the end-to-end metrics, with --trace 1 the
per-layer metrics of traced rounds alternated with untraced ones. The line
before it holds the report: machine, exact counts, the workload's own
metrics, failures.
``--workload all`` runs every workload in its own process, one after the
other, and carries on past a failing one.
"""

import argparse
import json
import os
from pathlib import Path
import resource
import statistics
import subprocess
import sys
import time
import traceback

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Set-up is repeated at least 5 and at most 20 times, until 3 s have gone,
# so that a set-up of a few milliseconds still gets a steady median.
SETUP_REPEATS = (5, 20)
SETUP_SECONDS = 3.0
NAMES = ("ensemble_path", "cli_scalar", "large_box", "exact_group")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _json_default(value):
    if hasattr(value, "tolist"):
        return value.tolist()
    raise TypeError(f"cannot serialise {type(value).__name__}")


def emit(report, correct, attempted, failed, metrics):
    print(json.dumps({"report": report}, default=_json_default))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}, default=_json_default), flush=True)


def run_workload(name, seed, seconds, trace):
    # Imported here: numpy must load after main() pins its thread pools.
    from stats import environment
    import tracing
    from workloads import WORKLOADS, Clock

    wl = WORKLOADS[name]
    out_dir = OUT / f"{name}-seed{seed}-trace{trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer() if trace else None
    report = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "env": environment(), "failures": []}
    attempted = failed = 0

    def fail(message):
        if len(report["failures"]) < 20:
            report["failures"].append(message)

    setup_root, state = None, None
    try:
        setups = Clock(wl.reference)
        least, most = (1, 1) if trace else SETUP_REPEATS
        while len(setups.raw) < least or (
                len(setups.raw) < most and sum(setups.raw) < SETUP_SECONDS):
            state = None
            if trace:
                with tracer.traced("setup") as setup_root:
                    state = setups(wl.setup, seed, out_dir)
            else:
                state = setups(wl.setup, seed, out_dir)
    except Exception:
        fail("setup raised:\n" + traceback.format_exc())
        emit(report, False, 1, 1, {})
        return 1

    plain, traced, traced_roots, spent = [], [], [], []
    start = time.perf_counter()
    while True:
        tracing_now = trace and len(plain) > len(traced)
        t = time.perf_counter()
        try:
            if tracing_now:
                with tracer.traced("round") as root:
                    rnd = wl.run_round(state)
                traced_roots.append(root)
            else:
                rnd = wl.run_round(state)
            fails = wl.check(state, rnd)
            rnd.outputs = {}  # a round's arrays must not raise the next round's peak RSS
        except Exception:
            attempted += 1
            failed += 1
            fail("round raised:\n" + traceback.format_exc())
            break
        attempted += rnd.ops
        failed += len(fails)
        for message in fails:
            fail(message)
        (traced if tracing_now else plain).append(rnd)
        spent.append(time.perf_counter() - t)
        elapsed = time.perf_counter() - start
        if (not trace or traced) and elapsed + statistics.median(spent) > seconds:
            break

    rounds = plain + traced
    if rounds:
        exact = rounds[0].counts
        report["counts"] = exact
        if any(r.counts != exact for r in rounds[1:]):
            failed += 1
            fail("exact counts differ between rounds of one seed")
    report["setup_s"] = setups.scaled
    report["measured_setup_s"] = setups.raw
    report["round_cpu_s"] = [r.cpu for r in plain]
    report["measured_round_cpu_s"] = [r.raw_cpu for r in plain]
    report["measured_round_wall_s"] = [r.wall for r in plain]
    report["reference_loop_s"] = setups.refs + [t for r in plain for t in r.clock.refs]
    headline = wl.headline(plain) if plain and hasattr(wl, "headline") else {}
    headline["work_unit"] = wl.work_unit
    headline["fail_ratio"] = failed / attempted if attempted else 1.0
    report["workload_metrics"] = headline

    metrics = {}
    if plain and not trace:
        metrics = {
            "setup_s": {"value": statistics.median(setups.scaled), "unit": "s"},
            "cpu_s": {"value": statistics.median(r.cpu for r in plain), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
            "work_per_s": {"value": statistics.median(r.work_per_s for r in plain),
                           "unit": "1/s"},
        }
    elif traced:
        metrics = traced_metrics(tracer, setup_root, traced_roots, plain, traced, report)
        if report["tracing"]["unstable_counts"]:
            failed += 1
            fail("traced counts differ between rounds: "
                 + ", ".join(report["tracing"]["unstable_counts"]))
    correct = failed == 0 and bool(rounds)
    emit(report, correct, attempted, failed, metrics)
    return 0 if correct else 1


def traced_metrics(tracer, setup_root, roots, plain, traced, report):
    """Per-layer metrics of a traced run: the traced set-up plus one traced
    round (median over traced rounds for times), and the tracing overhead."""
    import tracing

    summaries = tracing.root_summaries(tracer, [setup_root] + roots)
    layer_names = {m["name"] for m in SPEC["per_layer"]}
    per_round = []
    for root, rnd in zip(roots, traced):
        summary = dict(summaries[root])
        summary["trace.spans_per_round"] = sum(
            v for k, v in summary.items() if k.endswith(".calls"))
        summary.update({k: v for k, v in rnd.counts.items() if k in layer_names})
        per_round.append(summary)
    quantities, unstable = tracing.combine(summaries[setup_root], per_round)
    untraced = statistics.median(r.cpu for r in plain)
    traced_cpu = statistics.median(r.cpu for r in traced)
    quantities["trace.overhead_s"] = traced_cpu - untraced
    spans_path = OUT / f"spans-{report['workload']}-seed{report['seed']}.npz"
    tracer.save(spans_path)
    report["tracing"] = {"untraced_cpu_s": untraced, "traced_cpu_s": traced_cpu,
                         "overhead_s": traced_cpu - untraced,
                         "overhead_share": (traced_cpu - untraced) / untraced,
                         "spans_file": str(spans_path.relative_to(ROOT)),
                         "traced_rounds": len(traced), "unstable_counts": unstable}
    return tracing.per_layer_metrics(quantities, SPEC["per_layer"])


def run_all(args):
    """Each workload in its own process; a failing one does not stop the rest."""
    attempted = failed = 0
    metrics, ok = {}, True
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            print("\n".join(lines[:-1]))
        except (subprocess.TimeoutExpired, ValueError, IndexError) as exc:
            print(f"{name}: no result ({exc.__class__.__name__})", file=sys.stderr)
            attempted += 1
            failed += 1
            ok = False
            continue
        ok = ok and proc.returncode == 0 and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": ok and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if ok and failed == 0 else 1


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "sandpiles" / "__init__.py").is_file():
        print(f"error: no sandpiles sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of agcodes: one workload per process, one closed-loop client.

Run from the repository root:

    python3 bench/run.py --workload gf2-512 --seed 1 --seconds 12 --trace 0

Each step of a workload is one call into the public API or into
``agcodes.cli.main``, issued after the previous one returns; its output is
checked exactly against ``oracle``.  An untimed warm-up builds each of the
workload's codes in process; timed passes then run until at least three
have run and their times sum to --seconds, and ``job_s`` sums each step's
median over them.  With
--trace 0 the last line of stdout reports the end-to-end metrics.  With
--trace 1 a further pass runs with every traced call site wrapped, and the
last line reports the per-layer metrics instead.  A failed step makes the
result incorrect and the exit code 1.  NOTES.md describes the metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_BATCH = 3        # fresh interpreters per batch of set-up probes
MIN_TIMED_PASSES = 3
WORKLOAD_NAMES = ["gf2-512", "oddq", "gf2-4096-export"]


class DeadlineExceeded(Exception):
    pass


def _on_alarm(signum, frame):
    raise DeadlineExceeded("step missed its deadline")


@dataclass
class StepResult:
    name: str
    seconds: float
    summary: object
    problems: list


def run_pass(workload, ctx):
    """Run every step once, in order; time only the call into the package."""
    results = []
    for step in workload.steps:
        for name in os.listdir(ctx.out_dir):
            os.remove(os.path.join(ctx.out_dir, name))
        gc.collect()
        summary, problems = None, []
        signal.setitimer(signal.ITIMER_REAL, step.deadline_s)
        t0 = time.perf_counter()
        try:
            try:
                raw = step.run(ctx)
            finally:
                elapsed = time.perf_counter() - t0
                signal.setitimer(signal.ITIMER_REAL, 0)
            summary = step.summarize(raw, ctx)
            del raw
            problems = step.check(summary)
        except Exception:  # a failing step is a result, not a crash
            problems = [traceback.format_exc()]
        if elapsed > step.deadline_s:
            problems.append(f"took {elapsed:.2f} s, deadline {step.deadline_s} s")
        results.append(StepResult(step.name, elapsed, summary, problems))
    return results


def measure_setup(workload, probes):
    """Set-up seconds of `probes` fresh interpreters, and the failure count."""
    times, failures = [], 0
    args = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC)]
    args += [",".join(map(str, c)) for c in workload.setup_codes]
    for _ in range(probes):
        try:
            proc = subprocess.run(args, capture_output=True, text=True, timeout=60,
                                  cwd=ROOT, check=True)
            times.append(float(proc.stdout.split()[-1]))
        except (subprocess.SubprocessError, ValueError, IndexError) as exc:
            failures += 1
            print(f"set-up probe failed: {exc}", file=sys.stderr)
    return times, failures


def machine():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__}


def warm_up(workload):
    """make_field and the first build of each of the workload's codes, so
    that the timed passes start with the package's caches filled."""
    import agcodes
    t0 = time.perf_counter()
    for q, ell, m, r in workload.setup_codes:
        agcodes.make_field(q)
        agcodes.build_affine_grassmann(ell, m, r, q)
    return time.perf_counter() - t0


def job_seconds(results):
    return sum(r.seconds for r in results)


def job_seconds_sum(passes):
    return sum(job_seconds(p) for p in passes)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "agcodes" / "__init__.py").is_file():
        print(f"run.py: no package source at {SRC / 'agcodes'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT_DIR.mkdir(exist_ok=True)
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        return measure(args)
    finally:
        shutil.rmtree(OUT_DIR, ignore_errors=True)


def measure(args):
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    ctx = workloads.Context(seed=args.seed, out_dir=str(OUT_DIR))
    attempted = failed = 0
    setup_times = []

    def probe_setup():
        nonlocal attempted, failed
        if not args.trace:
            times, failures = measure_setup(workload, SETUP_BATCH)
            setup_times.extend(times)
            attempted += SETUP_BATCH
            failed += failures

    # a batch of set-up probes before the timed passes and one after each of
    # the first three, so that set-up is sampled across the run as the
    # passes are, rather than at one moment of the machine
    probe_setup()
    warm_up_s = warm_up(workload)
    timed = []
    while len(timed) < MIN_TIMED_PASSES or job_seconds_sum(timed) < args.seconds:
        timed.append(run_pass(workload, ctx))
        if len(timed) <= MIN_TIMED_PASSES:
            probe_setup()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # on a shared host the CPU can slow for a second or so at a time; each
    # step's median over the passes discards such a burst, which a median
    # of pass totals keeps
    step_s = [statistics.median(p[i].seconds for p in timed)
              for i in range(len(workload.steps))]
    job_s = sum(step_s)

    traced = []
    if args.trace:
        tracer = tracing.Tracer()
        tracer.pass_id = 1 + len(timed)
        tracer.install(workloads.trace_targets())
        try:
            traced = run_pass(workload, ctx)
        finally:
            tracer.uninstall()
        for t, u in zip(traced, timed[0]):
            if not t.problems and t.summary != u.summary:
                t.problems.append("traced result differs from the untraced one")

    for r in [r for p in timed for r in p] + traced:
        attempted += 1
        if r.problems:
            failed += 1
            print(f"FAILED {r.name}:\n  " + "\n  ".join(r.problems), file=sys.stderr)

    print("machine " + json.dumps(machine(), sort_keys=True))
    print(f"workload {workload.name} seed {args.seed}: {len(workload.steps)} steps, "
          f"warm-up {warm_up_s:.3f} s, {len(timed)} timed passes "
          f"({' '.join(f'{job_seconds(p):.3f}' for p in timed)} s)")
    for step, seconds in zip(workload.steps, step_s):
        print(f"  step {step.name}: {seconds:.4f} s")

    if args.trace:
        seconds, counts = tracing.layer_totals(tracer.spans, tracer.pass_id)
        metrics = workloads.per_layer_metrics(seconds, counts, job_seconds(traced), job_s)
        print(f"traced pass: {len(tracer.spans)} spans")
    else:
        setup_s = statistics.median(setup_times) if setup_times else 0.0
        metrics = {"job_s": (job_s, "s"), "peak_rss_mb": (peak_rss_mb, "MiB"),
                   "setup_s": (setup_s, "s")}
        print(f"  job_s is the sum of each step's median over {len(timed)} timed passes; "
              f"setup_s the median of {len(setup_times)} fresh "
              f"interpreters ({' '.join(f'{t:.4f}' for t in setup_times)} s)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"fail_ratio = {failed}/{attempted} = {failed / attempted:.6g}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

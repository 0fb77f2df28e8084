"""Benchmark for the quivercalc CLI.

    python3 perfbench/run.py --workload tables|glue|walks --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
src/ directory.  One closed-loop client runs the workload's job list
through quivercalc.cli.main(argv), one job at a time in this process,
repeating the list while the time allows.  Every job's stdout is checked
against an answer computed without quivercalc (see oracle.py).

With --trace 0 the end-to-end metrics are reported; with --trace 1 untraced
and traced passes alternate and the per-layer metrics of the traced passes
are reported, with the spans of the last one written to
perfbench/out/spans-<workload>.jsonl.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  The line before it
holds the SHA-256 of one pass's concatenated stdout, the pass times and,
untraced, the job-latency tail's percentile and samples per block.

Untraced times are scaled to a reference host speed, sampled while the jobs
run (see speed.py); the line before the last holds the raw pass times too.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import spans
import workloads
from speed import Sampler

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 7
TAIL_BEYOND = 10       # the tail percentile keeps this many samples above it


def fresh_import():
    """Import quivercalc.cli from this checkout's src/, from scratch."""
    for name in [n for n in sys.modules if n == "quivercalc" or n.startswith("quivercalc.")]:
        del sys.modules[name]
    cli = importlib.import_module("quivercalc.cli")
    if Path(cli.__file__).resolve().parent.parent != ROOT / "src":
        raise ImportError(f"quivercalc was imported from {cli.__file__}")
    return cli


class Pass:
    """One run of the whole job list: each job's start and end, its stdout
    and its result, and, once scale() is called, its scaled time."""

    def __init__(self, jobs, main, tracer=None):
        self.spans, self.outputs, self.results = [], [], []
        self.seconds: list[float] = []
        start = perf_counter()
        for i, job in enumerate(jobs):
            call = tracer.job_span(i, main) if tracer else main
            out, err = io.StringIO(), io.StringIO()
            t0 = perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    result = call(job.argv)
            except SystemExit as e:            # argparse rejected the argv
                result = e.code
            except Exception as e:             # a crash fails this job only
                result = type(e).__name__
            self.spans.append((t0, perf_counter()))
            self.outputs.append(out.getvalue())
            self.results.append(result)
        self.raw_wall = perf_counter() - start
        self.wall = self.raw_wall

    def scale(self, sampler: Sampler):
        self.seconds = [sampler.scaled(a, b) for a, b in self.spans]
        self.wall = sum(self.seconds)

    def digest(self) -> str:
        return hashlib.sha256("".join(self.outputs).encode()).hexdigest()


class Checker:
    """Checks each distinct (result, stdout) of a job once; a job fails when
    it crashes, exits nonzero or prints a wrong answer."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.verdicts = [{} for _ in jobs]      # (result, stdout) -> None or reason
        self.attempted = self.failed = 0
        self.wrong: set[str] = set()
        self.crashed: set[str] = set()

    @staticmethod
    def judge(job, result, out):
        if isinstance(result, str):
            return result
        if result != 0:
            return f"exit code {result}"
        return job.check(out)

    def add(self, p: "Pass"):
        for job, verdicts, result, out in zip(self.jobs, self.verdicts,
                                              p.results, p.outputs):
            key = (result, out)
            if key not in verdicts:
                verdicts[key] = self.judge(job, result, out)
            self.attempted += 1
            if verdicts[key] is not None:
                self.failed += 1
                kind = self.crashed if isinstance(result, str) else self.wrong
                kind.add(f"{job.name}: {verdicts[key]}")


def tail(plain: list[Pass], block: int) -> tuple[float, float, int]:
    """The highest percentile of each block's pooled job latencies that has
    TAIL_BEYOND samples above it, as the median over every block of
    consecutive passes; with the percentile and the samples per block.  A
    fixed block size keeps the sample count, and so the percentile, the same
    however fast the program runs; blocks overlap, so that every pass
    counts."""
    values = []
    for i in range(len(plain) - block + 1):
        s = sorted(t for p in plain[i:i + block] for t in p.seconds)
        values.append(s[max(len(s) - 1 - TAIL_BEYOND, 0)])
    rank = max(len(s) - 1 - TAIL_BEYOND, 0) + 1
    return statistics.median(values), round(100.0 * rank / len(s), 3), len(s)


def measure(jobs, seconds: float, min_passes: int, traced: bool, checker: Checker,
            sampler: Sampler):
    """Repeat passes until the next one would overrun the time; when traced,
    each round is an untraced pass followed by a traced one.  At least
    min_passes rounds are made.

    Each pass starts from a fresh import, as each CLI invocation starts in a
    fresh process: the package keeps every category it has seen alive
    (hochschild's table cache holds its keys through its values), and
    carrying that over from pass to pass would slow later passes.
    Untraced passes run under the sampler and are scaled; traced passes
    keep their raw times.  Returns the passes, the traced passes with their
    layer metrics, the tracer, and peak RSS after the first pass."""
    plain, trace_runs = [], []
    tracer = spans.Tracer() if traced else None
    start = perf_counter()
    while True:
        with sampler.running():
            cli = fresh_import()
            gc.collect()
            p = Pass(jobs, cli.main)
        p.scale(sampler)
        if not plain:
            peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        checker.add(p)
        plain.append(p)
        last = p.raw_wall
        if traced:
            cli = fresh_import()
            gc.collect()
            tracer.reset()
            with tracer.installed():
                q = Pass(jobs, cli.main, tracer)
            checker.add(q)
            if q.outputs != p.outputs:
                checker.wrong.add("traced stdout differs from untraced stdout")
            trace_runs.append((q, spans.layer_metrics(
                tracer.spans, tracer.outputs, sum(len(o.encode()) for o in q.outputs))))
            last += q.raw_wall
        if len(plain) >= min_passes and perf_counter() - start + last > seconds:
            break
    return plain, trace_runs, tracer, peak_rss


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "quivercalc" / "cli.py").is_file():
        print(f"perfbench: no quivercalc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workdir = OUT / f"inputs-{args.workload}-{args.seed}-{os.getpid()}"
    sampler = Sampler()
    try:
        setup = []
        with sampler.running():
            for _ in range(SETUP_REPEATS):
                t0 = perf_counter()
                fresh_import()
                jobs = workloads.build(args.workload, args.seed, workdir)
                setup.append((t0, perf_counter()))
        setup = [sampler.scaled(a, b) for a, b in setup]
        checker = Checker(jobs)
        block = workloads.TAIL_BLOCK[args.workload]
        plain, trace_runs, tracer, peak_rss = measure(
            jobs, args.seconds, 1 if args.trace else block, bool(args.trace), checker,
            sampler)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info = {"workload": args.workload, "seed": args.seed, "jobs": len(jobs),
            "pass_s": [round(p.wall, 4) for p in plain],
            "pass_raw_s": [round(p.raw_wall, 4) for p in plain],
            "kernel_ms": round(1000 * sampler.median_kernel_s(), 4),
            "stdout_sha256": plain[0].digest(),
            "crashed": sorted(checker.crashed), "wrong": sorted(checker.wrong)[:10]}
    if args.trace:
        metrics = spans.median_metrics([m for _, m in trace_runs])
        metrics["trace.overhead_s"] = (statistics.median(q.raw_wall for q, _ in trace_runs)
                                       - statistics.median(p.raw_wall for p in plain))
        units = {k: ("s" if k.endswith("_s") else "ratio" if k.endswith("ratio")
                     else "bytes" if k.endswith("bytes") else "count") for k in metrics}
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.dump(OUT / f"spans-{args.workload}.jsonl")
    else:
        tail_s, info["job_tail_percentile"], info["job_tail_samples"] = tail(plain, block)
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(p.wall for p in plain),
            "job_p50_ms": 1000 * statistics.median(
                statistics.median(p.seconds[i] for p in plain) for i in range(len(jobs))),
            "job_tail_ms": 1000 * tail_s,
            "peak_rss_mb": peak_rss,
            "ok_share": 1 - checker.failed / checker.attempted,
        }
        units = {"setup_s": "s", "wall_s": "s", "job_p50_ms": "ms", "job_tail_ms": "ms",
                 "peak_rss_mb": "MB", "ok_share": "ratio"}
    print(json.dumps(info))
    print(json.dumps({"correct": not checker.wrong, "attempted": checker.attempted,
                      "failed": checker.failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

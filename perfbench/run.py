#!/usr/bin/env python3
"""Benchmark of the uuqc library: timed and traced runs of three workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 1

``--trace 0`` measures the end-to-end metrics with no tracing; ``--trace 1``
wraps each layer's entry points and reports per-layer metrics, plus the
tracing overhead against an untraced pass over the same jobs.  Every job's
output is checked against the answer known by construction.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it name every metric with its
unit, the machine notes and the failures by cause.  See README.md.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

# One BLAS thread: at the library's default of two, the same choi_state call
# took either about 4 ms or about 190 ms from one repeat to the next.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

WORKLOADS = ("certify", "qec", "cli")
# Distinct rounds built at set-up; the timed loop cycles through them.
POOL_ROUNDS = {"certify": 16, "qec": 3, "cli": 2}
# The tail is the highest of these percentiles with at least ten samples
# beyond it, capped per workload so that a faster program, which completes
# more jobs, is still judged at the same percentile.
PERCENTILES = (50, 75, 90, 95, 99, 99.9)
TAIL_CAP = {"certify": 95, "qec": 95, "cli": 75}
SETUP_PROBES = 7
# Rounds per second of --seconds in a traced run; each traced run makes one
# untraced and one traced pass over the same rounds, about --seconds in all.
TRACE_ROUNDS_PER_S = {"certify": 0.45, "qec": 0.2, "cli": 0.8}

# Seconds between two timings of the reference computation in a timed run.
REF_INTERVAL_S = 0.25

UNITS = {
    "setup_s": "s",
    "latency_p50_ref": "ref",
    "latency_mean_ref": "ref",
    "latency_tail_ref": "ref",
    "peak_rss_mb": "MB",
    "jobs_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "cpu_s_per_job": "s",
}
# The end-to-end metrics of BENCHMARK.json.  Throughput, latency in ms and
# CPU per job are printed too, but on a shared host whose speed drifts by
# 20-45% over seconds to minutes their spread across runs reached 0.12-0.31
# of the median, so only their reference-normalised forms are gated.
GATED = ("setup_s", "latency_p50_ref", "latency_mean_ref", "latency_tail_ref", "peak_rss_mb")


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))


def build_pool(workload: str, seed: int, workdir: str, in_process: bool) -> list:
    """Build the seeded rounds of jobs that a run cycles through."""
    import numpy as np

    rng = np.random.default_rng(seed)
    n = POOL_ROUNDS[workload]
    if workload == "certify":
        import wl_certify

        return [wl_certify.build_round(rng) for _ in range(n)]
    if workload == "qec":
        import wl_qec

        return [wl_qec.build_round(rng) for _ in range(n)]
    import wl_cli

    os.makedirs(workdir, exist_ok=True)
    runner = wl_cli.run_in_process if in_process else functools.partial(wl_cli.run_subprocess, env=child_env())
    return [wl_cli.build_round(rng, workdir, f"r{r}", runner) for r in range(n)]


def probe(workload: str, seed: int) -> None:
    """Set-up as a fresh interpreter sees it: ``import uuqc`` plus inputs."""
    t0 = time.perf_counter()
    import uuqc  # noqa: F401

    t1 = time.perf_counter()
    workdir = os.path.join(WORK, f"probe-{os.getpid()}")
    try:
        build_pool(workload, seed, workdir, in_process=False)
        t2 = time.perf_counter()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"import_s": t1 - t0, "setup_s": t2 - t0}))


def run_probes(workload: str, seed: int) -> tuple:
    """Median set-up and import time over fresh interpreters."""
    setups, imports = [], []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, __file__, "--probe", "--workload", workload, "--seed", str(seed)],
            env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        res = json.loads(out.stdout.strip().splitlines()[-1])
        setups.append(res["setup_s"])
        imports.append(res["import_s"])
    return statistics.median(setups), statistics.median(imports)


def percentile(sorted_values, p: float) -> float:
    """Linear interpolation between closest ranks, as numpy's default."""
    pos = (len(sorted_values) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_percentile(workload: str, n: int) -> float:
    usable = [p for p in PERCENTILES if p <= TAIL_CAP[workload] and n * (1 - p / 100.0) >= 10]
    return usable[-1] if usable else PERCENTILES[0]


class Tally:
    """Latencies, CPU time and failures of the jobs run in one pass."""

    def __init__(self):
        self.latencies = []
        self.cpu_s = 0.0
        self.child_rss_kb = 0
        self.failed = 0
        self.causes = Counter()
        self.bound_gaps = []
        self.round_cpu = []  # (jobs, CPU seconds) per completed round
        self.ref_samples = []  # reference computation times, in run order
        self.ref_at = []  # per job: reference samples taken before it

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def run(self, job):
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            out, causes = job.run(), None
        except Exception as exc:  # an unexpected exception fails the job
            out, causes = None, [f"{job.kind}: unexpected {type(exc).__name__}"]
        self.latencies.append(time.perf_counter() - t0)
        self.cpu_s += time.process_time() - c0
        usage = job.stats.pop("rusage", None)
        if usage is not None:
            self.cpu_s += usage.ru_utime + usage.ru_stime
            self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
        if causes is None:
            try:
                causes = job.check(out)
            except Exception as exc:  # an output the oracle cannot read
                causes = [f"{job.kind}: unreadable output ({type(exc).__name__})"]
        if causes:
            self.failed += 1
            self.causes.update(causes)
        if "bound_gap" in job.stats:
            self.bound_gaps.append(job.stats.pop("bound_gap"))

    def round_latencies(self) -> list:
        out, start = [], 0
        for n, _ in self.round_cpu:
            out.append(self.latencies[start:start + n])
            start += n
        return out

    def normalised_latencies(self) -> list:
        """Each job's latency divided by the median reference time of the
        two samples before it and the two after it."""
        out = []
        for lat, k in zip(self.latencies, self.ref_at):
            out.append(lat / statistics.median(self.ref_samples[max(0, k - 2):k + 2]))
        return out

    def run_rounds(self, rounds, seconds, reference):
        """Run whole rounds, cycling through the pool, until ``seconds``
        have passed; time ``reference`` between jobs every REF_INTERVAL_S."""
        start = time.perf_counter()
        next_ref = start
        done = 0
        while time.perf_counter() - start < seconds or not done:
            jobs, cpu = self.attempted, self.cpu_s
            for job in rounds[done % len(rounds)]:
                if time.perf_counter() >= next_ref:
                    self.ref_samples.append(reference.time())
                    next_ref = time.perf_counter() + REF_INTERVAL_S
                self.ref_at.append(len(self.ref_samples))
                self.run(job)
            self.round_cpu.append((self.attempted - jobs, self.cpu_s - cpu))
            done += 1
        self.ref_samples.append(reference.time())
        return done


def end_to_end(workload, tally, setup_s):
    # The wall-clock median latency, throughput and CPU are medians over
    # rounds, which damps short slow and fast spells of a shared machine.
    # The metrics in reference units, from which the drift is divided out,
    # pool the whole run's samples.
    rounds = tally.round_latencies()
    lat_ms = sorted(x * 1e3 for x in tally.latencies)
    norm = sorted(tally.normalised_latencies())
    tail = tail_percentile(workload, len(lat_ms))
    rss_kb = tally.child_rss_kb if workload == "cli" else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": setup_s,
        "latency_p50_ref": statistics.median(norm),
        "latency_mean_ref": statistics.fmean(norm),
        "latency_tail_ref": percentile(norm, tail),
        "peak_rss_mb": rss_kb / 1024.0,
        "jobs_per_s": statistics.median(len(r) / sum(r) for r in rounds),
        "latency_p50_ms": statistics.median(statistics.median(r) for r in rounds) * 1e3,
        "latency_tail_ms": percentile(lat_ms, tail),
        "cpu_s_per_job": statistics.median(cpu / n for n, cpu in tally.round_cpu),
    }
    beyond = sum(1 for x in lat_ms if x > values["latency_tail_ms"])
    ref_ms = statistics.median(tally.ref_samples) * 1e3
    notes = [
        f"tail percentile p{tail:g}: {beyond} of {len(lat_ms)} samples beyond it",
        f"reference computation: median {ref_ms:.4g} ms over {len(tally.ref_samples)} timings",
    ]
    notes += [f"{k} = {v:.6g} {UNITS[k]} (printed, not gated)" for k, v in values.items() if k not in GATED]
    return {k: (values[k], UNITS[k]) for k in GATED}, notes


def per_layer(tracer, tally, jobs, import_s, overhead):
    values = {k: (v, "ms" if k.endswith("ms") else "count") for k, v in tracer.summary().items()}
    c = tracer.counters
    calls = values["unambiguous.certify_uuqc.calls"][0]
    values.update({
        "unambiguous.certify_uuqc.calls_per_job": (calls / jobs, "calls/job"),
        "qec.ec_prob.exact_frac": (c["ec_prob.exact"] / c["ec_prob.calls"] if c["ec_prob.calls"] else 0.0, "fraction"),
        "qec.ec_prob.bound_gap_mean": (statistics.fmean(tally.bound_gaps) if tally.bound_gaps else 0.0, "probability"),
        "formats.bytes_in": (c["formats.bytes_in"], "B"),
        "formats.bytes_out": (c["formats.bytes_out"], "B"),
        "cli.import_ms": (import_s * 1e3, "ms"),
        "trace.overhead_pct": (overhead * 100.0, "%"),
    })
    return values


def machine_note() -> str:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return (
        f"machine: nproc={os.cpu_count()} blas_threads={BLAS_THREADS} python={sys.version.split()[0]} "
        f"numpy={np.__version__} blas={blas.get('name', '?')} {blas.get('version', '?')}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "uuqc", "__init__.py")):
        print(f"error: no uuqc sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.probe:
        probe(args.workload, args.seed)
        return 0

    setup_s, import_s = run_probes(args.workload, args.seed)
    workdir = os.path.join(WORK, f"run-{os.getpid()}")
    try:
        rounds = build_pool(args.workload, args.seed, workdir, in_process=bool(args.trace))
        if args.trace:
            tally, metrics, notes = traced_run(args, rounds, import_s)
        else:
            from common import Reference

            tally = Tally()
            tally.run_rounds(rounds, args.seconds, Reference())
            metrics, notes = end_to_end(args.workload, tally, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(machine_note())
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for note in notes:
        print(note)
    print(f"failed_frac = {tally.failed / tally.attempted:.6g} ({tally.failed} of {tally.attempted} jobs)")
    for cause, n in sorted(tally.causes.items()):
        print(f"  failure: {cause} x{n}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def traced_run(args, rounds, import_s):
    """Run each job of a fixed list of rounds twice, untraced and traced,
    back to back in alternating order; per-layer metrics come from the
    traced runs, the overhead from comparing the two sums."""
    from tracing import Tracer

    count = max(1, round(args.seconds * TRACE_ROUNDS_PER_S[args.workload]))
    jobs = [job for r in range(count) for job in rounds[r % len(rounds)]]
    tracer, plain, tally = Tracer(), Tally(), Tally()
    for index, job in enumerate(jobs):
        for traced in (False, True) if index % 2 else (True, False):
            if not traced:
                plain.run(job)
                continue
            tracer.job = index
            tracer.install()
            try:
                tally.run(job)
            finally:
                tracer.uninstall()
    overhead = sum(tally.latencies) / sum(plain.latencies) - 1.0
    os.makedirs(WORK, exist_ok=True)
    trace_path = os.path.join(WORK, f"trace-{args.workload}-{args.seed}.json")
    tracer.write(trace_path)
    metrics = per_layer(tracer, tally, len(jobs), import_s, overhead)
    # Both passes count as attempted, and a failure in either counts.
    tally.latencies += plain.latencies
    tally.failed += plain.failed
    tally.causes.update(plain.causes)
    notes = [
        f"traced {len(jobs)} jobs ({count} rounds); {len(tracer.spans)} spans written to "
        f"{os.path.relpath(trace_path, ROOT)}",
        f"tracing overhead: {overhead * 100:.2f}% over running the same jobs untraced",
    ]
    return tally, metrics, notes


if __name__ == "__main__":
    sys.exit(main())

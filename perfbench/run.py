"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a checkout; the program under test is the checkout's
src/cltau (no install needed).  Every workload is a closed loop with one
client in one process tree.  The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1); the line before it is a report with provenance, the
workload's own metric names and sample counts.  Reports, configs and
spans are written under .perfbench_out/ in the checkout.  See README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

WORKLOADS = {
    "sweep-cold": "cold convergence sweeps in fresh processes: stresses fracderiv "
                  "matrix builds, bypasses every warm cache",
    "solve-warm": "warm solves on numpy kernels: stresses forcing projection, kernel "
                  "moments and LU, bypasses fracderiv and exprlang",
    "config-warm": "warm solves of exprlang config problems: stresses exprlang "
                   "evaluation, bypasses fracderiv builds",
    "cli": "sequential cltau processes: stresses interpreter start, import and "
           "one-off small builds, bypasses warm caches",
}
END_TO_END = (("setup_s", "s"), ("op_ms.p50", "ms"), ("peak_rss_mb", "MB"),
              ("l2_digits_min", "digits"))
SETUP_SAMPLES = 3
MIN_SWEEPS = 3
IMPORT_SAMPLES = 3
# BLAS and OpenMP pools pinned to one thread in every benchmark process.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1",
              "NUMEXPR_NUM_THREADS": "1"}
CHILD_TIMEOUT_S = 170.0


class BenchError(RuntimeError):
    pass


def _environment() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + path if path else "")
    return env


def _source_provenance() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "cltau").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_commit": commit, "source_sha256": digest.hexdigest(),
            "nproc": len(os.sched_getaffinity(0)), "threads": THREAD_ENV}


def spawn_worker(workload: str, seed: int, seconds: float, trace: int,
                 env: dict) -> tuple[float, dict]:
    """Start a worker; returns (seconds from start to READY, its result)."""
    command = [sys.executable, str(HERE / "worker.py"), workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace), "--out", str(OUT)]
    start = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, cwd=ROOT, env=env,
                          text=True) as proc:
        try:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - start
            rest, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if ready.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"worker {workload} exited with code {proc.returncode}")
    return setup, json.loads(rest.strip().splitlines()[-1])


def _median_run_s(command, env) -> float:
    samples = []
    for _ in range(IMPORT_SAMPLES):
        start = time.perf_counter()
        subprocess.run(command, cwd=ROOT, env=env, check=True, timeout=60,
                       stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def run_workload(workload: str, seed: int, seconds: float, trace: int, env: dict) -> dict:
    """Setup samples and worker results for one run."""
    setups, results = [], []
    if workload == "sweep-cold":
        # Each sweep is its own process (at least MIN_SWEEPS, so the median
        # is a middle value); with --trace 1 every other one is traced.
        start = time.perf_counter()
        while len(results) < MIN_SWEEPS or time.perf_counter() - start < seconds:
            traced = trace and len(results) % 2 == 1
            setup, result = spawn_worker(workload, seed, 0, int(traced), env)
            setups.append(setup)
            results.append(result)
    elif trace:
        setup, result = spawn_worker(workload, seed, seconds, trace, env)
        setups.append(setup)
        results.append(result)
    else:
        # SETUP_SAMPLES workers, each set up once and timing its share of the
        # run: the timed operations then span the whole run's wall time, so
        # a slow stretch of the machine weighs on a third of them, not all.
        for _ in range(SETUP_SAMPLES):
            setup, result = spawn_worker(workload, seed, seconds / SETUP_SAMPLES, 0, env)
            setups.append(setup)
            results.append(result)
    return {"setups": setups, "results": results}


def _stdout_mismatches(results) -> int:
    """Commands whose stdout differed between worker processes (cli)."""
    seen, mismatched = {}, set()
    for result in results:
        for key, digest in result["stdout_sha256"].items():
            if seen.setdefault(key, digest) != digest:
                mismatched.add(key)
    return len(mismatched)


def summarize(workload: str, seed: int, seconds: float, trace: int, env: dict,
              runs: dict) -> tuple[dict, dict]:
    """(report, last-line result) for one run."""
    results = runs["results"]
    times = [t for r in results for t in r["times"]]
    traced_times = [t for r in results for t in r["traced_times"]]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results) + _stdout_mismatches(results)
    digits = [r["digits_min"] for r in results if r["digits_min"] is not None]
    setup_s = statistics.median(runs["setups"])
    peak = max(r["peak_rss_mb"] for r in results)
    report = {
        "workload": workload, "why": WORKLOADS[workload], "seed": seed,
        "seconds": seconds, "trace": trace,
        "provenance": {**_source_provenance(), **results[0]["provenance"], "seed": seed},
        "failed_frac": failed / attempted, "attempted": attempted, "failed": failed,
        "setup_s": setup_s, "setup_samples": len(runs["setups"]),
        "peak_rss_mb": peak, "l2_digits_min": min(digits) if digits else None,
    }
    correct = failed == 0 and bool(digits)
    if trace:
        span_files = [f for r in results for f in r["span_files"]]
        spans = []
        for path in span_files:
            with open(path, encoding="utf-8") as handle:
                spans.append(json.load(handle)["spans"])
            os.remove(path)
        merged = tracing.merge(spans)
        table, gap = tracing.layer_table(merged)
        interpreter = _median_run_s([sys.executable, "-c", "pass"], env)
        imported = _median_run_s([sys.executable, "-c", "import cltau.cli"], env)
        table["cli.interpreter_s"] = interpreter
        table["cli.import_s"] = imported - interpreter
        untraced = statistics.median(times) if times else float("nan")
        table["trace.overhead_ms.p50"] = (statistics.median(traced_times) - untraced) * 1000.0
        table["trace.selfsum_err_max"] = gap
        correct = correct and gap <= 1e-6 and table["trace.ops"] >= 1
        with open(OUT / f"trace-{workload}-seed{seed}.json", "w", encoding="utf-8") as handle:
            json.dump({"spans": merged}, handle)
        report["per_layer"] = table
        report["untraced_op_ms.p50"] = untraced * 1000.0
        report["traced_op_ms.p50"] = statistics.median(traced_times) * 1000.0
        metrics = {name: {"value": table[name], "unit": unit}
                   for name, unit, _ in tracing.per_layer_names()}
    else:
        if workload == "sweep-cold":
            report["sweep_s"] = statistics.median(times)
            report["sweeps"] = len(times)
        else:
            name = {"solve-warm": "warm_solve_ms", "config-warm": "config_solve_ms",
                    "cli": "cli_ms"}[workload]
            summary = checks.latency_summary(times)
            report[f"{name}.p50"] = summary["p50"]
            if "tail" in summary:
                report[f"{name}.p{summary['tail_percentile']:g}"] = summary["tail"]
            report[f"{name}.samples"] = summary["samples"]
        values = {"setup_s": setup_s, "op_ms.p50": statistics.median(times) * 1000.0,
                  "peak_rss_mb": peak, "l2_digits_min": report["l2_digits_min"]}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return report, {"correct": correct, "attempted": attempted, "failed": failed,
                    "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cltau" / "__init__.py").is_file():
        print(f"error: no cltau sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = _environment()
    try:
        runs = run_workload(args.workload, args.seed, args.seconds, args.trace, env)
        report, result = summarize(args.workload, args.seed, args.seconds, args.trace,
                                   env, runs)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    with open(OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the krongambler command line, end to end and per module.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload absorb --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --smoke

The benchmark writes seeded JSON spec files (``workloads.py``), then a
worker process (``worker.py``) sends them to ``krongambler.cli.main`` in a
closed loop: one client, each request sent when the previous one returned.
Every answer is judged by the benchmark's own oracle (``oracle.py``).

With ``--trace 0`` it prints the end-to-end metrics:

    setup_s         median wall time of fresh interpreters that import the
                    CLI and load the workload's first spec
    latency_p50_ms  median request latency (cli.main call to captured stdout)
    latency_p90_ms  90th-percentile latency; a failed request counts as +inf
    fail_frac       failed / attempted requests
    peak_rss_mb     peak RSS of the worker process that ran the workload

With ``--trace 1`` every request runs once plain and once under span
wrappers installed from ``tracing.py``; it prints per-layer metrics as
means per traced request, and writes the spans to
``.perfbench_work/trace-<workload>-seed<seed>.json``.

Each workload plants one known-defect request per round of 20 (a
spectral-link cliff or a win-probability overflow); their failures count in
``failed`` and ``fail_frac``. ``correct`` is false when any other request
fails the oracle, or when the oracle misses one of its planted wrong
outputs. BLAS runs single-threaded in every process the benchmark starts.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Without ``src/krongambler`` in
the working directory the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "fail_frac": "ratio",
    "peak_rss_mb": "MB",
}
COLD_STARTS = 8
MIN_REQUESTS = 100
WORK_DIR = ".perfbench_work"
CHILD_TIMEOUT_S = 150
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    return env


def cold_starts(root: str, spec_path: str, count: int) -> list:
    """Wall times of ``count`` fresh interpreters that import the CLI and
    load one spec."""
    cmd = [sys.executable, os.path.join(HERE, "coldstart.py"), root, spec_path]
    env = child_env()
    times = []
    for _ in range(count):
        start = time.perf_counter()
        # no timeout: waiting with one polls, which rounds times to 50 ms
        subprocess.run(cmd, check=True, env=env)
        times.append(time.perf_counter() - start)
    return times


def run_worker(root, requests_path, seconds, trace, min_requests, max_requests=None,
               trace_out=None) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), root, requests_path,
           "--seconds", str(seconds), "--trace", str(trace),
           "--min-requests", str(min_requests)]
    if max_requests is not None:
        cmd += ["--max-requests", str(max_requests)]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(),
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def provenance(root: str, seed: int, worker: dict) -> dict:
    sha = "unknown"
    try:
        top = subprocess.run(["git", "-C", root, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        if top.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath(root):
            sha = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "git_sha": sha,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        **worker.get("provenance", {}),
        "blas_threads_env": BLAS_ENV["OPENBLAS_NUM_THREADS"],
        "seed": seed,
    }


def end_to_end(record: dict, setup_s: float) -> dict:
    lat_ms = [x * 1e3 if x is not None else math.inf for x in record["latencies_s"]]
    values = {
        "setup_s": setup_s,
        "latency_p50_ms": nearest_rank(lat_ms, 0.5),
        "latency_p90_ms": nearest_rank(lat_ms, 0.9),
        "fail_frac": record["failed"] / record["attempted"],
        "peak_rss_mb": record["peak_rss_mb"],
    }
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}


def is_correct(record: dict) -> bool:
    for why in record["unexpected"][:10]:
        print(f"unexpected failure: {why}", file=sys.stderr)
    for label in record["self_test_missed"]:
        print(f"oracle missed a planted wrong output: {label}", file=sys.stderr)
    return (record["attempted"] >= 1 and not record["unexpected"]
            and not record["self_test_missed"])


def measure(root, workload, seed, seconds, trace, rounds=workloads.ROUNDS,
            cold_starts_n=COLD_STARTS, min_requests=MIN_REQUESTS, max_requests=None):
    """Generate, run and judge one workload; return (result, extra lines)."""
    run_dir = os.path.join(root, WORK_DIR, f"{workload}-seed{seed}-{os.getpid()}")
    try:
        requests = workloads.generate(workload, seed, os.path.join(run_dir, "specs"), rounds)
        requests_path = os.path.join(run_dir, "requests.json")
        with open(requests_path, "w") as fh:
            json.dump(requests, fh)
        lines = [("workload", workloads.describe(workload, seed, requests))]
        if trace:
            trace_out = os.path.join(root, WORK_DIR, f"trace-{workload}-seed{seed}.json")
            record = run_worker(root, requests_path, seconds, 1, 1, max_requests, trace_out)
            metrics = record["per_layer"]
            lines.append(("trace_file", os.path.relpath(trace_out, root)))
        else:
            # half the cold starts before the closed loop and half after it,
            # so a slow spell of the machine does not set the whole median;
            # the first start writes the byte-code caches and is not counted
            spec_path = requests[0]["argv"][1]
            setup = cold_starts(root, spec_path, cold_starts_n // 2 + 1)[1:]
            record = run_worker(root, requests_path, seconds, 0, min_requests, max_requests)
            setup += cold_starts(root, spec_path, cold_starts_n - len(setup))
            metrics = end_to_end(record, statistics.median(setup))
        lines.append(("run", {
            k: record[k] for k in ("elapsed_s", "attempted", "failed", "planted",
                                   "planted_failed", "self_test_kinds")
        }))
        lines.append(("provenance", provenance(root, seed, record)))
        result = {
            "correct": is_correct(record),
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": metrics,
        }
        return result, lines
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def smoke(root: str) -> int:
    """A few requests per workload in both modes; every metric named in
    BENCHMARK.json must be present with its unit."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for entry in spec["workloads"]:
        for trace in (0, 1):
            result, _ = measure(root, entry["name"], 1, 0, trace, rounds=1,
                                cold_starts_n=2, min_requests=0, max_requests=3)
            got = result["metrics"]
            if not result["correct"]:
                problems.append(f"{entry['name']} trace={trace}: a request failed the oracle")
            for name, unit in wanted[trace].items():
                if name not in got:
                    problems.append(f"{entry['name']} trace={trace}: {name} missing")
                elif got[name].get("unit") != unit or not unit:
                    problems.append(f"{entry['name']} trace={trace}: {name} unit "
                                    f"{got[name].get('unit')!r}, expected {unit!r}")
            print(f"smoke {entry['name']} trace={trace}: attempted {result['attempted']}, "
                  f"failed {result['failed']}, correct {result['correct']}, "
                  f"{len(got)} metrics")
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a few requests per workload; check metric names and units")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "krongambler", "cli.py")):
        print("run from a source checkout: src/krongambler/cli.py not found",
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(root)
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    result, lines = measure(root, args.workload, args.seed, args.seconds, args.trace)
    for label, value in lines:
        print(f"{label}: {json.dumps(value)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

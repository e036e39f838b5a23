"""Closed-loop client that runs one workload in its own process.

One client thread calls ``krongambler.cli.main(argv)`` in-process, sends
the next request only after the previous one returns, captures stdout and
judges every answer with the benchmark's oracle. Requests come in rounds;
the loop stops at the first round boundary after ``--seconds`` where at
least ``--min-requests`` requests were sent. With ``--trace 1`` each request
runs once untraced and once under span tracing, and the per-layer metrics
come from the traced calls.

Usage: python3 perfbench/worker.py ROOT REQUESTS_JSON --seconds S --trace 0|1
Prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import platform
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
from tracing import Tracer  # noqa: E402

# Stop even below --min-requests once this much time has gone, so a run
# always ends well inside the 180-second limit.
HARD_STOP_S = 100.0


def blas_info() -> dict:
    import numpy as np

    info = {"vendor": "unknown", "version": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["vendor"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        pass
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                info["threads"] = int(getattr(lib, sym)())
                break
    return info


def call(cli, argv) -> tuple:
    """One request: (seconds, exit code, escaped exception name, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    start = time.perf_counter_ns()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # the client keeps running; the oracle fails it
            error = type(exc).__name__
    elapsed = time.perf_counter_ns() - start
    return elapsed, code, error, out.getvalue()


def run(cli, requests, seconds, min_requests, trace, max_requests=None):
    """Run rounds of requests; return the raw record of the run."""
    rounds = {}
    for req in requests:
        rounds.setdefault(req["round"], []).append(req)
    order = [rounds[k] for k in sorted(rounds)]

    # warm-up: one request of each kind, so lazy imports and caches are filled
    seen = set()
    for req in order[0]:
        if req["kind"] not in seen and not req["planted"]:
            seen.add(req["kind"])
            call(cli, req["argv"])

    tracer = Tracer() if trace else None
    latencies, outcomes, samples = [], [], {}
    untraced_ns = traced_ns = 0
    begin = time.perf_counter()
    index = 0
    done = False
    while not done:
        for req in order[index % len(order)]:
            ns, code, error, out = call(cli, req["argv"])
            if tracer is not None:
                untraced_ns += ns
                tracer.request = len(outcomes)
                tracer.install()
                try:
                    ns, code, error, out = call(cli, req["argv"])
                finally:
                    tracer.uninstall()
                traced_ns += ns
            ok, why = oracle.check(req, code, error, out)
            outcomes.append((ok, req["planted"], why, req["kind"]))
            latencies.append(ns / 1e9 if ok else float("inf"))
            if ok and not req["planted"]:
                samples.setdefault(req["kind"], (req, out))
            elapsed = time.perf_counter() - begin
            if elapsed > HARD_STOP_S or len(outcomes) == max_requests:
                done = True
                break
        index += 1
        elapsed = time.perf_counter() - begin
        done = done or (elapsed >= seconds and len(outcomes) >= min_requests)

    record = {
        "elapsed_s": time.perf_counter() - begin,
        "latencies_s": [x if x != float("inf") else None for x in latencies],
        "attempted": len(outcomes),
        "failed": sum(not ok for ok, _, _, _ in outcomes),
        "planted": sum(p for _, p, _, _ in outcomes),
        "planted_failed": sum(p and not ok for ok, p, _, _ in outcomes),
        "unexpected": [f"{kind}: {why}" for ok, p, why, kind in outcomes
                       if not ok and not p],
        "self_test_missed": oracle.self_test(samples),
        "self_test_kinds": sorted(samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        record["per_layer"] = tracer.metrics(len(outcomes), untraced_ns, traced_ns)
        record["tracer"] = tracer
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root")
    parser.add_argument("requests")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--min-requests", type=int, default=100)
    parser.add_argument("--max-requests", type=int)
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)

    src = os.path.join(os.path.abspath(args.root), "src")
    sys.path.insert(0, src)
    import numpy
    import scipy
    import krongambler.cli as cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"krongambler imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    with open(args.requests) as fh:
        requests = json.load(fh)
    record = run(cli, requests, args.seconds, args.min_requests, bool(args.trace),
                 args.max_requests)
    tracer = record.pop("tracer", None)
    if tracer is not None and args.trace_out:
        tracer.write(args.trace_out)
    record["provenance"] = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "client_threads": 1,
    }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())

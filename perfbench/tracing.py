"""Span tracing installed from outside the package.

``Tracer.install`` replaces every module-level name (and pgf class
attribute) bound to a public function of the package's modules with a span
wrapper, so calls routed through ``cli`` or ``verify`` are caught as well.
A span records name, start, end, parent and request id; spans stay in
memory until ``write`` dumps them. A few wrappers also look at return
values to derive work counts (power-iteration steps, simulated path steps,
failed checks, dense bytes returned, link residuals).

Two kinds of public function are deliberately left unwrapped: the CLI's
subcommand handlers, which run inside ``cli.main`` so its self time covers
parsing and output formatting, and the per-state index helpers of ``game``,
which the formatters call once per lattice state.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter_ns

import numpy as np

MODULES = (
    "specfile", "cli", "game", "linalg", "birth_death", "siegmund",
    "intertwine", "absorption", "pgf", "simulate", "verify",
)
UNWRAPPED = {
    "cli": lambda name: name != "main",
    "game": lambda name: name in ("linear_index", "multi_index"),
}
PGF_METHODS = ("evaluate", "mass", "mean")

# Functions whose calls, self time and errors are reported, and the counts
# derived from their return values, in the order they are printed.
REPORTED = (
    "specfile.load_spec", "cli.main", "game.build_game",
    "game.check_communication", "linalg.kron_all",
    "siegmund.win_prob_product", "siegmund.win_prob_solve",
    "siegmund.product_order", "siegmund.reconstruct_primal",
    "siegmund.stationary_of", "verify.run_checks", "birth_death.bd_win_prob",
    "birth_death.bd_eigenvalues", "intertwine.build_dual",
    "intertwine.spectral_link_1d", "intertwine.dual_initial",
    "absorption.absorb_dist", "absorption.pgf_from_dual", "pgf.evaluate",
    "simulate.simulate", "simulate.simulate_coupled",
)
DERIVED = (
    ("linalg.dense_mb", "MB"),
    ("intertwine.link_residual_max", "abs"),
    ("absorption.absorb_dist.steps", "count"),
    ("absorption.absorb_dist.us_per_step", "us"),
    ("absorption.pgf_from_dual.steps", "count"),
    ("absorption.pgf_from_dual.us_per_step", "us"),
    ("absorption.pgf_from_dual.batch_width", "count"),
    ("simulate.simulate.steps", "count"),
    ("simulate.simulate.ns_per_step", "ns"),
    ("simulate.simulate.finished_ratio", "ratio"),
    ("simulate.simulate.timeouts", "count"),
    ("simulate.simulate_coupled.steps", "count"),
    ("simulate.simulate_coupled.ns_per_step", "ns"),
    ("simulate.simulate_coupled.coupling_violations", "count"),
    ("verify.checks_failed", "count"),
)
TRACE_META = (
    ("trace.requests", "count"),
    ("trace.spans_per_request", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.attributed_pct", "%"),
)


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in print order."""
    units = {}
    for name in REPORTED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_ms"] = "ms"
        units[f"{name}.errors"] = "count"
    units.update(DERIVED)
    for module in MODULES:
        units[f"{module}.total.self_ms"] = "ms"
    units.update(TRACE_META)
    return units


def _one_dim_link_residual(spec, rows) -> float:
    """max |L P - P_hat L| for one component: P its sink-restricted chain,
    P_hat the pure-birth chain on P's eigenvalues (ascending, last = 1)."""
    n = spec.N
    p, q = np.asarray(spec.p), np.asarray(spec.q)
    chain = np.zeros((n, n))
    chain[n - 1, n - 1] = 1.0
    for i in range(n - 1):
        chain[i, i] = 1.0 - p[i] - q[i]
        chain[i, i + 1] = p[i]
        if i:
            chain[i, i - 1] = q[i]
    inner = np.sqrt(p[:-1] * q[1:])
    sym = np.diag(1.0 - p - q) + np.diag(inner, 1) + np.diag(inner, -1)
    lam = np.append(np.linalg.eigvalsh(sym), 1.0)
    birth = np.diag(lam) + np.diag(1.0 - lam[:-1], 1)
    return float(np.max(np.abs(rows @ chain - birth @ rows)))


def _sim_steps(report, cfg) -> int:
    t_win = np.arange(len(report.counts_win))
    t_lose = np.arange(len(report.counts_lose))
    return int(t_win @ report.counts_win + t_lose @ report.counts_lose
               + report.n_timeout * cfg.max_steps)


class Tracer:
    """Span recorder for one worker process; install, run, uninstall."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.request = -1
        self.counts = defaultdict(float)
        self.deferred = []
        self._patches = []
        self._wrappers = {}

    # -- wrapping ---------------------------------------------------------

    def _observe(self, name, parent, args, kwargs, result):
        counts = self.counts
        if name.startswith("linalg.") and not parent.startswith("linalg.") \
                and name != "linalg.as_matrix" and isinstance(result, np.ndarray):
            counts["linalg.dense_mb"] += result.nbytes / 1e6
        elif name == "absorption.absorb_dist":
            counts[name + ".steps"] += len(result.pmf) - 1
        elif name == "absorption.pgf_from_dual":
            counts[name + ".steps"] += max(len(p.pmf) for p in result.parts) - 1
            counts[name + ".batch_width"] += len(result.parts)
        elif name in ("simulate.simulate", "simulate.simulate_coupled"):
            report = result[0] if isinstance(result, tuple) else result
            cfg = kwargs.get("cfg", args[2] if len(args) > 2 else None)
            counts[name + ".steps"] += _sim_steps(report, cfg)
            counts[name + ".paths"] += report.runs
            counts[name + ".finished"] += report.n_win + report.n_lose
            counts[name + ".timeouts"] += report.n_timeout
            if report.coupling_violations is not None:
                counts[name + ".coupling_violations"] += report.coupling_violations
        elif name == "intertwine.spectral_link_1d":
            self.deferred.append((kwargs.get("spec", args[0] if args else None), result))
        elif name == "verify.run_checks":
            counts["verify.checks_failed"] += sum(not c.passed for c in result)

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1] if stack else -1
            sid = len(tracer.spans)
            tracer.spans.append((name,))  # filled in when the span ends
            stack.append(sid)
            start = perf_counter_ns()
            error = True
            try:
                result = fn(*args, **kwargs)
                error = False
            finally:
                end = perf_counter_ns()
                stack.pop()
                tracer.spans[sid] = (name, start, end, parent, tracer.request, error)
            parent_name = tracer.spans[parent][0] if parent >= 0 else ""
            tracer._observe(name, parent_name, args, kwargs, result)
            return result

        return span

    def _targets(self, package: str) -> dict:
        """Map each wrapped function object to its span name."""
        targets = {}
        for short in MODULES:
            module = sys.modules[f"{package}.{short}"]
            skip = UNWRAPPED.get(short, lambda name: False)
            for name, obj in vars(module).items():
                if name.startswith("_") or skip(name):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    targets[obj] = f"{short}.{name}"
                elif short == "pgf" and inspect.isclass(obj) \
                        and obj.__module__ == module.__name__:
                    for method in PGF_METHODS:
                        if inspect.isfunction(obj.__dict__.get(method)):
                            targets[obj.__dict__[method]] = f"pgf.{method}"
        return targets

    def install(self, package: str = "krongambler"):
        if not self._wrappers:
            self._wrappers = {
                fn: self._wrap(name, fn) for fn, name in self._targets(package).items()
            }
        for mod_name, module in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            holders = [module] + [
                obj for obj in vars(module).values()
                if inspect.isclass(obj) and obj.__module__ == mod_name
            ]
            for holder in holders:
                for attr, obj in list(vars(holder).items()):
                    if inspect.isfunction(obj) and obj in self._wrappers:
                        setattr(holder, attr, self._wrappers[obj])
                        self._patches.append((holder, attr, obj))

    def uninstall(self):
        for holder, attr, obj in reversed(self._patches):
            setattr(holder, attr, obj)
        self._patches.clear()

    # -- aggregation ------------------------------------------------------

    def flush_deferred(self):
        """Compute the expensive derived values outside every span."""
        for spec, rows in self.deferred:
            res = _one_dim_link_residual(spec, np.asarray(rows))
            key = "intertwine.link_residual_max"
            self.counts[key] = max(self.counts[key], res)
        self.deferred.clear()

    def self_times(self) -> list:
        """Self time of every span: its duration minus its children's."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _, _, _), c in zip(self.spans, child)]

    def metrics(self, requests: int, untraced_ns: int, traced_ns: int) -> dict:
        """Per-layer metrics, times and counts as means per traced request."""
        self.flush_deferred()
        units = per_layer_units()
        per_fn = defaultdict(lambda: [0, 0, 0])
        per_module = defaultdict(int)
        selfs = self.self_times()
        for (name, _, _, _, _, error), own in zip(self.spans, selfs):
            acc = per_fn[name]
            acc[0] += 1
            acc[1] += own
            acc[2] += int(error)
            per_module[name.split(".")[0]] += own
        n = max(requests, 1)
        values = {}
        for name in REPORTED:
            calls, own, errors = per_fn[name]
            values[f"{name}.calls"] = calls / n
            values[f"{name}.self_ms"] = own / 1e6 / n
            values[f"{name}.errors"] = errors / n
        c = self.counts
        for name in ("absorption.absorb_dist", "absorption.pgf_from_dual"):
            steps = c[name + ".steps"]
            values[name + ".steps"] = steps / n
            values[name + ".us_per_step"] = per_fn[name][1] / 1e3 / steps if steps else 0.0
        values["absorption.pgf_from_dual.batch_width"] = (
            c["absorption.pgf_from_dual.batch_width"] / per_fn["absorption.pgf_from_dual"][0]
            if per_fn["absorption.pgf_from_dual"][0] else 0.0
        )
        for name in ("simulate.simulate", "simulate.simulate_coupled"):
            steps = c[name + ".steps"]
            values[name + ".steps"] = steps / n
            values[name + ".ns_per_step"] = per_fn[name][1] / steps if steps else 0.0
        paths = c["simulate.simulate.paths"]
        values["simulate.simulate.finished_ratio"] = (
            c["simulate.simulate.finished"] / paths if paths else 0.0
        )
        values["simulate.simulate.timeouts"] = c["simulate.simulate.timeouts"] / n
        values["simulate.simulate_coupled.coupling_violations"] = (
            c["simulate.simulate_coupled.coupling_violations"] / n
        )
        values["linalg.dense_mb"] = c["linalg.dense_mb"] / n
        values["intertwine.link_residual_max"] = c["intertwine.link_residual_max"]
        values["verify.checks_failed"] = c["verify.checks_failed"] / n
        for module in MODULES:
            values[f"{module}.total.self_ms"] = per_module[module] / 1e6 / n
        values["trace.requests"] = requests
        values["trace.spans_per_request"] = len(self.spans) / n
        values["trace.overhead_pct"] = (
            100.0 * (traced_ns - untraced_ns) / untraced_ns if untraced_ns else 0.0
        )
        values["trace.attributed_pct"] = (
            100.0 * sum(selfs) / traced_ns if traced_ns else 0.0
        )
        return {name: {"value": values[name], "unit": units[name]} for name in units}

    def write(self, path: str):
        names = sorted({s[0] for s in self.spans})
        index = {name: i for i, name in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({
                "fields": ["name", "start_ns", "end_ns", "parent", "request", "error"],
                "names": names,
                "spans": [[index[s[0]], *s[1:5], int(s[5])] for s in self.spans],
            }, fh)

"""Benchmark-side oracle: judges every CLI answer without the library's code.

Winning probabilities come from a log-space recurrence over each
component's rates, so they stay finite where a running product of q/p
overflows; products of the per-dimension values give the lattice values.
Every check returns ``(ok, reason)``. ``corruptions`` builds wrong outputs
from a right one, and ``self_test`` proves each of them is flagged.
"""

from __future__ import annotations

import csv
import io
import json
import math
from functools import lru_cache, reduce

import numpy as np

WIN_PROB_TOL = 1e-9
MASS_TOL = 1e-9
PGF_TOL = 1e-9
MONOTONE_SLACK = 1e-12
# two-sided tail probability of a 5-sigma normal deviation
SIM_ALPHA = 5.733e-7


def win_prob_1d(p, q) -> np.ndarray:
    """P(reach N before ruin | start i), i = 1..N, from log ratios.

    rho(i) = sum_{k<=i} r_k / sum_k r_k with r_1 = 1 and
    r_{k+1} = r_k q(k) / p(k); the sums are taken with logaddexp.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    with np.errstate(divide="ignore"):
        log_r = np.concatenate([[0.0], np.cumsum(np.log(q) - np.log(p))])
    acc = np.logaddexp.accumulate(log_r)
    return np.exp(acc - acc[-1])


def lattice_win_prob(spec: dict) -> np.ndarray:
    """Winning probabilities over the lattice, coordinate d fastest."""
    return reduce(np.kron, [win_prob_1d(d["p"], d["q"]) for d in spec["dims"]])


def start_win_prob(spec: dict) -> float:
    """Winning probability from the spec's start state."""
    return float(np.prod([
        win_prob_1d(d["p"], d["q"])[c - 1] for d, c in zip(spec["dims"], spec["start"])
    ]))


def _state_keys(shape) -> list:
    return [",".join(str(c + 1) for c in idx) for idx in np.ndindex(*shape)]


@lru_cache(maxsize=8)
def _log_factorials(n: int) -> np.ndarray:
    return np.array([math.lgamma(k + 1.0) for k in range(n + 1)])


def binomial_tail(k: int, n: int, p: float) -> float:
    """Two-sided exact tail: 2 * min(P(X <= k), P(X >= k)), X ~ Bin(n, p)."""
    if p <= 0.0 or p >= 1.0:
        return 1.0 if k == round(p * n) else 0.0
    lf = _log_factorials(n)
    j = np.arange(n + 1)
    logpmf = lf[n] - lf - lf[::-1] + j * math.log(p) + (n - j) * math.log1p(-p)
    pmf = np.exp(logpmf)
    return float(min(1.0, 2.0 * min(pmf[: k + 1].sum(), pmf[k:].sum())))


def _check_win_prob(spec, out) -> tuple:
    doc = json.loads(out)
    shape = [d["N"] for d in spec["dims"]]
    rho = lattice_win_prob(spec)
    keys = _state_keys(shape)
    for field in ("rho", "rho_solve"):
        got = doc[field]
        if sorted(got) != sorted(keys):
            return False, f"{field} has the wrong states"
        err = max(abs(got[k] - v) for k, v in zip(keys, rho))
        if not err <= WIN_PROB_TOL:
            return False, f"{field} off by {err:.3e}"
    return True, ""


def parse_absorb_csv(out: str) -> tuple:
    rows = list(csv.reader(io.StringIO(out)))
    if rows[0] != ["t", "pmf", "cdf"]:
        raise ValueError("missing CSV header")
    tail = 0.0
    if rows[-1][0] == "# tail":
        tail = float(rows[-1][1])
        rows = rows[:-1]
    pmf = np.array([float(r[1]) for r in rows[1:]])
    return pmf, tail


def _check_absorb(spec, out) -> tuple:
    pmf, tail = parse_absorb_csv(out)
    if len(pmf) == 0 or pmf.min() < 0.0:
        return False, "pmf is empty or has a negative entry"
    err = abs(pmf.sum() + tail - start_win_prob(spec))
    if not err <= MASS_TOL:
        return False, f"pmf mass + tail off rho by {err:.3e}"
    return True, ""


def _check_pgf(spec, out) -> tuple:
    doc = json.loads(out)
    rho = start_win_prob(spec)
    points = sorted(doc["values"].items(), key=lambda kv: float(kv[0]))
    values = [v for _, v in points]
    if float(points[-1][0]) != 1.0:
        return False, "no value at s=1"
    err = max(abs(values[-1] - rho), abs(doc["rho_at_1"] - rho))
    if not err <= PGF_TOL:
        return False, f"value at s=1 off rho by {err:.3e}"
    if any(b < a - MONOTONE_SLACK for a, b in zip(values, values[1:])):
        return False, "pgf values are not monotone in s"
    return True, ""


def _check_simulate(spec, out, coupled: bool) -> tuple:
    doc = json.loads(out)
    runs = doc["runs"]
    if doc["n_timeout"] != 0:
        return False, f"{doc['n_timeout']} runs timed out"
    if coupled and doc.get("coupling_violations") != 0:
        return False, f"coupling violations: {doc.get('coupling_violations')}"
    rho = start_win_prob(spec)
    if doc["n_win"] != round(doc["win_freq"] * runs):
        return False, "win_freq disagrees with n_win"
    # exact binomial form of |win_freq - rho| <= 5 SE, valid for tiny rho too
    tail = binomial_tail(int(doc["n_win"]), runs, rho)
    if tail < SIM_ALPHA:
        return False, f"win_freq {doc['win_freq']:.5f} vs rho {rho:.5f}"
    return True, ""


def _check_verify(out) -> tuple:
    failed = [c["name"] for c in json.loads(out)["checks"] if not c["pass"]]
    if failed:
        return False, "checks failed: " + ",".join(failed)
    return True, ""


def check(request: dict, code, error: str | None, out: str) -> tuple:
    """Judge one CLI call: ``code`` is its exit code, ``error`` the name of
    an exception that escaped it (or None), ``out`` its captured stdout."""
    if error is not None:
        return False, f"raised {error}"
    if code != 0:
        return False, f"exit code {code}"
    if "NaN" in out or "Infinity" in out:
        return False, "output holds NaN or Infinity"
    kind, spec = request["kind"], request["spec"]
    try:
        if kind in ("winprob", "overflow"):
            return _check_win_prob(spec, out)
        if kind == "absorb":
            return _check_absorb(spec, out)
        if kind == "pgf":
            return _check_pgf(spec, out)
        if kind in ("simulate", "coupled"):
            return _check_simulate(spec, out, kind == "coupled")
        if kind == "verify":
            return _check_verify(out)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return False, f"unreadable output: {type(exc).__name__}: {exc}"
    raise ValueError(f"unknown request kind {kind!r}")


def corruptions(kind: str, out: str) -> list:
    """Wrong variants of a right output, each of which ``check`` must flag."""
    bad = [("nan", out.replace("0.", "NaN", 1))]
    if kind in ("winprob", "overflow"):
        doc = json.loads(out)
        key = next(iter(doc["rho"]))
        doc["rho"][key] += 1e-6
        bad.append(("rho+1e-6", json.dumps(doc)))
    elif kind == "absorb":
        lines = out.splitlines()
        t, pmf, cdf = lines[-1].split(",") if not lines[-1].startswith("#") \
            else lines[-2].split(",")
        last = lines.index(f"{t},{pmf},{cdf}")

        def with_last(value):
            return "\n".join(lines[:last] + [f"{t},{value},{cdf}"] + lines[last + 1:])

        bad += [("negative pmf", with_last(-1e-6)),
                ("extra mass", with_last(float(pmf) + 1e-6))]
    elif kind == "pgf":
        doc = json.loads(out)
        shifted = dict(doc, values=dict(doc["values"]))
        shifted["values"]["1.0"] += 1e-6
        keys = sorted(doc["values"], key=float)
        swapped = dict(doc, values=dict(doc["values"]))
        swapped["values"][keys[0]] = doc["values"][keys[-2]] + 1e-3
        bad += [("value at 1 shifted", json.dumps(shifted)),
                ("not monotone", json.dumps(swapped))]
    elif kind in ("simulate", "coupled"):
        doc = json.loads(out)
        n = doc["runs"]
        shift = 10 + math.ceil(10 * math.sqrt(n * doc["win_freq"] * (1 - doc["win_freq"])))
        k = doc["n_win"] + shift if doc["n_win"] + shift <= n else doc["n_win"] - shift
        off = dict(doc, n_win=k, win_freq=k / n)
        bad += [("win_freq off by 10 SE", json.dumps(off)),
                ("timeout", json.dumps(dict(doc, n_timeout=1)))]
        if kind == "coupled":
            bad.append(("violation", json.dumps(dict(doc, coupling_violations=1))))
    elif kind == "verify":
        doc = json.loads(out)
        doc["checks"][0]["pass"] = False
        bad.append(("check failed", json.dumps(doc)))
    return bad


def self_test(samples: dict) -> list:
    """Labels of planted wrong outputs that ``check`` failed to flag.

    ``samples`` maps a request kind to (request, stdout) of a passing call.
    """
    missed = []
    for kind, (request, out) in sorted(samples.items()):
        for label, wrong in corruptions(kind, out):
            ok, _ = check(request, 0, None, wrong)
            if ok:
                missed.append(f"{kind}:{label}")
    return missed

"""Seeded request generator for the four benchmark workloads.

A workload is a list of rounds. Every round holds the same 20 slots, so the
request-kind and size mix of a run does not depend on how many rounds fit
into its time window; the seed changes the rates (within each slot's work
band), the absorb-dist start states, the planted request's shape and the
order of requests inside a round. One slot per round is *planted*: a
request that the program is known to get wrong today (a spectral-link cliff
or a win-probability overflow), so a later fix shows up as a drop in
``fail_frac``.

Rate budgets follow the test suite's generators: ``dual_safe`` keeps the
pure-birth dual nonnegative, ``game_safe`` only keeps the mixed game matrix
nonnegative. They are re-implemented here so the benchmark imports nothing
from the tests or the library.
"""

from __future__ import annotations

import itertools
import json
import os
from collections import Counter
from math import comb, prod

import numpy as np

ROUND_SIZE = 20
ROUNDS = 8
SIM_RUNS = 20_000
COUPLED_RUNS = 2_000
PGF_POINTS = "0.25,0.5,0.75,0.9,1.0"
BAND_DRAWS = 100
BAND_QUANTILES = (30, 50)
MAX_REDRAWS = 1000


def game_safe_budget(d: int, r: int) -> float:
    """Per-state move cap keeping the at-most-r-of-d mixture nonnegative."""
    c = comb(d, r)
    cap = 0.45 if c == 1 else 1.0 - (1.0 - 1.0 / c + 0.02) ** (1.0 / r)
    return min(cap, 0.45, 0.9 / d)


def dual_safe_budget(d: int, r: int) -> float:
    """Tighter cap that also keeps the pure-birth dual nonnegative."""
    c = comb(d, r)
    if c == 1:
        return 0.45
    floor = (1.0 - 1.0 / c + 0.02) ** (1.0 / r)
    return (1.0 - floor) / 2.0


def rand_rates(rng, n: int, budget: float, min_rate: float = 0.3):
    """Rates p(i), q(i) for states 1..n-1 with p(i) + q(i) <= budget."""
    p = rng.uniform(min_rate, 1.0, n - 1)
    q = rng.uniform(min_rate, 1.0, n - 1)
    scale = budget / max(float((p + q).max()), 1e-9)
    return [float(x) for x in p * scale], [float(x) for x in q * scale]


def overflow_rates(rng, n: int, budget: float = 0.45):
    """Down-biased rates whose product of q/p overflows a double.

    Every ratio lies in [1.85, 2], so the log of the running product passes
    709.8 (the log of the largest double) once n exceeds about 1,150.
    """
    p = rng.uniform(0.05, 0.15, n - 1)
    q = p * rng.uniform(1.85, 2.0, n - 1)
    scale = budget / float((p + q).max())
    return [float(x) for x in p * scale], [float(x) for x in q * scale]


# Every round runs each of a workload's 19 slots once, plus one planted
# request. A slot is (kind, shape, r); kinds: "absorb" (absorb-dist), "pgf",
# "simulate", "coupled" (simulate --coupled), "winprob", "verify", and
# "overflow" (win-prob on a 1-D chain with overflow rates). In a banded
# workload a slot's rates are redrawn until their work estimate (power
# iteration steps, or simulated path steps) lies in the slot's band (see
# ``work_band``), so a slot costs about the same under every seed.
#
# Slots come in four tiers of rising cost: 8 light, a block of 4 of one
# cost, 4 heavier, and a block of 3 of the top cost. A planted request
# fails and counts as +inf, so it sorts last. The median then falls in the
# middle of the 4-block and the 90th percentile inside the 3-block, never
# on an edge between two slots of different cost, which keeps both
# percentiles steady across seeds. The planted request is (kind, choices):
# a component past the spectral-link cliff, or overflow rates.
def _cliff(n_values, other=3):
    return [((n, other), r) for n in n_values for r in (1, 2)]


WORKLOADS = {
    "absorb": {
        "why": (
            "absorb-dist and pgf on dual-safe games; the dense power "
            "iterations over the game and the pure-birth dual dominate"
        ),
        "rate": "dual_safe",
        "banded": True,
        "slots": [
            ("absorb", (3, 3, 3), 1), ("absorb", (3, 3, 3), 2),
            ("absorb", (3, 3, 3), 3), ("absorb", (4, 4, 4), 1),
            ("pgf", (3, 3, 3), 1), ("pgf", (4, 4, 4), 1),
            ("absorb", (11, 11), 2), ("pgf", (10, 10), 2),
            *[("pgf", (5, 5, 5), 2)] * 4,
            ("absorb", (14, 14), 2), ("absorb", (16, 16), 2),
            ("pgf", (6, 6, 6), 1), ("absorb", (20,), 1),
            *[("absorb", (8, 8, 8), 1)] * 3,
        ],
        "planted": ("pgf", _cliff(range(25, 29))),
    },
    "simulate": {
        "why": (
            "Monte Carlo and coupled-dual paths; the per-draw dense "
            "cumulative-row compare dominates and no power iteration runs"
        ),
        "rate": "dual_safe",
        "banded": True,
        "slots": [
            ("coupled", (4, 4), 1), ("coupled", (5, 5), 2),
            ("coupled", (6, 6), 2), ("coupled", (3, 3, 3), 1),
            ("coupled", (4, 4), 2), ("simulate", (5, 5), 2),
            ("simulate", (4, 4), 1), ("simulate", (4, 4), 2),
            *[("simulate", (6, 6), 1)] * 4,
            ("simulate", (6, 6, 6), 3), ("coupled", (7, 7, 7), 2),
            ("simulate", (10, 10), 2), ("simulate", (17,), 1),
            *[("simulate", (16, 16), 2)] * 3,
        ],
        "planted": ("coupled", _cliff(range(25, 29))),
    },
    "winprob": {
        "why": (
            "win-prob on large game-safe games; dense Kronecker assembly, "
            "the communication check and the dense solve dominate"
        ),
        "rate": "game_safe",
        "banded": False,
        "slots": [
            ("winprob", (20, 20), 1), ("winprob", (20, 20), 2),
            ("winprob", (24, 24), 1), ("winprob", (24, 24), 2),
            ("winprob", (8, 8, 8), 1), ("winprob", (8, 8, 8), 2),
            ("winprob", (9, 9, 9), 3), ("winprob", (28, 28), 1),
            ("winprob", (32, 32), 1), ("winprob", (32, 32), 2),
            ("winprob", (10, 10, 10), 1), ("winprob", (10, 10, 10), 2),
            ("winprob", (36, 36), 2), ("winprob", (11, 11, 11), 2),
            ("winprob", (40, 40), 1), ("winprob", (44, 44), 2),
            # the largest games are in every round, so every run sets the
            # same peak RSS
            ("winprob", (48, 48), 1), ("winprob", (48, 48), 2),
            ("winprob", (50, 50), 1),
        ],
        "planted": ("overflow", [((n,), 1) for n in range(1200, 1501)]),
    },
    "verify": {
        "why": (
            "the full identity suite; the only workload that runs the "
            "Siegmund partner, the order matmul and the char-poly dets"
        ),
        "rate": "dual_safe",
        "banded": True,
        "slots": [
            ("verify", (3, 3, 3), 1), ("verify", (3, 3, 3), 2),
            ("verify", (3, 3, 3), 3), ("verify", (4, 4, 4), 1),
            ("verify", (4, 4, 4), 3), ("verify", (6, 6), 1),
            ("verify", (7, 7), 2), ("verify", (8, 8), 2),
            ("verify", (10, 10), 2), ("verify", (10, 10), 2),
            ("verify", (5, 5, 5), 3), ("verify", (5, 5, 5), 3),
            ("verify", (9, 9), 1), ("verify", (5, 5, 5), 1),
            ("verify", (11, 11), 2), ("verify", (12, 12), 2),
            ("verify", (6, 6, 6), 1), ("verify", (6, 6, 6), 1),
            ("verify", (4, 4, 4, 4), 4),
        ],
        "planted": ("verify", _cliff(range(20, 25))),
    },
}

KIND_ARGV = {
    "absorb": ["absorb-dist"],
    "pgf": ["pgf", "--eval", PGF_POINTS],
    "simulate": ["simulate"],
    "coupled": ["simulate", "--coupled"],
    "winprob": ["win-prob"],
    "overflow": ["win-prob"],
    "verify": ["verify"],
}


def estimated_steps(dims: list, r: int, eps: float = 1e-12) -> float:
    """Power-iteration length until the transient mass falls below eps.

    The restricted game (and its pure-birth dual) has eigenvalues
    sum_A prod_{j in A} lam_j(e_j) + 1 - C(d, r) over lattice states e. The
    largest one below 1 puts every coordinate but one at its top, so its gap
    is C(d-1, r-1) times the smallest gap among the components' transient
    blocks; the mass decays like (1 - gap)^t.
    """
    gaps = []
    for dim in dims:
        p, q = np.asarray(dim["p"]), np.asarray(dim["q"])
        inner = np.sqrt(p[:-1] * q[1:])
        block = np.diag(1.0 - p - q) + np.diag(inner, 1) + np.diag(inner, -1)
        gaps.append(1.0 - float(np.linalg.eigvalsh(block)[-1]))
    gap = comb(len(dims) - 1, r - 1) * min(gaps)
    return float(np.log(eps) / np.log1p(-gap))


def _restricted(dim: dict) -> np.ndarray:
    """One component's chain on 1..N with the ruin state removed."""
    n, p, q = dim["N"], dim["p"], dim["q"]
    out = np.eye(n)
    for i in range(n - 1):
        out[i, i] = 1.0 - p[i] - q[i]
        out[i, i + 1] = p[i]
        if i:
            out[i, i - 1] = q[i]
    return out


def expected_path_steps(dims: list, r: int, start) -> float:
    """Mean steps of one game path from ``start`` until it wins or is ruined.

    Solves (I - Q) m = 1 on the transient lattice states of the
    at-most-r-of-d mixture, assembled here from the components' rates.
    """
    shape = tuple(dim["N"] for dim in dims)
    mats = [_restricted(dim) for dim in dims]
    size = prod(shape)
    mixed = (1.0 - comb(len(dims), r)) * np.eye(size)
    for subset in itertools.combinations(range(len(dims)), r):
        term = np.ones((1, 1))
        for j, mat in enumerate(mats):
            term = np.kron(term, mat if j in subset else np.eye(len(mat)))
        mixed += term
    transient = np.eye(size - 1) - mixed[:-1, :-1]
    steps = np.linalg.solve(transient, np.ones(size - 1))
    return float(steps[np.ravel_multi_index([c - 1 for c in start], shape)])


def work_estimate(kind: str, dims: list, r: int, start) -> float:
    """Steps that dominate a request's cost: simulated path steps for the
    Monte Carlo kinds, power-iteration steps for the rest."""
    if kind in ("simulate", "coupled"):
        return expected_path_steps(dims, r, start)
    return estimated_steps(dims, r)


def _budget(rate: str, d: int, r: int) -> float:
    return dual_safe_budget(d, r) if rate == "dual_safe" else game_safe_budget(d, r)


def _draw_dims(rng, kind: str, shape: tuple, budget: float) -> list:
    dims = []
    for n in shape:
        p, q = overflow_rates(rng, n) if kind == "overflow" else rand_rates(rng, n, budget)
        dims.append({"N": int(n), "p": p, "q": q})
    return dims


def _start(rng, kind: str, shape: tuple) -> list:
    if kind in ("coupled", "verify"):
        # the coupled construction needs the minimal corner; verify uses it too
        return [1] * len(shape)
    if kind in ("pgf", "simulate"):
        # a pgf charges every dual state below its start, and a simulated
        # path's length depends on it: fix both
        return [2] * len(shape)
    return [int(rng.integers(1, n)) for n in shape]


def work_band(kind: str, shape: tuple, r: int, budget: float) -> tuple:
    """A narrow quantile band of ``work_estimate`` over the rate
    distribution, just below its median.

    Taken from a fixed stream, so the band belongs to the slot and not to
    the seed.
    """
    rng = np.random.default_rng(0)
    start = _start(rng, kind, shape)
    work = [work_estimate(kind, _draw_dims(rng, kind, shape, budget), r, start)
            for _ in range(BAND_DRAWS)]
    lo, hi = np.percentile(work, BAND_QUANTILES)
    return float(lo), float(hi)


def _spec_doc(rng, kind: str, shape: tuple, r: int, rate: str, band) -> dict:
    budget = _budget(rate, len(shape), r)
    start = _start(rng, kind, shape)
    for _ in range(MAX_REDRAWS):
        dims = _draw_dims(rng, kind, shape, budget)
        if band is None or band[0] <= work_estimate(kind, dims, r, start) <= band[1]:
            break
    else:
        raise ValueError(f"no {shape} r={r} rates in the work band {band}")
    doc = {
        "version": 1,
        "dims": dims,
        "mixing": {"preset": {"type": "r_of_d", "r": int(r)}},
        "start": start,
        "seed": int(rng.integers(0, 2**31 - 1)),
    }
    if kind == "simulate":
        doc["runs"] = SIM_RUNS
    elif kind == "coupled":
        doc["runs"] = COUPLED_RUNS
    return doc


def generate(workload: str, seed: int, out_dir: str, rounds: int = ROUNDS) -> list:
    """Write the workload's spec files under ``out_dir``; return its requests.

    A request is a dict with ``kind``, ``argv`` (spec path included),
    ``spec`` (the decoded document, for the oracle), ``planted`` and
    ``round``. The same (workload, seed, rounds) always gives the same files.
    """
    table = WORKLOADS[workload]
    rate = table["rate"]
    slots = [(kind, shape, r, False) for kind, shape, r in table["slots"]]
    slots.append((table["planted"][0], None, None, True))
    if len(slots) != ROUND_SIZE:
        raise ValueError(f"{workload}: {len(slots)} slots, expected {ROUND_SIZE}")
    bands = {
        (kind, shape, r): work_band(kind, shape, r, _budget(rate, len(shape), r))
        for kind, shape, r in set(table["slots"]) if table["banded"]
    }
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    os.makedirs(out_dir, exist_ok=True)
    requests = []
    for rnd in range(rounds):
        for pos in rng.permutation(len(slots)):
            kind, shape, r, planted = slots[pos]
            if planted:
                choices = table["planted"][1]
                shape, r = choices[int(rng.integers(len(choices)))]
            doc = _spec_doc(rng, kind, shape, r, rate, bands.get((kind, shape, r)))
            path = os.path.join(out_dir, f"r{rnd:02d}-{len(requests):04d}.json")
            with open(path, "w") as fh:
                json.dump(doc, fh)
            requests.append({
                "kind": kind,
                "argv": [KIND_ARGV[kind][0], path, *KIND_ARGV[kind][1:]],
                "spec": doc,
                "planted": planted,
                "round": rnd,
            })
    return requests


def _hist(values) -> dict:
    return {str(k): v for k, v in sorted(Counter(values).items())}


def describe(workload: str, seed: int, requests: list) -> dict:
    """Why the workload exists and what its generated requests look like."""
    states = [prod(d["N"] for d in q["spec"]["dims"]) for q in requests]
    edges = [1, 27, 100, 256, 1000, 3136, 10**6]
    bins = Counter()
    for s in states:
        lo = max(e for e in edges if e <= s)
        hi = min(e for e in edges if e > s)
        bins[f"{lo}-{hi - 1}"] += 1
    return {
        "workload": workload,
        "seed": seed,
        "why": WORKLOADS[workload]["why"],
        "rate_budget": WORKLOADS[workload]["rate"],
        "requests": len(requests),
        "round_size": ROUND_SIZE,
        "kinds": _hist(q["kind"] for q in requests),
        "states": dict(sorted(bins.items(), key=lambda kv: int(kv[0].split("-")[0]))),
        "d": _hist(len(q["spec"]["dims"]) for q in requests),
        "r": _hist(q["spec"]["mixing"]["preset"]["r"] for q in requests),
        "N": _hist(d["N"] for q in requests for d in q["spec"]["dims"]),
        "planted_share": sum(q["planted"] for q in requests) / len(requests),
    }

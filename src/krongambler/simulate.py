"""Monte Carlo simulation of game chains and the coupled pure-birth dual.

``simulate`` and ``simulate_coupled`` step the game through one walk
(``_walk``) and count the runs by one tally; the coupled dual moves between
the walk's steps. The runs split into ``workers`` random streams,
consecutive slices of the run arrays, run one after another in this
process, not in parallel: stream w draws from a PCG64 generator seeded with
``SeedSequence(seed).spawn(workers)[w]``, so a report depends only on
(seed, runs, workers, max_steps).

Runs move over lattice indices 0..n-1, the win corner last. A step samples
the categories [ruin | the row's nonzeros] of the current row of the CSR
kernel, at most 3^d + 1 of them, so a run absorbed in ruin holds the state
``RUIN`` (-1), which indexes no state. The coupled dual steps to one of the
at most 2^d nonzeros of its own CSR row, each weighted by one entry of the
Kronecker link (``SpectralLink.entries``); no kernel or link is made dense.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .errors import CouplingError
from .game import AbsorbingChain, GameSpec, build_game
from .intertwine import build_dual, dual_initial

#: State of a run that ended in ruin; lattice states are 0..n-1.
RUIN = -1


@dataclass(frozen=True)
class SimConfig:
    """Runs, seed, step cap and number of random streams of a simulation.

    The ``workers`` streams take consecutive slices of the runs, the first
    ``runs % workers`` of them one run longer (see the module docstring).
    """

    runs: int
    seed: int
    max_steps: int = 1_000_000
    workers: int = 1

    def __post_init__(self):
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

    def streams(self):
        """(generator, slice of the run arrays) per stream, in stream order."""
        seqs = np.random.SeedSequence(self.seed).spawn(self.workers)
        base, extra = divmod(self.runs, self.workers)
        ends = [w * base + min(w, extra) for w in range(self.workers + 1)]
        return [(np.random.default_rng(s), slice(a, b))
                for s, a, b in zip(seqs, ends, ends[1:])]


@dataclass(frozen=True, eq=False)
class SimReport:
    """Aggregated simulation outcome.

    ``counts_win``/``counts_lose`` are time-indexed run counts; the pmf
    properties condition them on the corresponding outcome.
    """

    runs: int
    seed: int
    workers: int
    n_win: int
    n_lose: int
    n_timeout: int
    counts_win: np.ndarray
    counts_lose: np.ndarray
    coupling_violations: int | None = None
    horizon_warning: bool = False

    @property
    def win_freq(self) -> float:
        return self.n_win / self.runs

    @property
    def win_se(self) -> float:
        f = self.win_freq
        return sqrt(f * (1.0 - f) / self.runs)

    @property
    def pmf_win(self) -> np.ndarray:
        total = max(self.n_win, 1)
        return self.counts_win / total

    @property
    def pmf_lose(self) -> np.ndarray:
        total = max(self.n_lose, 1)
        return self.counts_lose / total

    def as_dict(self) -> dict:
        out = {
            "runs": self.runs,
            "seed": self.seed,
            "workers": self.workers,
            "win_freq": self.win_freq,
            "win_se": self.win_se,
            "n_win": self.n_win,
            "n_lose": self.n_lose,
            "n_timeout": self.n_timeout,
            "counts_win": [int(x) for x in self.counts_win],
            "counts_lose": [int(x) for x in self.counts_lose],
            "pmf_win": [float(x) for x in self.pmf_win],
            "pmf_lose": [float(x) for x in self.pmf_lose],
            "horizon_warning": self.horizon_warning,
        }
        if self.coupling_violations is not None:
            out["coupling_violations"] = self.coupling_violations
        return out


def _sample_rows(cum: np.ndarray, dest: np.ndarray, states: np.ndarray,
                 u: np.ndarray) -> np.ndarray:
    """Inverse-cdf draw of each run's next state from its ``_cum_rows`` row.

    ``states`` are the runs' current states; the drawn category's
    destination is the next state, ``RUIN`` for ruin.
    """
    return dest[states, (u[:, None] >= cum[states]).sum(axis=1)]


def _row_table(kernel, lead=None) -> tuple:
    """(values, destinations) of every row's CSR nonzeros, in column order.

    With ``lead``, column 0 holds it with destination ``RUIN``. Rows are
    padded to the widest row with zero values and the row's last
    destination, so a rounding overshoot of a cumulative row lands on a
    state the row can reach.
    """
    n = kernel.shape[0]
    counts = np.diff(kernel.indptr)
    first = 0 if lead is None else 1
    width = first + int(counts.max(initial=1))
    rows = np.repeat(np.arange(n), counts)
    slot = np.arange(kernel.nnz) - kernel.indptr[rows] + first
    values = np.zeros((n, width))
    dest = np.full((n, width), RUIN, dtype=np.int64)
    values[rows, slot] = kernel.data
    dest[rows, slot] = kernel.indices
    if lead is not None:
        values[:, 0] = lead
    last = dest[np.arange(n), counts + first - 1]
    pad = np.arange(width) >= (counts + first)[:, None]
    return values, np.where(pad, last[:, None], dest)


def _cum_rows(chain: AbsorbingChain) -> tuple:
    """Per lattice state, cumulative step probabilities over [ruin | nonzeros].

    Returns the cumulative rows and their destinations (``_row_table``);
    adding the exact zeros of a dense row would leave every sum unchanged.
    """
    values, dest = _row_table(chain.matrix, chain.ruin)
    cum = np.cumsum(values, axis=1)
    # rounding guard: the last column must be a sure upper bound for u < 1
    cum[:, -1] = np.maximum(cum[:, -1], 1.0)
    return cum, dest


def _walk(cum, dest, win: int, states: np.ndarray, times: np.ndarray,
          rng, max_steps: int):
    """Step one stream's runs through the game until absorbed or timed out.

    ``states`` and ``times`` are the stream's views of the run arrays,
    updated in place; a run's time is the step at which it was absorbed,
    0 if it starts at the win corner. Each step yields the runs that moved
    (indices into the views) and their new states.
    """
    active = np.flatnonzero(states != win)
    for step in range(1, max_steps + 1):
        if len(active) == 0:
            return
        nxt = _sample_rows(cum, dest, states[active], rng.random(len(active)))
        states[active] = nxt
        done = (nxt == win) | (nxt == RUIN)
        times[active[done]] = step
        yield active, nxt
        active = active[~done]


def _tally(states: np.ndarray, times: np.ndarray, win: int, cfg: SimConfig,
           violations: int | None = None) -> SimReport:
    """Report of all runs from their final states and absorption times."""
    won, lost = states == win, states == RUIN
    n_win, n_lose = int(won.sum()), int(lost.sum())
    n_timeout = cfg.runs - n_win - n_lose
    length = int(times.max(initial=0)) + 1
    return SimReport(
        runs=cfg.runs,
        seed=cfg.seed,
        workers=cfg.workers,
        n_win=n_win,
        n_lose=n_lose,
        n_timeout=n_timeout,
        counts_win=np.bincount(times[won], minlength=length),
        counts_lose=np.bincount(times[lost], minlength=length),
        coupling_violations=violations,
        horizon_warning=n_timeout > 0.001 * cfg.runs,
    )


def simulate(chain: AbsorbingChain, start, cfg: SimConfig) -> SimReport:
    """Estimate the winning frequency and absorption-time laws empirically.

    ``start`` is a lattice index or a tuple of 1-based coordinates; runs
    that start at the win corner count as wins at t = 0.
    """
    s0 = int(start) if np.isscalar(start) else chain.to_linear(start)
    if not 0 <= s0 < chain.size:
        raise ValueError(f"start index {s0} is not a state of {chain.dims}")
    cum, dest = _cum_rows(chain)
    states = np.full(cfg.runs, s0, dtype=np.int64)
    times = np.zeros(cfg.runs, dtype=np.int64)
    for rng, runs in cfg.streams():
        for _ in _walk(cum, dest, chain.win_index, states[runs], times[runs],
                       rng, cfg.max_steps):
            pass
    return _tally(states, times, chain.win_index, cfg)


def _conditional_draw(rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Draw one column per row proportionally to nonnegative row weights."""
    totals = rows.sum(axis=1)
    if np.any(totals <= 0.0):
        raise CouplingError("zero-probability dual step; link column vanished")
    cum = np.cumsum(rows, axis=1) / totals[:, None]
    cum[:, -1] = 1.0
    return (u[:, None] >= cum).sum(axis=1)


def simulate_coupled(
    game: GameSpec,
    nu_star,
    cfg: SimConfig,
    record_paths: bool = False,
):
    """Run the game and rebuild the dual pure-birth path step by step.

    After observing the game move to a lattice state e, the dual moves from
    its current state ehat to a nonzero of its kernel row, with probabilities
    proportional to dual_kernel(ehat, .) * link(., e); the first dual state
    is drawn over the charged states of the start weights nu_hat,
    proportionally to nu_hat(.) * link(., e*). The construction synchronizes
    the two paths: the dual reaches its top corner exactly when the game
    reaches the win corner, and every mismatch is counted as a violation.
    Runs that end in ruin stop without a dual endpoint; runs that start at
    the win corner count as wins at t = 0.

    Requires the dual start weights to form a distribution (always true when
    the game starts at the minimal corner). With ``record_paths`` the return
    value is ``(report, paths)`` where each path lists (game_state,
    dual_state) pairs per step, both as lattice indices.
    """
    chain = build_game(game)
    link, dual = build_dual(game)
    init = dual_initial(link, nu_star)
    if not init.is_distribution:
        raise CouplingError(
            "dual start weights are signed; coupled simulation unavailable"
        )
    nu_hat = np.clip(init.values, 0.0, None)
    nu_hat = nu_hat / nu_hat.sum()
    charged = np.flatnonzero(nu_hat)
    dual_values, dual_dest = _row_table(dual.matrix)
    win = chain.win_index
    cum, dest = _cum_rows(chain)
    cum_nu = np.cumsum(np.asarray(nu_star, dtype=float).reshape(chain.size))
    cum_nu[-1] = max(cum_nu[-1], 1.0)

    states = np.zeros(cfg.runs, dtype=np.int64)
    times = np.zeros(cfg.runs, dtype=np.int64)
    violations = 0
    paths = [] if record_paths else None
    for rng, runs in cfg.streams():
        estar = states[runs]
        estar[:] = np.searchsorted(cum_nu, rng.random(len(estar)),
                                   side="right")
        w0 = nu_hat[charged] * link.entries(charged, estar[:, None])
        ehat = charged[_conditional_draw(w0, rng.random(len(estar)))]
        if record_paths:
            paths += [[(int(e), int(h))] for e, h in zip(estar, ehat)]
        for moved, nxt in _walk(cum, dest, win, estar, times[runs], rng,
                                cfg.max_steps):
            alive, nxt = moved[nxt != RUIN], nxt[nxt != RUIN]
            cand = dual_dest[ehat[alive]]
            rows = dual_values[ehat[alive]] * link.entries(cand, nxt[:, None])
            pick = _conditional_draw(rows, rng.random(len(alive)))
            ehat[alive] = cand[np.arange(len(alive)), pick]
            violations += int(np.sum((ehat[alive] == dual.win_index)
                                     != (nxt == win)))
            if record_paths:
                for r, e in zip(alive, nxt):
                    paths[runs.start + r].append((int(e), int(ehat[r])))

    report = _tally(states, times, win, cfg, violations)
    return (report, paths) if record_paths else report

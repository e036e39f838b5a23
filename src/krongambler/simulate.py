"""Monte Carlo simulation of game chains and the coupled pure-birth dual.

``simulate`` and ``simulate_coupled`` step the game through one walk
(``_walk``) and count the runs by one tally; the coupled dual moves between
the walk's steps. All runs draw from one PCG64 generator seeded with
``SeedSequence(seed).spawn(1)[0]`` (``SimConfig.rng``), so a report depends
only on (seed, runs, max_steps).

Runs move over lattice indices 0..n-1, the win corner last. A step samples
the categories [ruin | the row's nonzeros] of the current row of the CSR
kernel, at most 3^d + 1 of them, so a run absorbed in ruin holds the state
``RUIN`` (-1), which indexes no state. The coupled dual steps to one of the
at most 2^d nonzeros of its own CSR row, each weighted by one entry of the
Kronecker link (``SpectralLink.entries``); no kernel or link is made dense.

Each step is an inverse-cdf draw over a row's W categories, read from
category-major tables (``_cum_rows``): the cumulative boundaries of all n
rows as one C-contiguous (W - 1, n) array and the destinations as one flat
array, category k of row i at k * n + i. A batch of draws takes the active
runs' columns with one ``np.take``, counts the boundaries at most u
(``_inverse_cdf``, which the dual's conditional draw shares) and reads the
destinations with one more ``take``. On the ``simulate`` benchmark
workload (one thread of a 2-vCPU Xeon) a plain run-step costs about 65 ns
and a coupled one about 1.6 us, most of it in the dual's step.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .errors import CouplingError, HorizonError
from .game import (AbsorbingChain, GameSpec, as_integer, build_game,
                   linear_index, start_law)
from .intertwine import build_dual, dual_initial

#: State of a run that ended in ruin; lattice states are 0..n-1.
RUIN = -1

#: Dual start weights down to -_WEIGHT_TOL count as nonnegative.
_WEIGHT_TOL = 1e-12

#: Share of the runs: more timeouts than this set ``horizon_warning``, and
#: runs that finish within the step cap with a lower probability than this
#: stop the simulation before its first draw (``_check_horizon``).
TIMEOUT_SHARE = 0.001


@dataclass(frozen=True)
class SimConfig:
    """Runs, seed and step cap of a simulation, each an integer (not a bool)."""

    runs: int
    seed: int
    max_steps: int = 1_000_000

    def __post_init__(self):
        for name in ("runs", "seed", "max_steps"):
            object.__setattr__(self, name, as_integer(getattr(self, name), name))
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    def rng(self) -> np.random.Generator:
        """A fresh generator for all the runs of one simulation."""
        # the first spawned child: every recorded report drew from it
        seq = np.random.SeedSequence(self.seed).spawn(1)[0]
        return np.random.default_rng(seq)


@dataclass(frozen=True, eq=False)
class SimReport:
    """Aggregated outcome of all the runs of one ``SimConfig``.

    ``counts_win``/``counts_lose`` are time-indexed run counts; the pmf
    properties condition them on the corresponding outcome.
    """

    runs: int
    seed: int
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


def _inverse_cdf(bounds: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Category of each draw: how many of its boundaries are at most u.

    ``bounds`` is category-major, (W - 1, m) for m draws over W categories:
    column i holds draw i's cumulative probabilities of the first W - 1
    categories, and a boundary equal to u[i] counts. The last boundary,
    the row total, is left out: it is 1 up to rounding, and the draws are
    u < 1, so the last category takes the rest.
    """
    return (bounds <= u).sum(axis=0)


def _sample_rows(cum: np.ndarray, dest: np.ndarray, states: np.ndarray,
                 u: np.ndarray) -> np.ndarray:
    """Inverse-cdf draw of each run's next state from a ``_cum_rows`` table.

    ``cum`` holds the (W - 1, n) boundaries of n rows and ``dest`` the flat
    category-major destinations, ``dest[k * n + i]`` for category k of row
    i; ``states`` are the runs' rows.
    """
    k = _inverse_cdf(np.take(cum, states, axis=1), u)
    return dest.take(k * cum.shape[1] + states)


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

    Returns the category-major table of ``_sample_rows``: the boundaries as
    a C-contiguous (W - 1, n) array and the destinations (``_row_table``)
    flat. Adding the exact zeros of a dense row would leave every sum
    unchanged.
    """
    values, dest = _row_table(chain.matrix, chain.ruin)
    cum = np.cumsum(values[:, :-1], axis=1)
    return np.ascontiguousarray(cum.T), dest.T.ravel()


def _walk(cum, dest, win: int, states: np.ndarray, times: np.ndarray,
          rng, max_steps: int):
    """Step the runs through the game until absorbed or timed out.

    ``states`` and ``times`` are the run arrays, updated in place; a run's
    time is the step at which it was absorbed, 0 if it starts at the win
    corner. Each step yields the indices of the runs that moved and their
    new states.
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
        n_win=n_win,
        n_lose=n_lose,
        n_timeout=n_timeout,
        counts_win=np.bincount(times[won], minlength=length),
        counts_lose=np.bincount(times[lost], minlength=length),
        coupling_violations=violations,
        horizon_warning=n_timeout > TIMEOUT_SHARE * cfg.runs,
    )


def _check_horizon(chain: AbsorbingChain, max_steps: int) -> None:
    """Raise HorizonError when runs from transient states can hardly finish.

    A run stays transient for one more step with probability at least r,
    the least row sum of the transient block Q, so it is absorbed within
    ``max_steps`` steps with probability at most 1 - r^max_steps; below
    ``TIMEOUT_SHARE`` nearly every run would time out.
    """
    r = chain.least_row_sum
    bound = 1.0 - r**max_steps
    if bound < TIMEOUT_SHARE:
        raise HorizonError(
            f"a run is absorbed within {max_steps} steps with probability "
            f"at most {bound:.3e} (least row sum of Q {r!r})"
        )


def simulate(chain: AbsorbingChain, start, cfg: SimConfig) -> SimReport:
    """Estimate the winning frequency and absorption-time laws empirically.

    ``start`` holds the 1-based integer coordinates of a lattice state
    (``game.linear_index``, which raises IndexError for anything else);
    runs that start at the win corner count as wins at t = 0. From any
    other start, raises HorizonError before the first draw when a run would
    finish within ``cfg.max_steps`` steps with probability below
    ``TIMEOUT_SHARE`` (``_check_horizon``).
    """
    s0 = linear_index(chain.dims, start)
    if s0 != chain.win_index:
        _check_horizon(chain, cfg.max_steps)
    cum, dest = _cum_rows(chain)
    states = np.full(cfg.runs, s0, dtype=np.int64)
    times = np.zeros(cfg.runs, dtype=np.int64)
    for _ in _walk(cum, dest, chain.win_index, states, times, cfg.rng(),
                   cfg.max_steps):
        pass
    return _tally(states, times, chain.win_index, cfg)


def _conditional_draw(rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Draw one column per row proportionally to nonnegative row weights."""
    totals = rows.sum(axis=1)
    if np.any(totals <= 0.0):
        raise CouplingError("zero-probability dual step; link column vanished")
    return _inverse_cdf(np.cumsum(rows[:, :-1], axis=1).T / totals, u)


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
    the win corner count as wins at t = 0. When ``nu_star`` charges a
    transient state, the step-cap test of ``simulate`` runs before the dual
    is built.

    ``nu_star`` is a start law (``game.start_law``). Its dual start weights
    (``dual_initial``) must form a distribution, as from the bottom corner;
    else CouplingError says they are signed, or names their sum. With
    ``record_paths`` the return value is ``(report, paths)`` where each
    path lists (game_state, dual_state) pairs per step, both as lattice
    indices.
    """
    nu_star = start_law(game.shape, nu_star)
    chain = build_game(game)
    if nu_star[:-1].any():
        _check_horizon(chain, cfg.max_steps)
    link, dual = build_dual(game)
    nu_hat = dual_initial(link, nu_star)
    if nu_hat.min() < -_WEIGHT_TOL:
        raise CouplingError(
            "dual start weights are signed; coupled simulation unavailable"
        )
    mass = nu_hat.sum()
    if not abs(mass - 1.0) <= 1e-9:
        raise CouplingError(
            f"dual start weights sum to {mass}, not 1; coupled simulation "
            "unavailable"
        )
    nu_hat = np.clip(nu_hat, 0.0, None)
    nu_hat = nu_hat / nu_hat.sum()
    charged = np.flatnonzero(nu_hat)
    dual_values, dual_dest = _row_table(dual.matrix)
    win = chain.win_index
    cum, dest = _cum_rows(chain)
    cum_nu = np.cumsum(nu_star)
    cum_nu[-1] = max(cum_nu[-1], 1.0)

    rng = cfg.rng()
    states = np.searchsorted(cum_nu, rng.random(cfg.runs), side="right")
    times = np.zeros(cfg.runs, dtype=np.int64)
    w0 = nu_hat[charged] * link.entries(charged, states[:, None])
    ehat = charged[_conditional_draw(w0, rng.random(cfg.runs))]
    violations = 0
    paths = ([[(int(e), int(h))] for e, h in zip(states, ehat)]
             if record_paths else None)
    for moved, nxt in _walk(cum, dest, win, states, times, rng,
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
                paths[r].append((int(e), int(ehat[r])))

    report = _tally(states, times, win, cfg, violations)
    return (report, paths) if record_paths else report

"""Monte Carlo simulation of game chains and the coupled pure-birth dual.

The runs split into ``workers`` random streams, run one after another in
this process, not in parallel: stream w draws from a PCG64 generator seeded
with ``SeedSequence(seed).spawn(workers)[w]``, and results merge in stream
order, so a report depends only on (seed, runs, workers, max_steps).

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
    runs: int
    seed: int
    max_steps: int = 1_000_000
    workers: int = 1

    def __post_init__(self):
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

    def streams(self):
        seqs = np.random.SeedSequence(self.seed).spawn(self.workers)
        return [np.random.default_rng(s) for s in seqs]

    def chunks(self):
        base, extra = divmod(self.runs, self.workers)
        return [base + (1 if w < extra else 0) for w in range(self.workers)]


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


def _merge(counts_win, counts_lose):
    t_max = max([len(c) for c in counts_win + counts_lose] + [1])
    win = np.zeros(t_max, dtype=np.int64)
    lose = np.zeros(t_max, dtype=np.int64)
    for c in counts_win:
        win[: len(c)] += c
    for c in counts_lose:
        lose[: len(c)] += c
    return win, lose


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


def simulate(chain: AbsorbingChain, start, cfg: SimConfig) -> SimReport:
    """Estimate the winning frequency and absorption-time laws empirically.

    ``start`` is a lattice index or a tuple of 1-based coordinates.
    """
    s0 = int(start) if np.isscalar(start) else chain.to_linear(start)
    if not 0 <= s0 < chain.win_index:
        raise ValueError("start state must be transient")
    cum, dest = _cum_rows(chain)
    win = chain.win_index

    counts_win, counts_lose = [], []
    n_win = n_lose = n_timeout = 0
    for rng, n_runs in zip(cfg.streams(), cfg.chunks()):
        states = np.full(n_runs, s0, dtype=np.int64)
        times = np.zeros(n_runs, dtype=np.int64)
        active = np.arange(n_runs)
        for step in range(1, cfg.max_steps + 1):
            if len(active) == 0:
                break
            u = rng.random(len(active))
            nxt = _sample_rows(cum, dest, states[active], u)
            states[active] = nxt
            done = (nxt == win) | (nxt == RUIN)
            times[active[done]] = step
            active = active[~done]
        w_mask = states == win
        l_mask = states == RUIN
        w_mask[active] = False
        l_mask[active] = False
        n_win += int(w_mask.sum())
        n_lose += int(l_mask.sum())
        n_timeout += len(active)
        counts_win.append(np.bincount(times[w_mask]))
        counts_lose.append(np.bincount(times[l_mask]))

    merged_win, merged_lose = _merge(counts_win, counts_lose)
    return SimReport(
        runs=cfg.runs,
        seed=cfg.seed,
        workers=cfg.workers,
        n_win=n_win,
        n_lose=n_lose,
        n_timeout=n_timeout,
        counts_win=merged_win,
        counts_lose=merged_lose,
        horizon_warning=n_timeout > 0.001 * cfg.runs,
    )


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
    Runs that end in ruin stop without a dual endpoint.

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
    nu_star = np.asarray(nu_star, dtype=float).reshape(chain.size)

    charged = np.flatnonzero(nu_hat)
    dual_values, dual_dest = _row_table(dual.matrix)
    win = chain.win_index
    dual_win = dual.win_index

    cum, dest = _cum_rows(chain)
    cum_nu = np.cumsum(nu_star)
    cum_nu[-1] = max(cum_nu[-1], 1.0)

    counts_win, counts_lose = [], []
    n_win = n_lose = n_timeout = 0
    violations = 0
    paths = [] if record_paths else None

    for rng, n_runs in zip(cfg.streams(), cfg.chunks()):
        u = rng.random(n_runs)
        estar = np.searchsorted(cum_nu, u, side="right").astype(np.int64)
        w0 = nu_hat[charged] * link.entries(charged, estar[:, None])
        ehat = charged[_conditional_draw(w0, rng.random(n_runs))]
        times = np.zeros(n_runs, dtype=np.int64)
        outcome = np.zeros(n_runs, dtype=np.int8)  # 0 active, 1 win, 2 lose
        active = np.arange(n_runs)
        run_paths = (
            [[(int(e), int(h))] for e, h in zip(estar, ehat)]
            if record_paths
            else None
        )
        for step in range(1, cfg.max_steps + 1):
            if len(active) == 0:
                break
            u = rng.random(len(active))
            nxt = _sample_rows(cum, dest, estar[active], u)

            lost = nxt == RUIN
            lost_runs = active[lost]
            outcome[lost_runs] = 2
            times[lost_runs] = step

            alive = active[~lost]
            nxt_alive = nxt[~lost]
            if len(alive):
                cand = dual_dest[ehat[alive]]
                rows = dual_values[ehat[alive]] * link.entries(
                    cand, nxt_alive[:, None]
                )
                pick = _conditional_draw(rows, rng.random(len(alive)))
                new_hat = cand[np.arange(len(alive)), pick]
                violations += int(
                    np.sum((new_hat == dual_win) != (nxt_alive == win))
                )
                ehat[alive] = new_hat
                estar[alive] = nxt_alive
                won = nxt_alive == win
                won_runs = alive[won]
                outcome[won_runs] = 1
                times[won_runs] = step
            if record_paths:
                for r, e_new in zip(alive, nxt_alive):
                    run_paths[r].append((int(e_new), int(ehat[r])))
            active = active[(~lost) & (nxt != win)]
        n_win += int(np.sum(outcome == 1))
        n_lose += int(np.sum(outcome == 2))
        n_timeout += int(np.sum(outcome == 0))
        counts_win.append(np.bincount(times[outcome == 1]))
        counts_lose.append(np.bincount(times[outcome == 2]))
        if record_paths:
            paths.extend(run_paths)

    merged_win, merged_lose = _merge(counts_win, counts_lose)
    report = SimReport(
        runs=cfg.runs,
        seed=cfg.seed,
        workers=cfg.workers,
        n_win=n_win,
        n_lose=n_lose,
        n_timeout=n_timeout,
        counts_win=merged_win,
        counts_lose=merged_lose,
        coupling_violations=violations,
        horizon_warning=n_timeout > 0.001 * cfg.runs,
    )
    return (report, paths) if record_paths else report

"""Every one-dimensional route against the exact rational reference.

The reference (``exact.py``) solves the chain the float rates describe in
``fractions.Fraction``, so each bound here is a route's own error. The
chains: random chains of up to 40 states with and without ruin, the golden
chains, the classical duals of the two-urn walks with n <= 20, and the slow
family N = 3, q(1) = 0 with every rate 1e-5 .. 1e-13. Each bound is the one
its route meets today, over the worst chain and start.
"""

from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

import exact
from conftest import rand_bd, two_urn_mixture_pgf
from krongambler import (
    BirthDeathSpec,
    GameSpec,
    ResolventPgf,
    bd_win_prob,
    build_game,
    classical_ssd_1d,
    pgf_two_sided,
    win_prob_solve,
)
from krongambler.game import lattice_point_mass
from krongambler.intertwine import ehrenfest_ergodic

POINTS = (Fraction(1, 2), Fraction(3, 4), Fraction(1))
URNS = (3, 5, 8, 12, 16, 20)
SLOW_RATES = (1e-5, 1e-7, 1e-9, 1e-11, 1e-13)


def random_chains():
    rng = np.random.default_rng(160)
    return [
        rand_bd(rng, int(rng.integers(2, 41)), q1_zero=bool(i % 2))
        for i in range(20)
    ]


def golden_chains():
    return [BirthDeathSpec(N=3, p=(p, p), q=(q, q))
            for p, q in [(0.3, 0.1), (0.25, 0.15)]]


def urn_chains():
    return [classical_ssd_1d(ehrenfest_ergodic(n))[0] for n in URNS]


def slow_chain(rate):
    return BirthDeathSpec(N=3, p=(rate, rate), q=(0.0, rate))


def chains():
    return random_chains() + golden_chains() + urn_chains()


@lru_cache(maxsize=None)
def reference(spec):
    """The exact win probabilities, (win, lose) laws at POINTS and means."""
    laws = {(target, s): exact.law(spec, s, target)
            for target in ("win", "lose") for s in POINTS}
    means = {target: exact.mean(spec, target) for target in ("win", "lose")}
    return exact.rho(spec), laws, means


def one_dim_chain(spec):
    game = GameSpec(dims=(spec,), subsets=(frozenset({1}),), coeffs=(1.0,))
    return game, build_game(game)


def win_prob_errors(spec):
    rho = reference(spec)[0]
    closed = max(map(exact.rel_error, bd_win_prob(spec), rho))
    solve = max(map(exact.rel_error, win_prob_solve(one_dim_chain(spec)[1]), rho))
    return closed, solve


def fill_errors(spec):
    """Worst errors of pgf_two_sided's (evaluate, mass, mean), win and lose."""
    _, laws, means = reference(spec)
    worst = np.zeros(3)
    for start in range(1, spec.N + 1):
        for target, pgf in zip(("win", "lose"), pgf_two_sided(spec, start)):
            worst = np.maximum(worst, [
                max(exact.rel_error(pgf.evaluate(float(s)),
                                    laws[target, s][start - 1])
                    for s in POINTS),
                exact.rel_error(pgf.mass(), laws[target, 1][start - 1]),
                exact.rel_error(pgf.mean(), means[target][start - 1]),
            ])
    return worst


def resolvent_errors(spec):
    """Worst errors of ResolventPgf's (evaluate, mean) over every start."""
    _, laws, means = reference(spec)
    game, chain = one_dim_chain(spec)
    worst = np.zeros(2)
    for start in range(1, spec.N + 1):
        pgf = ResolventPgf(chain, lattice_point_mass(game.shape, (start,)))
        worst = np.maximum(worst, [
            max(exact.rel_error(pgf.evaluate(float(s)),
                                laws["win", s][start - 1]) for s in POINTS),
            exact.rel_error(pgf.mean(), means["win"][start - 1]),
        ])
    return worst


def test_the_family_has_at_least_30_chains():
    assert len(chains()) + len(SLOW_RATES) >= 30
    assert max(s.N for s in random_chains()) <= 40
    assert {s.sink_reachable for s in random_chains()} == {True, False}


def test_exact_reference_identities():
    # win and lose partition the absorption, and the two-state chain is a
    # geometric law: alpha s / (1 - (1 - alpha) s), exactly
    for spec in chains():
        rho, laws, _ = reference(spec)
        assert [w + l for w, l in zip(rho, laws["lose", 1])] == [1] * spec.N
    alpha = Fraction(0.35)
    spec = BirthDeathSpec(N=2, p=(0.35,), q=(0.0,))
    for s in POINTS:
        assert exact.law(spec, s)[0] == alpha * s / (1 - (1 - alpha) * s)
    assert exact.mean(spec) == [1 / alpha, 0]


def test_win_probabilities_against_exact():
    errors = np.array([win_prob_errors(spec) for spec in chains()])
    assert errors[:, 0].max() <= 4e-15  # bd_win_prob: 8.2e-16
    assert errors[:, 1].max() <= 1e-12  # win_prob_solve's LU: 1.5e-13


def test_pgf_two_sided_against_exact():
    errors = np.array([fill_errors(spec) for spec in chains()])
    evaluate, mass, mean = errors.max(axis=0)
    assert evaluate <= 5e-12  # 4.8e-13
    assert mass <= 2e-12  # 2.3e-13, the lose mass 1 - rho
    # 1.3e-11: near the top, the mean is a difference of two large sums
    assert mean <= 1e-10


def test_resolvent_pgf_against_exact():
    errors = np.array([resolvent_errors(spec) for spec in chains()])
    evaluate, mean = errors.max(axis=0)
    assert evaluate <= 1e-12  # 1.5e-13
    assert mean <= 3e-12  # 2.8e-13


def test_two_urn_mixture_against_exact():
    worst_value = worst_mean = 0.0
    for n, spec in zip(URNS, urn_chains()):
        _, laws, means = reference(spec)
        for m in range(1, n + 1):
            mixture = two_urn_mixture_pgf(n, m)
            worst_value = max(worst_value, *(
                exact.rel_error(mixture.evaluate(float(s)), laws["win", s][m - 1])
                for s in POINTS
            ))
            worst_mean = max(worst_mean, exact.rel_error(mixture.mean(),
                                                         means["win"][m - 1]))
    assert worst_value <= 5e-12  # 6.4e-13
    assert worst_mean <= 2e-10  # 1.8e-11


# The LU routes form 1 - P[i, i] near 1 and lose the digits of the slow
# rates (ROADMAP item 1); these bounds record that gap as it stands.
# bd_win_prob reads only the rate ratios and stays exact; pgf_two_sided
# solves its rates as eigenvalues of I - Q and stays within 9.3e-15.
SLOW_BOUNDS = {1e-5: 1e-10, 1e-7: 1e-8, 1e-9: 1e-6, 1e-11: 1e-4, 1e-13: 1e-2}


@pytest.mark.parametrize("rate", SLOW_RATES)
def test_slow_family_against_exact(rate):
    spec = slow_chain(rate)
    closed, solve = win_prob_errors(spec)
    assert closed == 0.0
    bound = SLOW_BOUNDS[rate]
    assert solve <= bound
    assert max(fill_errors(spec)) <= 1e-13
    assert max(resolvent_errors(spec)) <= bound

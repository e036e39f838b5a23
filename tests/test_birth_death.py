import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krongambler import (
    BirthDeathSpec,
    ErgodicBDSpec,
    GameSpec,
    MonotonicityError,
    SpecError,
    bd_eigenvalues,
    bd_is_monotone,
    bd_matrix,
    bd_stationary,
    bd_win_prob,
    build_game,
    siegmund_dual_1d,
    win_prob_solve,
)
from krongambler.birth_death import (
    _band_dense,
    _sym_tridiag_eigs,
    bd_restricted,
)
from krongambler.game import _band_nonzeros
from krongambler.intertwine import (
    _birth_band,
    classical_ssd_1d,
    ehrenfest_ergodic,
)
from krongambler.linalg import DEFAULT_TOL

from conftest import (
    dense_triplets,
    game_triplets,
    loop_bd_matrix,
    loop_ergodic_matrix,
    loop_pure_birth,
    rand_bd,
    rand_ergodic,
    sorted_triplets,
)

NON_FINITE = [float("nan"), float("inf"), float("-inf")]


def solved_win_prob(spec):
    """Win probabilities by the sparse LU solve on the one-coordinate game."""
    game = GameSpec(dims=(spec,), subsets=(frozenset({1}),), coeffs=(1.0,))
    return win_prob_solve(build_game(game))


def eigenvalues_nonneg(spec):
    """Whether the chain's spectrum is nonnegative within 1e-10.

    Strictly stronger than ``bd_is_monotone`` for sink-reachable chains.
    """
    return bool(bd_eigenvalues(spec)[0] >= -1e-10)


def test_spec_validation():
    with pytest.raises(SpecError):
        BirthDeathSpec(N=3, p=(0.0, 0.3), q=(0.1, 0.1))
    with pytest.raises(SpecError):
        BirthDeathSpec(N=3, p=(0.3, 0.3), q=(0.1, 0.0))
    with pytest.raises(SpecError):
        BirthDeathSpec(N=3, p=(0.8, 0.3), q=(0.3, 0.1))
    with pytest.raises(SpecError):
        BirthDeathSpec(N=3, p=(0.3,), q=(0.1, 0.1))
    with pytest.raises(SpecError, match="length M-1=3"):
        ErgodicBDSpec(M=4, p=(0.2, 0.2), q=(0.2, 0.2, 0.2))
    # q(1)=0 is allowed
    BirthDeathSpec(N=3, p=(0.3, 0.3), q=(0.0, 0.1))


@pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("key, at", [("p", 0), ("q", 0), ("q", 1)],
                         ids=["p1", "q1", "q2"])
def test_non_finite_rates_are_refused(key, at, value):
    rates = {"p": [0.3, 0.3], "q": [0.1, 0.1]}
    rates[key][at] = value
    with pytest.raises(SpecError):
        BirthDeathSpec(N=3, **rates)
    with pytest.raises(SpecError):
        ErgodicBDSpec(M=3, **rates)


@pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "inf", "-inf"])
def test_non_finite_sizes_are_refused(value):
    with pytest.raises(SpecError, match="N must be"):
        BirthDeathSpec(N=value, p=(), q=())
    with pytest.raises(SpecError, match="M must be"):
        ErgodicBDSpec(M=value, p=(), q=())


def assert_triplets_equal(got, want):
    assert got[3] == want[3]
    for a, b in zip(got[:3], want[:3]):
        assert np.array_equal(a, b)


def test_band_matrices_equal_the_loop_oracles():
    rng = np.random.default_rng(18)
    chains = [
        BirthDeathSpec(N=1, p=(), q=()),
        BirthDeathSpec(N=2, p=(0.25,), q=(0.75,)),  # zero hold
        BirthDeathSpec(N=3, p=(0.25, 0.5), q=(0.0, 0.5)),  # q(1) = 0
    ] + [
        rand_bd(rng, int(rng.integers(2, 8)), q1_zero=bool(rng.integers(2)))
        for _ in range(30)
    ]
    walks = [
        ErgodicBDSpec(M=3, p=(0.5, 0.25), q=(0.75, 0.5)),  # zero hold at 2
    ] + [rand_ergodic(rng, int(rng.integers(2, 8))) for _ in range(30)]
    assert chains[1].band[0][0] == 0.0 and walks[0].band[0][1] == 0.0
    for spec in chains:
        full = loop_bd_matrix(spec)
        assert np.array_equal(bd_matrix(spec), full)
        assert np.array_equal(bd_restricted(spec), full[1:, 1:])
        assert_triplets_equal(sorted_triplets(*_band_nonzeros(spec.band)),
                              game_triplets(spec))
        assert bd_is_monotone(spec) == all(
            a + b <= 1.0 + DEFAULT_TOL for a, b in zip(spec.p[:-1], spec.q[1:])
        )
    for x in walks:
        assert np.array_equal(_band_dense(x.band), loop_ergodic_matrix(x))
        assert bd_is_monotone(x) == all(
            a + b <= 1.0 + DEFAULT_TOL for a, b in zip(x.p, x.q)
        )
    for spec in chains + walks:
        assert spec.band is spec.band
        assert not any(a.flags.writeable for a in spec.band)
    # one eigensolve per spec, shared by every caller, so read-only
    for spec in chains:
        assert bd_eigenvalues(spec) is spec.eigenvalues
        assert not spec.eigenvalues.flags.writeable
        assert np.array_equal(
            spec.eigenvalues,
            np.append(_sym_tridiag_eigs(*(a[:-1] for a in spec.band)), 1.0),
        )
    # the dual's factors, one of them with a zero eigenvalue
    for lam in [np.array([0.0, 0.5, 1.0])] + [bd_eigenvalues(s) for s in chains]:
        assert np.array_equal(_band_dense(_birth_band(lam)), loop_pure_birth(lam))
        assert_triplets_equal(sorted_triplets(*_band_nonzeros(_birth_band(lam))),
                              dense_triplets(loop_pure_birth(lam)))
    with pytest.raises(TypeError):
        bd_is_monotone(object())


def test_matrix_sure_step():
    spec = BirthDeathSpec(N=2, p=(1.0,), q=(0.0,))
    assert np.array_equal(bd_matrix(spec)[1], [0.0, 0.0, 1.0])


def test_matrix_holding():
    spec = BirthDeathSpec(N=3, p=(0.3, 0.3), q=(0.1, 0.1))
    m = bd_matrix(spec)
    expected = np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.1, 0.6, 0.3, 0.0],
            [0.0, 0.1, 0.6, 0.3],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )
    assert np.allclose(m, expected, atol=1e-15)


def test_matrix_rows_sum_to_one():
    rng = np.random.default_rng(0)
    for _ in range(50):
        spec = rand_bd(rng, int(rng.integers(2, 9)))
        assert np.max(np.abs(bd_matrix(spec).sum(axis=1) - 1.0)) < 1e-15


def test_eigenvalues_against_dense_solver():
    rng = np.random.default_rng(1)
    for _ in range(50):
        spec = rand_bd(rng, int(rng.integers(2, 9)), q1_zero=bool(rng.integers(2)))
        lam = bd_eigenvalues(spec)
        dense = np.sort(np.linalg.eigvals(bd_restricted(spec)).real)
        assert np.max(np.abs(lam - dense)) < 1e-10
        assert abs(lam[-1] - 1.0) < 1e-10
        # the unit eigenvalue appears exactly once
        assert lam[-2] < 1.0 - 1e-10 if spec.N > 1 else True


def test_eigenvalues_closed_form_symmetric():
    p, q = 0.3, 0.1
    spec = BirthDeathSpec(N=3, p=(p, p), q=(q, q))
    expected = np.sort(
        [1 - p - q - np.sqrt(p * q), 1 - p - q + np.sqrt(p * q), 1.0]
    )
    assert np.allclose(bd_eigenvalues(spec), expected, atol=1e-14)


def test_eigenvalues_of_two_urn_dual_are_equally_spaced():
    for n in (3, 5, 8):
        ssd, _ = classical_ssd_1d(ehrenfest_ergodic(n))
        lam = bd_eigenvalues(ssd)
        assert np.allclose(lam, [(i - 1) / (n - 1) for i in range(1, n + 1)],
                           atol=1e-12)


def test_win_prob_symmetric_walk_is_linear():
    for n in (2, 5, 9):
        spec = BirthDeathSpec(N=n, p=(0.3,) * (n - 1), q=(0.3,) * (n - 1))
        assert np.allclose(bd_win_prob(spec), np.arange(1, n + 1) / n,
                           atol=1e-12)


def test_win_prob_golden_ratio_case():
    spec = BirthDeathSpec(N=3, p=(0.3, 0.3), q=(0.1, 0.1))
    rho = bd_win_prob(spec)
    assert abs(rho[1] - 12.0 / 13.0) < 1e-14
    assert abs(rho[0] - (1 - 1 / 3) / (1 - (1 / 3) ** 3)) < 1e-14


def test_win_prob_no_sink_is_one():
    spec = BirthDeathSpec(N=4, p=(0.2, 0.2, 0.2), q=(0.0, 0.1, 0.1))
    assert np.array_equal(bd_win_prob(spec), np.ones(4))


def test_win_prob_closed_form_matches_solver():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(200):
        spec = rand_bd(rng, int(rng.integers(2, 13)), q1_zero=bool(rng.integers(2)))
        diff = np.max(np.abs(bd_win_prob(spec) - solved_win_prob(spec)))
        worst = max(worst, diff)
    assert worst < 1e-10


LOG_RATIO = float(np.log(1e3))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 5000),
    seed=st.integers(0, 2**32 - 1),
    ends=st.tuples(st.floats(-LOG_RATIO, LOG_RATIO),
                   st.floats(-LOG_RATIO, LOG_RATIO)),
)
def test_win_prob_log_space_over_wide_ratios(n, seed, ends):
    # q(i)/p(i) is drawn log-uniformly between the two ends, within
    # [1e-3, 1e3]; a constant ratio of 2 already overflows a running
    # product of q/p at N = 1,100
    rng = np.random.default_rng(seed)
    ratio = np.exp(rng.uniform(min(ends), max(ends), n - 1))
    move = rng.uniform(0.05, 0.99, n - 1)
    p = move / (1.0 + ratio)
    spec = BirthDeathSpec(N=n, p=tuple(p), q=tuple(move - p))
    rho = bd_win_prob(spec)
    assert np.all(np.isfinite(rho))
    assert np.all(np.diff(rho) >= 0.0)
    assert rho[-1] == 1.0
    if n <= 400:
        transient = np.eye(n - 1) - bd_matrix(spec)[1:n, 1:n]
        cond = np.linalg.cond(transient)
        # the solve's forward error grows like cond * eps; compare it only
        # where that bound is small
        if cond <= 1e8:
            err = np.max(np.abs(rho - solved_win_prob(spec)))
            assert err <= 64 * np.finfo(float).eps * cond


def test_stationary_uniform_for_symmetric_rates():
    spec = ErgodicBDSpec(M=4, p=(0.2, 0.2, 0.2), q=(0.2, 0.2, 0.2))
    assert np.allclose(bd_stationary(spec), 0.25 * np.ones(4), atol=1e-14)


def test_stationary_binomial_for_two_urn_walk():
    from math import comb

    for n in (3, 6):
        pi = bd_stationary(ehrenfest_ergodic(n))
        expected = np.array([comb(n - 1, j) for j in range(n)]) / 2.0 ** (n - 1)
        assert np.allclose(pi, expected, atol=1e-14)


@pytest.mark.parametrize("m", [513, 1500])
def test_stationary_of_a_long_walk(m):
    # pi grows by p'/q' = 4 per state: the running product 4^512 overflows
    # at M = 513, and at M = 1,500 the bottom of pi underflows
    pi = bd_stationary(ErgodicBDSpec(M=m, p=(0.4,) * (m - 1), q=(0.1,) * (m - 1)))
    assert np.all(np.isfinite(pi)) and abs(pi.sum() - 1.0) <= 1e-12
    normal = pi[:-1] >= np.finfo(float).tiny
    assert np.count_nonzero(normal) >= 500
    assert np.max(np.abs(pi[1:][normal] / pi[:-1][normal] - 4.0)) <= 4e-12


def test_stationary_solves_balance_equations():
    rng = np.random.default_rng(3)
    for _ in range(30):
        spec = rand_ergodic(rng, int(rng.integers(2, 7)))
        pi = bd_stationary(spec)
        assert np.max(np.abs(pi @ loop_ergodic_matrix(spec) - pi)) < 1e-12
        assert abs(pi.sum() - 1.0) < 1e-12
        assert pi.min() > 0


def test_monotone_condition_cases():
    assert bd_is_monotone(BirthDeathSpec(N=4, p=(0.25,) * 3, q=(0.25,) * 3))
    heavy = BirthDeathSpec(N=4, p=(0.7, 0.1, 0.7), q=(0.1, 0.7, 0.1))
    assert not bd_is_monotone(heavy)  # p(1) + q(2) = 1.4
    p, q = 0.3, 0.1  # p + q + sqrt(pq) < 1
    assert bd_is_monotone(BirthDeathSpec(N=3, p=(p, p), q=(q, q)))


def test_monotone_without_nonneg_spectrum():
    # adjacent-pair condition holds yet an eigenvalue is negative: the
    # conditions are not equivalent for chains that can be ruined
    spec = BirthDeathSpec(N=3, p=(0.6873, 0.5498), q=(0.2926, 0.0926))
    assert bd_is_monotone(spec)
    assert not eigenvalues_nonneg(spec)


def test_nonneg_spectrum_implies_monotone():
    rng = np.random.default_rng(4)
    for _ in range(300):
        spec = rand_bd(rng, int(rng.integers(2, 8)), q1_zero=bool(rng.integers(2)))
        if eigenvalues_nonneg(spec):
            assert bd_is_monotone(spec)


def test_siegmund_dual_two_state_by_hand():
    x = ErgodicBDSpec(M=2, p=(0.3,), q=(0.4,))
    dual = siegmund_dual_1d(x)
    assert dual.N == 2
    assert dual.p == (0.4,)  # up with q'(2)
    assert dual.q == (0.3,)  # ruin with p'(1)


def test_siegmund_dual_matrix_identity():
    rng = np.random.default_rng(5)
    c_cache = {}
    for _ in range(60):
        m = int(rng.integers(2, 8))
        x = rand_ergodic(rng, m, budget=0.9)
        if not bd_is_monotone(x):
            continue
        dual = siegmund_dual_1d(x)
        px = loop_ergodic_matrix(x)
        pz = bd_restricted(dual)
        c = c_cache.setdefault(m, np.triu(np.ones((m, m))))
        lhs, rhs = np.eye(m), np.eye(m)
        for _ in range(5):
            lhs = lhs @ px
            rhs = rhs @ pz.T
            assert np.max(np.abs(lhs @ c - c @ rhs)) < 1e-10


def test_siegmund_dual_win_prob_is_cumulative_stationary():
    rng = np.random.default_rng(6)
    for _ in range(40):
        x = rand_ergodic(rng, int(rng.integers(2, 8)), budget=0.8)
        if not bd_is_monotone(x):
            continue
        dual = siegmund_dual_1d(x)
        assert np.max(
            np.abs(bd_win_prob(dual) - np.cumsum(bd_stationary(x)))
        ) < 1e-10


def test_siegmund_dual_requires_monotonicity():
    x = ErgodicBDSpec(M=3, p=(0.7, 0.1), q=(0.5, 0.2))
    assert not bd_is_monotone(x)
    with pytest.raises(MonotonicityError):
        siegmund_dual_1d(x)


def test_symmetric_walk_dual_is_shifted_symmetric_walk():
    x = ErgodicBDSpec(M=4, p=(0.2, 0.2, 0.2), q=(0.2, 0.2, 0.2))
    dual = siegmund_dual_1d(x)
    assert dual.p == (0.2, 0.2, 0.2)
    assert dual.q == (0.2, 0.2, 0.2)

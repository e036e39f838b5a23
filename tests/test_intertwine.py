import pathlib
import warnings

import numpy as np
import pytest
from scipy import sparse

from krongambler import intertwine
from krongambler import (
    BirthDeathSpec,
    DegenerateSpectrumError,
    ErgodicBDSpec,
    GameSpec,
    MonotonicityError,
    SpecError,
    bd_eigenvalues,
    bd_win_prob,
    build_dual,
    build_game,
    classical_ssd_1d,
    dual_initial,
    preset_r_of_d,
    spectral_link_1d,
)
from krongambler.birth_death import bd_restricted, ergodic_matrix
from krongambler.errors import LinkPrecisionError
from krongambler.intertwine import (
    ehrenfest_binomial_link,
    ehrenfest_dual_weights,
    ehrenfest_ergodic,
    ehrenfest_pgf,
    pure_birth_1d,
    spectral_polynomials,
)
from krongambler.specfile import load_spec, parse_spec
from krongambler.verify import diagonal_eigenvalue_check

from conftest import (
    dense_mixture,
    direct_dual_kernel,
    ehrenfest_binomial_link_inv,
    ehrenfest_dual_weights_link_route,
    kron_all,
    link_cliff_doc,
    loop_pure_birth,
    moveaxis_dual_initial,
    rand_bd,
    rand_ergodic,
    rand_game,
)

CORPUS = pathlib.Path(__file__).parent / "data" / "cli_corpus"


def support_dominates(dims, nu_star, nu_hat, tol=1e-12):
    """Every state charged by nu_star is dominated by a positive nu_hat state."""
    star = np.asarray(nu_star, dtype=float).reshape(dims)
    hat = np.asarray(nu_hat, dtype=float).reshape(dims)
    pos = list(zip(*np.nonzero(hat > tol)))
    return all(
        any(all(h >= s for h, s in zip(p, idx)) for p in pos)
        for idx in zip(*np.nonzero(np.abs(star) > tol))
    )


def birth_factors(game):
    """Each component's one-dimensional pure-birth kernel, built apart from
    the bands ``build_dual`` assembles."""
    return [loop_pure_birth(bd_eigenvalues(s)) for s in game.dims]


def signed_mixture(rng):
    """A valid two-coordinate game whose mixture has a negative weight."""
    a = rand_bd(rng, 3, budget=0.1)
    b = rand_bd(rng, 4, budget=0.1)
    return GameSpec(
        dims=(a, b),
        subsets=(frozenset({1}), frozenset({2}), frozenset({1, 2}), frozenset()),
        coeffs=(0.6, 0.6, 0.2, -0.4),
    )


def one_dim_game(spec):
    return GameSpec(dims=(spec,), subsets=(frozenset({1}),), coeffs=(1.0,))


def golden_spec(p=0.3, q=0.1):
    return BirthDeathSpec(N=3, p=(p, p), q=(q, q))


def test_link_two_state_no_ruin_is_identity():
    spec = BirthDeathSpec(N=2, p=(0.4,), q=(0.0,))
    assert np.allclose(spectral_link_1d(spec), np.eye(2), atol=1e-14)


def test_link_golden_closed_form():
    p, q = 0.3, 0.1
    s = p + q + np.sqrt(p * q)
    rho1 = (1 - q / p) / (1 - (q / p) ** 3)
    expected = np.array(
        [
            [1.0, 0.0, 0.0],
            [np.sqrt(p * q) / s, p / s, 0.0],
            [0.0, 0.0, rho1],
        ]
    )
    assert np.max(np.abs(spectral_link_1d(golden_spec()) - expected)) < 1e-13


def test_link_stochastic_when_ruin_unreachable():
    rng = np.random.default_rng(30)
    for _ in range(20):
        spec = rand_bd(rng, int(rng.integers(2, 7)), q1_zero=True, budget=0.4)
        link = spectral_link_1d(spec)
        assert np.max(np.abs(link.sum(axis=1) - 1.0)) < 1e-10
        assert abs(link[-1, -1] - 1.0) < 1e-10


def test_link_rejects_negative_spectrum():
    spec = BirthDeathSpec(N=3, p=(0.6873, 0.5498), q=(0.2926, 0.0926))
    with pytest.raises(MonotonicityError):
        spectral_link_1d(spec)


def test_dual_refuses_a_non_monotone_component():
    spec = BirthDeathSpec(N=3, p=(0.7, 0.1), q=(0.1, 0.5))
    with pytest.raises(MonotonicityError, match="every component must be"):
        build_dual(one_dim_game(spec))


def test_link_rejects_degenerate_spectrum():
    spec = BirthDeathSpec(N=2, p=(1e-14,), q=(0.0,))
    with pytest.raises(DegenerateSpectrumError):
        spectral_link_1d(spec)


def test_spectral_polynomials_substochastic():
    rng = np.random.default_rng(31)
    for _ in range(20):
        spec = rand_bd(rng, int(rng.integers(2, 6)), budget=0.4,
                       q1_zero=bool(rng.integers(2)))
        for qk in spectral_polynomials(spec):
            assert qk.min() > -1e-10
            assert qk.sum(axis=1).max() < 1.0 + 1e-10


def test_dual_one_dimensional_form():
    spec = golden_spec()
    link, dual = build_dual(one_dim_game(spec))
    lam = bd_eigenvalues(spec)
    assert np.allclose(dual.dense(), pure_birth_1d(lam), atol=1e-12)
    assert abs(link.iso_value - bd_win_prob(spec)[0]) < 1e-14


def test_dual_one_move_two_dim_displayed_form():
    rng = np.random.default_rng(32)
    a = rand_bd(rng, 3, budget=0.12)
    b = rand_bd(rng, 4, budget=0.12)
    game = preset_r_of_d([a, b], 1)
    link, dual = build_dual(game)
    p_hat = dual.dense()
    eigs = [bd_eigenvalues(a), bd_eigenvalues(b)]
    shape = (3, 4)
    for lin, multi in enumerate(np.ndindex(*shape)):
        lam_here = [eigs[0][multi[0]], eigs[1][multi[1]]]
        movable = [j for j in range(2) if multi[j] + 1 < shape[j]]
        hold = 1.0 - sum(1.0 - lam_here[j] for j in movable)
        assert abs(p_hat[lin, lin] - hold) < 1e-12
        for j in movable:
            target = list(multi)
            target[j] += 1
            col = int(np.ravel_multi_index(target, shape))
            assert abs(p_hat[lin, col] - (1.0 - lam_here[j])) < 1e-12


def test_dual_independent_game_is_kronecker_of_duals():
    rng = np.random.default_rng(33)
    a = rand_bd(rng, 3, budget=0.4)
    b = rand_bd(rng, 3, budget=0.4)
    game = preset_r_of_d([a, b], 2)
    _, dual = build_dual(game)
    expected = np.kron(
        pure_birth_1d(bd_eigenvalues(a)), pure_birth_1d(bd_eigenvalues(b))
    )
    assert np.max(np.abs(dual.dense() - expected)) < 1e-12


def test_dual_requires_scalar_coefficients():
    spec = golden_spec()
    game = GameSpec(
        dims=(spec,),
        subsets=(frozenset({1}), frozenset()),
        coeffs=(0.5 * np.eye(3), 0.5 * np.eye(3)),
    )
    with pytest.raises(SpecError):
        build_dual(game)


def test_dual_nonnegativity_violation_names_states():
    spec = golden_spec()  # eigenvalue 0.427 makes the d=2 diagonal negative
    game = preset_r_of_d([spec, spec], 1)
    with pytest.raises(SpecError, match="lattice states"):
        build_dual(game)


def test_dual_kernel_matches_direct_formula():
    rng = np.random.default_rng(40)
    games = [
        rand_game(rng, d=d, r=r, n_max=4)
        for d in (1, 2, 3)
        for r in range(1, d + 1)
        for _ in range(3)
    ]
    mixture = signed_mixture(rng)
    build_game(mixture)  # a valid game, negative weight and all
    for game in games + [mixture]:
        _, dual = build_dual(game)
        assert np.max(np.abs(dual.dense() - direct_dual_kernel(game))) < 1e-12


def test_dual_is_the_clipped_dense_mixture_bit_for_bit():
    rng = np.random.default_rng(43)
    games = [
        rand_game(rng, d=d, r=r, n_max=4)
        for d in (1, 2, 3)
        for r in range(1, d + 1)
        for _ in range(3)
    ]
    # two-state components whose dual corner entry rounds to -1.1e-16
    tiny = preset_r_of_d([BirthDeathSpec(N=2, p=(0.1,), q=(0.2,)),
                          BirthDeathSpec(N=2, p=(0.3,), q=(0.4,))], 1)
    assert -1e-12 < dense_mixture(tiny, birth_factors(tiny)).min() < 0.0
    for game in games + [signed_mixture(rng), tiny]:
        _, dual = build_dual(game)
        kernel = dual.matrix
        assert isinstance(kernel, sparse.csr_array)
        assert kernel.has_canonical_format
        assert kernel.data.min() > 0.0
        mixed = dense_mixture(game, birth_factors(game))
        assert np.array_equal(dual.dense(), np.clip(mixed, 0.0, None))
        assert np.array_equal(
            dual.matrix.diagonal(), np.clip(np.diag(mixed), 0.0, None)
        )


def test_link_gates_run_before_assembly(monkeypatch):
    # the 26-state component's link is past double-precision reach
    game = parse_spec(link_cliff_doc()).game

    def unreachable(*args):
        raise AssertionError("the dual was assembled")

    monkeypatch.setattr(intertwine, "kron_mixture", unreachable)
    with pytest.raises(LinkPrecisionError, match=r"dimension 1 \(N=26\)"):
        build_dual(game)


def test_link_entries_equal_the_dense_link_bit_for_bit():
    game = load_spec(str(CORPUS / "d3_r2.json")).game
    link, _ = build_dual(game)
    dense = kron_all(link.per_dim)
    states = np.arange(game.size)
    assert np.array_equal(link.entries(states[:, None], states), dense)
    # Batches in the simulator's shapes, past 8,192 rows: a (k, 1) column of
    # game states against (k, w) dual candidates or a row of charged states.
    # numpy 2.4.6's unravel_index returns wrong coordinates for (k, 1)
    # inputs of this size; the coordinate table must not.
    k = 9000
    game_states = (np.arange(k) % game.size)[:, None]
    candidates = (np.arange(4 * k).reshape(k, 4) * 7) % game.size
    got = link.entries(candidates, game_states)
    assert got.shape == (k, 4)
    assert np.array_equal(got, dense[candidates, game_states])
    got = link.entries(states, game_states)
    assert got.shape == (k, game.size)
    assert np.array_equal(got, dense[states, game_states])


def test_per_dimension_intertwining_gate_fails_on_bad_link(monkeypatch):
    game = rand_game(np.random.default_rng(41), d=2, r=1, n_max=4)
    exact = intertwine.spectral_link_1d

    def perturbed(spec):
        link = exact(spec)
        link[1, 0] += 1e-8
        return link

    monkeypatch.setattr(intertwine, "spectral_link_1d", perturbed)
    with pytest.raises(LinkPrecisionError, match="intertwining residual"):
        build_dual(game)


def test_win_corner_gate_fails_on_bad_link(monkeypatch):
    # a corner moved by 2e-10 moves L P' - P_hat L by (1 - lam) times that,
    # below the residual gate of 1e-10; only the isolation gate sees it
    game = rand_game(np.random.default_rng(41), d=2, r=1, n_max=4)
    exact = intertwine.spectral_link_1d

    def perturbed(spec):
        link = exact(spec)
        link[-1, -1] += 2e-10
        return link

    monkeypatch.setattr(intertwine, "spectral_link_1d", perturbed)
    with pytest.raises(LinkPrecisionError,
                       match=r"not isolated at the win corner in dimension 1 "
                             r"\(N=\d+\): corner residual"):
        build_dual(game)


def test_intertwining_and_isolation_on_random_games():
    rng = np.random.default_rng(34)
    for _ in range(15):
        game = rand_game(rng)
        chain = build_game(game)
        link, dual = build_dual(game)
        lam = kron_all(link.per_dim)
        resid = np.max(np.abs(lam @ chain.dense() - dual.dense() @ lam))
        assert resid < 1e-10
        assert np.max(np.abs(lam[:-1, -1])) == 0.0
        expected_iso = np.prod([bd_win_prob(s)[0] for s in game.dims])
        assert abs(lam[-1, -1] - expected_iso) < 1e-10
        assert np.max(np.abs(np.triu(lam, k=1))) == 0.0
        assert np.max(np.abs(dual.dense().sum(axis=1) - 1.0)) < 1e-12


def test_dual_diagonal_is_game_spectrum():
    rng = np.random.default_rng(35)
    games = [rand_game(rng, d=int(rng.integers(1, 3)), n_max=4)
             for _ in range(10)]
    # three components, at most two moving: exactly repeated diagonal entries
    degenerate = load_spec(str(CORPUS / "d3_r2.json")).game
    for game in games + [degenerate]:
        chain = build_game(game)
        _, dual = build_dual(game)
        diag = dual.matrix.diagonal()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = diagonal_eigenvalue_check(chain.dense(), diag)
        assert result.passed and result.residual <= 1e-12, result
        shifted = diagonal_eigenvalue_check(chain.dense(), diag - 0.05)
        assert not shifted.passed, shifted
        moved = diag.copy()
        moved[int(rng.integers(len(moved)))] += 1e-6
        assert not diagonal_eigenvalue_check(chain.dense(), moved).passed
    assert np.min(np.diff(np.sort(diag))) == 0.0


def test_dual_initial_point_mass_at_bottom():
    rng = np.random.default_rng(36)
    game = rand_game(rng, d=2)
    link, _ = build_dual(game)
    nu = np.zeros(game.size)
    nu[0] = 1.0
    out = dual_initial(link, nu)
    assert out.is_distribution
    assert np.allclose(out.values, nu, atol=1e-12)


def test_dual_initial_golden_values():
    p, q = 0.3, 0.1
    link, _ = build_dual(one_dim_game(golden_spec(p, q)))
    out = dual_initial(link, np.array([0.0, 1.0, 0.0]))
    expected = np.array([-np.sqrt(q / p), 1 + q / p + np.sqrt(q / p), 0.0])
    assert np.max(np.abs(out.values - expected)) < 1e-12
    assert not out.is_distribution
    with pytest.raises(ValueError, match="4 entries, expected 3"):
        dual_initial(link, np.full(4, 0.25))


def test_dual_initial_matches_dense_solve():
    rng = np.random.default_rng(37)
    for _ in range(10):
        game = rand_game(rng, d=2, n_max=3)
        link, _ = build_dual(game)
        nu = rng.dirichlet(np.ones(game.size))
        out = dual_initial(link, nu)
        dense = np.linalg.solve(kron_all(link.per_dim).T, nu)
        assert np.max(np.abs(out.values - dense)) < 1e-10
        assert support_dominates(game.shape, nu, out.values)


def test_dual_initial_equals_the_moveaxis_solves_bit_for_bit():
    rng = np.random.default_rng(38)
    for d in (1, 2, 3):
        for _ in range(6):
            game = rand_game(rng, d=d, n_max=5 if d < 3 else 3)
            link, _ = build_dual(game)
            for nu in (rng.dirichlet(np.ones(game.size)),
                       np.eye(game.size)[int(rng.integers(game.size))]):
                want = moveaxis_dual_initial(link, nu)
                assert np.array_equal(dual_initial(link, nu).values, want)
                flat = dual_initial(link, nu.reshape(game.shape)).values
                assert np.array_equal(flat, want)


def test_dual_initial_round_trip_through_link():
    rng = np.random.default_rng(39)
    for _ in range(10):
        game = rand_game(rng, d=2, n_max=3)
        link, _ = build_dual(game)
        nu = rng.dirichlet(np.ones(game.size))
        out = dual_initial(link, nu)
        assert np.max(np.abs(out.values @ kron_all(link.per_dim) - nu)) < 1e-10


def test_classical_dual_uniform_stationary():
    x = ErgodicBDSpec(M=4, p=(0.2, 0.2, 0.2), q=(0.2, 0.2, 0.2))
    spec, link = classical_ssd_1d(x)
    # H(j) = j/4: down H(i-1)p'(i)/H(i), up H(i+1)q'(i+1)/H(i)
    for i in range(1, 4):
        assert abs(spec.p[i - 1] - (i + 1) * 0.2 / i) < 1e-14
        assert abs(spec.q[i - 1] - (i - 1) * 0.2 / i) < 1e-14
    expected_link = np.tril(np.ones((4, 4))) / np.arange(1, 5)[:, None]
    assert np.allclose(link, expected_link, atol=1e-14)


def test_classical_dual_two_state():
    x = ErgodicBDSpec(M=2, p=(0.3,), q=(0.2,))
    spec, link = classical_ssd_1d(x)
    pi = np.array([0.2, 0.3]) / 0.5
    assert np.allclose(link, [[1.0, 0.0], [pi[0], pi[1]]], atol=1e-14)
    assert abs(spec.p[0] - 1.0 * 0.2 / pi[0]) < 1e-14


def test_classical_dual_intertwines():
    rng = np.random.default_rng(38)
    for _ in range(20):
        x = rand_ergodic(rng, int(rng.integers(2, 7)), budget=0.8)
        from krongambler import bd_is_monotone

        if not bd_is_monotone(x):
            continue
        spec, link = classical_ssd_1d(x)
        resid = np.max(
            np.abs(link @ ergodic_matrix(x) - bd_restricted(spec) @ link)
        )
        assert resid < 1e-10


def test_classical_dual_rejects_non_monotone():
    x = ErgodicBDSpec(M=3, p=(0.7, 0.1), q=(0.5, 0.2))
    with pytest.raises(MonotonicityError):
        classical_ssd_1d(x)


def test_two_urn_classical_link_closed_form():
    from math import comb

    for n in (3, 5, 8):
        _, link = classical_ssd_1d(ehrenfest_ergodic(n))
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                expected = (
                    comb(n - 1, j - 1) / sum(comb(n - 1, r) for r in range(i))
                    if j <= i
                    else 0.0
                )
                assert abs(link[i - 1, j - 1] - expected) < 1e-12


def test_two_urn_dual_weights_and_expectations():
    assert np.allclose(ehrenfest_dual_weights(3, 1), [1.0, 0.0, 0.0],
                       atol=1e-14)
    assert abs(ehrenfest_pgf(3, 1).mean() - 3.0) < 1e-12

    assert np.allclose(ehrenfest_dual_weights(3, 2), [-1 / 3, 4 / 3, 0.0],
                       atol=1e-12)
    for n in range(3, 9):
        for m in range(1, n + 1):
            nu = ehrenfest_dual_weights(n, m)
            assert abs(nu.sum() - 1.0) < 1e-12
            # the dual has no ruin: the signed mixture carries mass 1
            assert abs(ehrenfest_pgf(n, m).mass() - 1.0) < 1e-12
            assert np.max(
                np.abs(nu - ehrenfest_dual_weights_link_route(n, m))
            ) < 1e-9
    with pytest.raises(SpecError, match="at least 3 states"):
        ehrenfest_ergodic(2)
    for m in (0, 4):
        with pytest.raises(SpecError, match=r"start must lie in 1..3"):
            ehrenfest_dual_weights(3, m)


def test_two_urn_binomial_link_inverse_is_exact():
    for n in (3, 6, 8):
        a = ehrenfest_binomial_link(n)
        b = ehrenfest_binomial_link_inv(n)
        assert np.max(np.abs(a @ b - np.eye(n))) < 1e-12


def test_two_urn_spectral_link_matches_link_route():
    for n in range(3, 9):
        ssd, link_classical = classical_ssd_1d(ehrenfest_ergodic(n))
        direct = spectral_link_1d(ssd)
        route = ehrenfest_binomial_link(n) @ np.linalg.inv(link_classical)
        assert np.max(np.abs(direct - route)) < 1e-9

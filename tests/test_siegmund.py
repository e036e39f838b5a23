import numpy as np

from krongambler import (
    BirthDeathSpec,
    bd_win_prob,
    build_game,
    preset_r_of_d,
    product_order,
    siegmund_dual_1d,
    win_prob_product,
    win_prob_solve,
)
from krongambler.birth_death import bd_restricted, ergodic_matrix
from krongambler.siegmund import (
    reconstruct_primal,
    stationary_of,
    win_prob_pi_route,
)

from conftest import rand_bd, rand_ergodic, rand_game


def siegmund_dual(p_x, order):
    """Dual kernel (C^-1 P C)^T of a stochastic matrix on the ordered lattice.

    The result is substochastic exactly when the input is Mobius monotone.
    """
    return (order.mobius.astype(float) @ p_x @ order.c.astype(float)).T


def test_total_order_matrix():
    order = product_order((3,))
    assert np.array_equal(order.c, np.triu(np.ones((3, 3), dtype=int)))
    expected_mobius = np.array([[1, -1, 0], [0, 1, -1], [0, 0, 1]])
    assert np.array_equal(order.mobius, expected_mobius)


def test_product_order_two_by_two():
    order = product_order((2, 2))
    # states in linear order: (1,1), (1,2), (2,1), (2,2)
    expected = np.array(
        [
            [1, 1, 1, 1],
            [0, 1, 0, 1],
            [0, 0, 1, 1],
            [0, 0, 0, 1],
        ]
    )
    assert np.array_equal(order.c, expected)


def test_order_inverse_exact_for_various_dims():
    for dims in [(2,), (4,), (2, 3), (3, 2, 2)]:
        order = product_order(dims)
        n = order.c.shape[0]
        assert np.array_equal(order.c @ order.mobius, np.eye(n, dtype=int))
        # linear state order is a linear extension of the product order
        assert np.array_equal(order.c, np.triu(order.c))
        assert set(np.unique(order.c)) <= {0, 1}


def test_dual_of_identity_is_identity():
    order = product_order((2, 2))
    assert np.array_equal(siegmund_dual(np.eye(4), order), np.eye(4))


def test_dual_matches_one_dimensional_renaming():
    rng = np.random.default_rng(20)
    for _ in range(20):
        x = rand_ergodic(rng, int(rng.integers(2, 7)), budget=0.8)
        from krongambler import bd_is_monotone

        if not bd_is_monotone(x):
            continue
        order = product_order((x.M,))
        dual = siegmund_dual(ergodic_matrix(x), order)
        expected = bd_restricted(siegmund_dual_1d(x))
        assert np.max(np.abs(dual - expected)) < 1e-12


def test_dual_of_product_chain_is_product_of_duals():
    rng = np.random.default_rng(21)
    xa = rand_ergodic(rng, 3, budget=0.5)
    xb = rand_ergodic(rng, 4, budget=0.5)
    big = np.kron(ergodic_matrix(xa), ergodic_matrix(xb))
    order = product_order((3, 4))
    dual = siegmund_dual(big, order)
    parts = [
        siegmund_dual(ergodic_matrix(x), product_order((x.M,)))
        for x in (xa, xb)
    ]
    assert np.max(np.abs(dual - np.kron(parts[0], parts[1]))) < 1e-12


def test_win_prob_product_all_safe_components():
    spec = BirthDeathSpec(N=3, p=(0.2, 0.2), q=(0.0, 0.1))
    game = preset_r_of_d([spec, spec], 1)
    assert np.array_equal(win_prob_product(game), np.ones(9))


def test_win_prob_product_fair_walks():
    spec = BirthDeathSpec(N=3, p=(0.2, 0.2), q=(0.2, 0.2))
    game = preset_r_of_d([spec, spec], 1)
    rho = win_prob_product(game)
    chain = build_game(game)
    for i in range(1, 4):
        for j in range(1, 4):
            expected = (i / 3) * (j / 3)
            assert abs(rho[chain.to_linear((i, j))] - expected) < 1e-12


def test_win_prob_product_golden_two_dim():
    spec = BirthDeathSpec(N=3, p=(0.3, 0.3), q=(0.1, 0.1))
    game = preset_r_of_d([spec, spec], 1)
    chain = build_game(game)
    idx = chain.to_linear((2, 2))
    assert abs(win_prob_product(game)[idx] - (12.0 / 13.0) ** 2) < 1e-12
    assert abs(win_prob_solve(chain)[idx] - (12.0 / 13.0) ** 2) < 1e-10


def test_win_prob_triple_agreement_random_games():
    rng = np.random.default_rng(22)
    for _ in range(40):
        game = rand_game(rng, dual_safe=False)
        chain = build_game(game)
        rho_prod = win_prob_product(game)
        rho_solve = win_prob_solve(chain)
        rho_pi = win_prob_pi_route(chain)
        assert np.max(np.abs(rho_prod - rho_solve)) < 1e-9
        assert np.max(np.abs(rho_pi - rho_solve)) < 1e-9


def test_reconstructed_primal_is_mobius_monotone_stochastic():
    rng = np.random.default_rng(23)
    for _ in range(20):
        game = rand_game(rng, dual_safe=False)
        chain = build_game(game)
        order = product_order(game.shape)
        primal = reconstruct_primal(chain, order)
        assert np.max(np.abs(primal.sum(axis=1) - 1.0)) < 1e-12
        assert primal.min() > -1e-10


def test_duality_identity_at_powers():
    rng = np.random.default_rng(24)
    for _ in range(10):
        game = rand_game(rng, dual_safe=False)
        chain = build_game(game)
        order = product_order(game.shape)
        primal = reconstruct_primal(chain, order)
        c = order.c.astype(float)
        restricted = chain.dense()
        lhs = np.eye(len(primal))
        rhs = np.eye(len(primal))
        for _ in range(4):
            lhs = lhs @ primal
            rhs = rhs @ restricted.T
            assert np.max(np.abs(lhs @ c - c @ rhs)) < 1e-10


def test_stationary_product_law():
    rng = np.random.default_rng(25)
    for _ in range(10):
        game = rand_game(rng, dual_safe=False)
        chain = build_game(game)
        order = product_order(game.shape)
        primal = reconstruct_primal(chain, order)
        pi_parts = [np.diff(np.concatenate([[0.0], bd_win_prob(s)]))
                    for s in game.dims]
        pi = pi_parts[0]
        for part in pi_parts[1:]:
            pi = np.kron(pi, part)
        assert np.max(np.abs(pi @ primal - pi)) < 1e-10
        # and the eigensolver agrees with the product form
        assert np.max(np.abs(stationary_of(primal) - pi)) < 1e-9


def test_pi_route_equals_cumulative_stationary():
    rng = np.random.default_rng(26)
    game = rand_game(rng, d=2, dual_safe=False)
    chain = build_game(game)
    order = product_order(game.shape)
    primal = reconstruct_primal(chain, order)
    pi = stationary_of(primal)
    assert np.max(
        np.abs(pi @ order.c.astype(float) - win_prob_solve(chain))
    ) < 1e-9


def test_win_prob_solve_on_ninety_thousand_states():
    # d=2, r=1, N=300: far past the dense cap; one sparse LU of the CSR kernel
    rng = np.random.default_rng(25)
    dims = [rand_bd(rng, 300, budget=0.45) for _ in range(2)]
    game = preset_r_of_d(dims, 1)
    chain = build_game(game)
    assert chain.size == 90_000
    assert np.max(np.abs(win_prob_solve(chain) - win_prob_product(game))) <= 1e-9

import numpy as np
import pytest

from krongambler import (
    AbsorbingChain,
    BirthDeathSpec,
    CommunicationError,
    GameSpec,
    SpecError,
    StochasticityError,
    bd_matrix,
    build_game,
    check_communication,
    linear_index,
    multi_index,
    preset_r_of_d,
)
from krongambler.birth_death import bd_restricted
from krongambler.verify import diagonal_eigenvalue_check

from conftest import direct_game_matrix, rand_bd, rand_game


def test_single_dimension_reduces_to_component_matrix():
    spec = BirthDeathSpec(N=4, p=(0.2, 0.3, 0.2), q=(0.1, 0.1, 0.2))
    game = GameSpec(dims=(spec,), subsets=(frozenset({1}),), coeffs=(1.0,))
    chain = build_game(game)
    full = bd_matrix(spec)
    assert np.allclose(chain.matrix, full[1:, 1:], atol=1e-15)
    assert np.allclose(chain.ruin, full[1:, 0], atol=1e-15)
    assert chain.win_index == 3


def test_one_move_preset_matches_direct_construction():
    rng = np.random.default_rng(7)
    for _ in range(25):
        d = int(rng.integers(1, 4))
        dims = [
            rand_bd(rng, int(rng.integers(2, 6)), budget=0.9 / d)
            for _ in range(d)
        ]
        chain = build_game(preset_r_of_d(dims, 1))
        kernel, ruin = direct_game_matrix(dims)
        assert np.max(np.abs(chain.matrix - kernel)) < 1e-14
        assert np.max(np.abs(chain.ruin - ruin)) < 1e-14


def test_full_move_preset_is_kronecker_product():
    rng = np.random.default_rng(8)
    a = rand_bd(rng, 3, budget=0.4)
    b = rand_bd(rng, 4, budget=0.4)
    chain = build_game(preset_r_of_d([a, b], 2))
    expected = np.kron(bd_restricted(a), bd_restricted(b))
    assert np.allclose(chain.matrix, expected, atol=1e-15)


def test_preset_subsets_and_coefficients():
    rng = np.random.default_rng(9)
    dims2 = [rand_bd(rng, 3, budget=0.3) for _ in range(2)]
    g = preset_r_of_d(dims2, 1)
    assert g.subsets == (frozenset({1}), frozenset({2}), frozenset())
    assert g.coeffs == (1.0, 1.0, -1.0)

    dims3 = [rand_bd(rng, 2, budget=0.1) for _ in range(3)]
    g = preset_r_of_d(dims3, 2)
    assert g.subsets == (
        frozenset({1, 2}),
        frozenset({1, 3}),
        frozenset({2, 3}),
        frozenset(),
    )
    assert g.coeffs == (1.0, 1.0, 1.0, -2.0)

    g = preset_r_of_d([dims2[0]], 1)
    assert g.subsets == (frozenset({1}),)
    assert g.coeffs == (1.0,)


def test_preset_rejects_r_out_of_range():
    rng = np.random.default_rng(16)
    dims = [rand_bd(rng, 3, budget=0.3)]
    with pytest.raises(SpecError):
        preset_r_of_d(dims, 0)
    with pytest.raises(SpecError):
        preset_r_of_d(dims, 2)


def test_nonnegative_coefficients_never_fail_stochasticity():
    rng = np.random.default_rng(10)
    for _ in range(30):
        d = int(rng.integers(1, 4))
        dims = tuple(rand_bd(rng, int(rng.integers(2, 5)), budget=0.8 / d)
                     for _ in range(d))
        m = int(rng.integers(1, 4))
        subsets = [frozenset(
            int(j) for j in rng.choice(d, size=rng.integers(0, d + 1),
                                       replace=False) + 1
        ) for _ in range(m)]
        subsets.append(frozenset(range(1, d + 1)))  # keep every dim mobile
        weights = rng.dirichlet(np.ones(len(subsets)))
        game = GameSpec(dims=dims, subsets=tuple(subsets),
                        coeffs=tuple(weights))
        try:
            build_game(game)
        except CommunicationError:
            pass  # acceptable: a zero-weight subset may immobilize a region
        except StochasticityError as exc:
            raise AssertionError(f"unexpected stochasticity failure: {exc}")


def test_mixture_eigenvalues_are_products_over_subsets():
    rng = np.random.default_rng(11)
    for _ in range(10):
        game = rand_game(rng, d=2, n_max=3)
        chain = build_game(game)
        from krongambler.birth_death import bd_eigenvalues

        eigs = [bd_eigenvalues(s) for s in game.dims]
        candidates = []
        for multi in np.ndindex(*game.shape):
            value = 0.0
            for b, a in zip(game.coeffs, game.subsets):
                value += b * np.prod([eigs[j - 1][multi[j - 1]] for j in a])
            candidates.append(value)
        check = diagonal_eigenvalue_check(chain.matrix, np.array(candidates))
        assert check.passed, check


def test_negative_mixture_entry_is_rejected():
    spec = BirthDeathSpec(N=3, p=(0.4, 0.4), q=(0.4, 0.4))
    game = GameSpec(
        dims=(spec, spec),
        subsets=(frozenset({1}), frozenset({2}), frozenset()),
        coeffs=(1.0, 1.0, -1.0),
    )
    with pytest.raises(StochasticityError):
        build_game(game)


def test_communication_true_for_one_move_games():
    rng = np.random.default_rng(12)
    for _ in range(10):
        game = rand_game(rng, r=1, dual_safe=False)
        assert check_communication(build_game(game))


def test_build_rejects_immobilized_coordinate():
    rng = np.random.default_rng(15)
    dims = (rand_bd(rng, 3, budget=0.4), rand_bd(rng, 3, budget=0.4))
    game = GameSpec(dims=dims, subsets=(frozenset({1}),), coeffs=(1.0,))
    with pytest.raises(CommunicationError):
        build_game(game)


def test_communication_detects_isolated_state():
    # hand-built kernel on lattice states 0, 1, 2: state 0 never meets state 1
    m = np.array(
        [
            [0.5, 0.0, 0.0],
            [0.0, 0.5, 0.5],
            [0.0, 0.0, 1.0],
        ]
    )
    chain = AbsorbingChain(matrix=m, dims=(3,))
    assert not check_communication(chain)


def test_communication_single_dimension():
    rng = np.random.default_rng(13)
    chain = build_game(preset_r_of_d([rand_bd(rng, 5)], 1))
    assert check_communication(chain)


def test_index_round_trip():
    dims = (2, 3)
    assert linear_index(dims, (1, 1)) == 0
    assert linear_index(dims, (2, 3)) == 5  # win corner is the last state
    assert linear_index(dims, (2, 1)) == 3
    for lin in range(6):
        assert linear_index(dims, multi_index(dims, lin)) == lin
    with pytest.raises(IndexError):
        linear_index(dims, (3, 1))
    with pytest.raises(IndexError):
        multi_index(dims, 6)


def test_matrix_coefficients_state_dependent_laziness():
    rng = np.random.default_rng(14)
    spec = rand_bd(rng, 4, budget=0.5)
    base = build_game(GameSpec(dims=(spec,), subsets=(frozenset({1}),),
                               coeffs=(1.0,)))
    lazy = np.diag(rng.uniform(0.3, 1.0, 4))
    game = GameSpec(
        dims=(spec,),
        subsets=(frozenset({1}), frozenset()),
        coeffs=(lazy, np.eye(4) - lazy),
    )
    assert not game.scalar_coeffs
    chain = build_game(game)
    # per-state laziness rescales rows; absorption probabilities survive
    from krongambler.siegmund import win_prob_product, win_prob_solve

    assert np.max(np.abs(win_prob_solve(chain) - win_prob_solve(base))) < 1e-12
    assert np.max(np.abs(win_prob_product(game) - win_prob_solve(chain))) < 1e-10


def test_matrix_coefficients_must_sum_to_identity():
    spec = BirthDeathSpec(N=2, p=(0.3,), q=(0.2,))
    with pytest.raises(SpecError):
        GameSpec(
            dims=(spec,),
            subsets=(frozenset({1}), frozenset()),
            coeffs=(np.eye(2), 0.5 * np.eye(2)),
        )


def test_scalar_coefficients_must_sum_to_one():
    spec = BirthDeathSpec(N=2, p=(0.3,), q=(0.2,))
    with pytest.raises(SpecError):
        GameSpec(dims=(spec,), subsets=(frozenset({1}),), coeffs=(0.9,))

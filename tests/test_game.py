import time
from functools import partial

import numpy as np
import pytest
from scipy import sparse

from krongambler import (
    AbsorbingChain,
    BirthDeathSpec,
    CommunicationError,
    GameSpec,
    ResolventPgf,
    SimConfig,
    SizeError,
    SpecError,
    StochasticityError,
    absorb_dist,
    bd_matrix,
    build_game,
    check_communication,
    linear_index,
    multi_index,
    preset_r_of_d,
    simulate,
    simulate_coupled,
    win_prob_solve,
)
from krongambler import game as game_module
from krongambler.game import kron_apply, lattice_point_mass
from krongambler.birth_death import bd_restricted
from krongambler.verify import diagonal_eigenvalue_check

from conftest import (
    dense_communication,
    dense_mixture,
    direct_game_matrix,
    game_safe_budget,
    kron_all,
    rand_bd,
    rand_game,
)


def assert_kernel_is_clipped_dense_mixture(game):
    chain = build_game(game)
    kernel = chain.matrix
    assert isinstance(kernel, sparse.csr_array)
    assert kernel.has_canonical_format
    assert kernel.data.min() > 0.0
    assert np.array_equal(chain.dense(), np.clip(dense_mixture(game), 0.0, None))


def test_single_dimension_reduces_to_component_matrix():
    spec = BirthDeathSpec(N=4, p=(0.2, 0.3, 0.2), q=(0.1, 0.1, 0.2))
    game = GameSpec(dims=(spec,), subsets=(frozenset({1}),), coeffs=(1.0,))
    chain = build_game(game)
    full = bd_matrix(spec)
    assert np.allclose(chain.dense(), full[1:, 1:], atol=1e-15)
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
        assert np.max(np.abs(chain.dense() - kernel)) < 1e-14
        assert np.max(np.abs(chain.ruin - ruin)) < 1e-14


def test_full_move_preset_is_kronecker_product():
    rng = np.random.default_rng(8)
    a = rand_bd(rng, 3, budget=0.4)
    b = rand_bd(rng, 4, budget=0.4)
    chain = build_game(preset_r_of_d([a, b], 2))
    expected = np.kron(bd_restricted(a), bd_restricted(b))
    assert np.allclose(chain.dense(), expected, atol=1e-15)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("dual_safe", [True, False])
def test_csr_kernel_equals_dense_kron_mixture(d, dual_safe):
    rng = np.random.default_rng(40 + d + 3 * dual_safe)
    for r in range(1, d + 1):
        for _ in range(8):
            game = rand_game(rng, d=d, r=r, n_max=5, dual_safe=dual_safe)
            assert_kernel_is_clipped_dense_mixture(game)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                         ids=["nan", "inf", "-inf"])
def test_non_finite_coefficient_is_refused(value):
    a = BirthDeathSpec(N=2, p=(0.3,), q=(0.1,))
    with pytest.raises(SpecError, match="sum to"):
        GameSpec(dims=(a, a), subsets=(frozenset({1}), frozenset({2})),
                 coeffs=(value, 0.5))
    lazy = np.eye(4) / 2
    lazy[0, 1] = value
    with pytest.raises(SpecError, match="identity"):
        GameSpec(dims=(a, a), subsets=(frozenset({1, 2}), frozenset()),
                 coeffs=(lazy, np.eye(4) / 2))


SPEC_2 = BirthDeathSpec(N=2, p=(0.3,), q=(0.1,))


@pytest.mark.parametrize("fields, match", [
    ({"dims": ()}, "nonempty tuple of BirthDeathSpec"),
    ({"dims": ({"N": 2},)}, "nonempty tuple of BirthDeathSpec"),
    ({"subsets": (), "coeffs": ()}, "at least one move subset"),
    ({"subsets": (frozenset({3}),)}, r"subset \[3\] not within 1..2"),
    ({"coeffs": (0.5, 0.5)}, "equal length"),
    ({"coeffs": (np.eye(2),)}, r"shape \(2, 2\), expected \(4, 4\)"),
], ids=["no-dims", "raw-dims", "no-subsets", "subset-range", "coeff-count",
        "matrix-shape"])
def test_game_spec_refuses_malformed_fields(fields, match):
    good = {"dims": (SPEC_2, SPEC_2), "subsets": (frozenset({1, 2}),),
            "coeffs": (1.0,)}
    with pytest.raises(SpecError, match=match):
        GameSpec(**{**good, **fields})


def test_least_row_sum_is_cached_and_read_only():
    rng = np.random.default_rng(43)
    chain = build_game(rand_game(rng, d=2, r=1))
    r = chain.least_row_sum
    assert abs(r - chain.dense()[:-1, :-1].sum(axis=1).min()) <= 1e-15
    assert chain.least_row_sum is r
    with pytest.raises(AttributeError):
        chain.least_row_sum = 1.0
    single = build_game(preset_r_of_d([BirthDeathSpec(N=1, p=(), q=())], 1))
    assert single.least_row_sum == 1.0


def test_csr_kernel_clips_tiny_negative_mixture_entry():
    a = BirthDeathSpec(N=2, p=(0.1,), q=(0.2,))
    b = BirthDeathSpec(N=2, p=(0.3,), q=(0.4,))
    game = preset_r_of_d([a, b], 1)
    assert -1e-12 < dense_mixture(game).min() < 0.0
    assert_kernel_is_clipped_dense_mixture(game)
    assert build_game(game).matrix.nnz == np.count_nonzero(
        dense_mixture(game) > 0.0
    )


def test_csr_kernel_equals_dense_matrix_coefficient_mixture():
    rng = np.random.default_rng(41)
    dims = (rand_bd(rng, 3, budget=0.4), rand_bd(rng, 4, budget=0.4))
    lazy = np.diag(rng.uniform(0.3, 1.0, 12))
    game = GameSpec(
        dims=dims,
        subsets=(frozenset({1, 2}), frozenset()),
        coeffs=(lazy, np.eye(12) - lazy),
    )
    assert_kernel_is_clipped_dense_mixture(game)


def test_negative_mixture_entry_names_the_dense_argmin():
    rng = np.random.default_rng(42)
    raised = 0
    for _ in range(40):
        d = int(rng.integers(2, 4))
        r = int(rng.integers(1, d))
        budget = min(2.5 * game_safe_budget(d, r), 0.9)
        dims = [rand_bd(rng, int(rng.integers(2, 5)), budget=budget)
                for _ in range(d)]
        game = preset_r_of_d(dims, r)
        mixed = dense_mixture(game)
        if mixed.min() >= -1e-12:
            continue
        i, j = np.unravel_index(int(mixed.argmin()), mixed.shape)
        with pytest.raises(StochasticityError) as exc:
            build_game(game)
        assert str(exc.value) == (
            f"mixture entry {mixed.min():.3e} at states "
            f"{multi_index(game.shape, i)} -> {multi_index(game.shape, j)}"
        )
        raised += 1
    assert raised >= 10


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
        check = diagonal_eigenvalue_check(chain.dense(), np.array(candidates))
        assert check.passed, check


def test_overfull_kernel_row_is_rejected():
    # row 1 of the coefficient subtracts half of the kernel's row 0, which
    # leaks 0.2 into ruin; the balancing identity term adds that half back
    # without the leak, so no entry is negative and row 1 sums to 1.1
    spec = BirthDeathSpec(N=3, p=(0.3, 0.3), q=(0.2, 0.2))
    coeff = np.eye(3)
    coeff[1, 0] = -0.5
    game = GameSpec(
        dims=(spec,),
        subsets=(frozenset({1}), frozenset()),
        coeffs=(coeff, np.eye(3) - coeff),
    )
    with pytest.raises(StochasticityError, match="row sum exceeds 1 by 1.000e-01"):
        build_game(game)


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
    assert not dense_communication(m)


def test_communication_detects_state_without_exit():
    # states 0 and 1 pass mass between themselves and never leave
    m = np.array(
        [
            [0.5, 0.5, 0.0],
            [0.5, 0.5, 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    chain = AbsorbingChain(matrix=m, dims=(3,))
    assert not check_communication(chain)
    assert not dense_communication(m)


def test_communication_agrees_with_dense_check():
    rng = np.random.default_rng(43)
    seen = set()
    for _ in range(300):
        n = int(rng.integers(2, 8))
        m = np.zeros((n, n))
        m[-1, -1] = 1.0
        for i in range(n - 1):
            # dyadic weights, so every summation order gives the same row
            # sums: exactly 1, or at most 7/8 with the rest going to ruin
            size = min(n, int(rng.integers(1, 4)))
            cols = rng.choice(n, size=size, replace=False)
            units = 8 - int(rng.integers(0, 2)) * int(rng.integers(1, 4))
            split = rng.multinomial(units, np.ones(len(cols)) / len(cols))
            m[i, cols] = split / 8.0
        want = dense_communication(m)
        assert check_communication(AbsorbingChain(matrix=m, dims=(n,))) == want
        seen.add(want)
    assert seen == {True, False}


def test_communication_agrees_with_dense_check_on_random_games():
    # positive mixtures over random move subsets: a subset family that
    # leaves a coordinate out freezes it and splits the transient states
    rng = np.random.default_rng(44)
    seen = set()
    for _ in range(60):
        d = int(rng.integers(1, 4))
        dims = tuple(
            rand_bd(rng, int(rng.integers(2, 5)), q1_zero=bool(rng.integers(2)),
                    budget=0.9 / d)
            for _ in range(d)
        )
        subsets = tuple({
            frozenset(int(j) for j in rng.choice(
                np.arange(1, d + 1), size=int(rng.integers(1, d + 1)),
                replace=False))
            for _ in range(int(rng.integers(1, 4)))
        })
        weights = rng.uniform(0.2, 1.0, len(subsets))
        game = GameSpec(dims=dims, subsets=subsets,
                        coeffs=tuple(weights / weights.sum()))
        kernel = dense_mixture(game)
        want = dense_communication(kernel)
        assert check_communication(AbsorbingChain(kernel, game.shape)) == want
        seen.add(want)
    assert seen == {True, False}


def test_communication_counts_a_rounding_residue_as_ruin():
    # states 0-2 pass all their mass among themselves, but row 0 sums to
    # 1 - 1.1e-16, and that residue counts as a step into ruin: the check
    # answers as it always has until ruin rates are exact
    a, b = 0.3, 0.6
    c = 1.0 - a - b
    m = np.array([
        [a, b, c, 0.0],
        [c, a, b, 0.0],
        [b, c, a, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ])
    chain = AbsorbingChain(matrix=m, dims=(4,))
    assert chain.ruin[0] > 0.0 and not chain.ruin[1:].any()
    assert check_communication(chain)
    assert dense_communication(m)


def test_communication_check_is_linear_on_a_long_chain():
    # one breadth-first search: a walk of one matrix-vector product per
    # level took about 9 s on this 50,000-state chain
    n = 50_000
    chain = build_game(preset_r_of_d(
        [BirthDeathSpec(N=n, p=(0.3,) * (n - 1), q=(0.3,) * (n - 1))], 1
    ))
    start = time.perf_counter()
    assert check_communication(chain)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("dims", [(2,), (4,), (2, 3), (3, 2, 2)])
def test_kron_apply_equals_the_dense_kronecker_product(dims):
    # integer factors, so both products are exact; no factor is symmetric
    # and the two 2 x 2 factors differ, so a transposed or swapped factor
    # gives another answer
    rng = np.random.default_rng(sum(dims))
    factors = [rng.integers(-4, 5, (n, n)).astype(float) for n in dims]
    assert all(not np.array_equal(f, f.T) for f in factors)
    if dims == (3, 2, 2):
        assert not np.array_equal(factors[1], factors[2])
    dense = kron_all(factors)
    n = len(dense)
    # each factor as a callable applying its transpose, or as the matrix
    for ops in ([partial(np.matmul, f.T) for f in factors], factors):
        for x in (rng.integers(-9, 10, n).astype(float),
                  rng.integers(-9, 10, (5, n)).astype(float)):
            got = kron_apply(x, dims, ops)
            assert got.shape == x.shape
            assert np.array_equal(got, x @ dense)
        # a transposed view, as the row-side order operators pass
        matrix = rng.integers(-9, 10, (n, n)).astype(float)
        got = kron_apply(matrix.T, dims, ops).T
        assert np.array_equal(got, dense.T @ matrix)


def test_chain_converts_dense_matrix_to_csr():
    m = np.array([[0.25, 0.5, 0.0], [0.0, 0.5, 0.5], [0.0, 0.0, 1.0]])
    chain = AbsorbingChain(matrix=m, dims=(3,))
    assert isinstance(chain.matrix, sparse.csr_array)
    assert chain.matrix.nnz == 5
    dense = chain.dense().copy()
    assert np.array_equal(dense, m)
    dense[0, 0] = 0.0
    assert chain.matrix[0, 0] == 0.25
    # one cached dense kernel is shared by every caller, so it is read-only
    assert chain.dense() is chain.dense()
    with pytest.raises(ValueError, match="read-only"):
        chain.dense()[0, 0] = 0.0
    assert np.array_equal(chain.ruin, [0.25, 0.0, 0.0])


def test_chain_refuses_a_kernel_that_does_not_fit_its_dims():
    # a 4-state kernel read as 3 states would give win probabilities above 1
    spec = BirthDeathSpec(N=4, p=(0.3,) * 3, q=(0.2,) * 3)
    with pytest.raises(SpecError, match=r"\(4, 4\).*\(3,\) of 3 states"):
        AbsorbingChain(bd_restricted(spec), (3,))
    with pytest.raises(SpecError, match=r"\(3, 4\)"):
        AbsorbingChain(np.zeros((3, 4)), (3,))


def test_chain_reads_transient_block_and_exits_once():
    m = np.array([[0.25, 0.5, 0.0], [0.0, 0.5, 0.5], [0.0, 0.0, 1.0]])
    chain = AbsorbingChain(matrix=m, dims=(3,))
    assert np.array_equal(chain.transient.toarray(), m[:-1, :-1])
    assert np.array_equal(chain.exit("win"), [0.0, 0.5])
    assert np.array_equal(chain.exit("ruin"), [0.25, 0.0])
    assert chain.exit("win") is chain.exit("win")
    # the cached vectors are shared by every caller, so they are read-only
    for target in ("win", "ruin"):
        with pytest.raises(ValueError, match="read-only"):
            chain.exit(target)[0] = 1.0


def test_dense_kernel_past_the_cap_raises_size_error():
    rng = np.random.default_rng(44)
    dims = [rand_bd(rng, 57, budget=0.45) for _ in range(2)]
    chain = build_game(preset_r_of_d(dims, 1))
    assert chain.matrix.shape == (3249, 3249)
    with pytest.raises(SizeError, match="3249 states"):
        chain.dense()


def test_triplet_cap_counts_every_triplet(monkeypatch):
    # 5 x 5, r = 1: each one-coordinate term holds 12 band entries times 5
    # identity entries, the balancing identity term 25
    rng = np.random.default_rng(45)
    game = preset_r_of_d([rand_bd(rng, 5, budget=0.45) for _ in range(2)], 1)
    monkeypatch.setattr(game_module, "MAX_TRIPLETS", 145)
    build_game(game)
    monkeypatch.setattr(game_module, "MAX_TRIPLETS", 144)
    with pytest.raises(SizeError, match="25 states would assemble 145 triplets"):
        build_game(game)


def test_triplet_cap_bounds_matrix_coefficient_products(monkeypatch):
    # each diagonal coefficient has 12 nonzeros; a row of the {1, 2} term
    # holds at most 9 entries and a row of the empty term 1
    rng = np.random.default_rng(41)
    dims = (rand_bd(rng, 3, budget=0.4), rand_bd(rng, 4, budget=0.4))
    lazy = np.diag(rng.uniform(0.3, 1.0, 12))
    game = GameSpec(
        dims=dims,
        subsets=(frozenset({1, 2}), frozenset()),
        coeffs=(lazy, np.eye(12) - lazy),
    )
    monkeypatch.setattr(game_module, "MAX_TRIPLETS", 120)
    build_game(game)
    monkeypatch.setattr(game_module, "MAX_TRIPLETS", 119)
    with pytest.raises(SizeError, match="120 triplets"):
        build_game(game)


def test_three_coordinate_games_stop_at_the_dense_cap():
    rng = np.random.default_rng(46)
    inside = [rand_bd(rng, 14, budget=0.3) for _ in range(3)]
    assert build_game(preset_r_of_d(inside, 1)).size == 2744
    past = [rand_bd(rng, 15, budget=0.3) for _ in range(3)]
    with pytest.raises(SizeError, match="3 coordinates and 3375 states"):
        build_game(preset_r_of_d(past, 1))


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


def test_fractional_or_bare_coordinates_are_refused():
    # a fraction is refused, not truncated: (1.5, 2) is not (1, 2)
    for bad in ((1.5, 2), (2.0, 1), (1,), 4, "12"):
        with pytest.raises(IndexError):
            linear_index((3, 3), bad)
    with pytest.raises(IndexError):
        lattice_point_mass((3, 3), (2.9, 1))
    assert linear_index((3, 3), (np.int64(2), np.int32(3))) == 5


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


def test_matrix_coefficients_run_every_pipeline_on_the_built_chain():
    # a 3x3 game with diagonal state-dependent laziness: absorb_dist, the
    # pgf and the simulator read the built chain; only the dual refuses it
    rng = np.random.default_rng(15)
    dims = (rand_bd(rng, 3, budget=0.45), rand_bd(rng, 3, budget=0.45))
    lazy = np.diag(rng.uniform(0.3, 1.0, 9))
    game = GameSpec(
        dims=dims,
        subsets=(frozenset({1}), frozenset({2}), frozenset()),
        coeffs=(0.5 * lazy, 0.5 * lazy, np.eye(9) - lazy),
    )
    chain = build_game(game)
    start = (2, 2)
    nu = lattice_point_mass(chain.dims, start)
    rho = float(win_prob_solve(chain)[chain.to_linear(start)])
    assert abs(absorb_dist(chain, nu).mass() - rho) < 1e-12
    assert abs(ResolventPgf(chain, nu).evaluate(1.0) - rho) < 1e-12
    report = simulate(chain, start, SimConfig(runs=4000, seed=7))
    assert report.n_timeout == 0
    assert abs(report.win_freq - rho) <= 4 * report.win_se
    with pytest.raises(SpecError, match="scalar coefficients"):
        simulate_coupled(game, nu, SimConfig(runs=10, seed=7))


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

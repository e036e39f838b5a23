import re
import time
from functools import partial

import numpy as np
import pytest
from scipy import sparse

from krongambler import (
    AbsorbingChain,
    BirthDeathSpec,
    CommunicationError,
    CouplingError,
    GameSpec,
    ResolventPgf,
    SimConfig,
    SizeError,
    SpecError,
    StochasticityError,
    absorb_dist,
    bd_matrix,
    build_dual,
    build_game,
    check_communication,
    linear_index,
    multi_index,
    preset_r_of_d,
    simulate,
    simulate_coupled,
    win_prob_product,
    win_prob_solve,
)
from krongambler import absorption, linalg
from krongambler import game as game_module
from krongambler.game import (
    kron_apply,
    kron_mixture,
    lattice_point_mass,
    start_law,
    start_vector,
    state_labels,
)
from krongambler.birth_death import bd_eigenvalues, bd_restricted
from krongambler.intertwine import _birth_band
from krongambler.verify import diagonal_eigenvalue_check

from conftest import (
    dense_communication,
    dense_mixture,
    direct_game_matrix,
    dual_safe_budget,
    game_safe_budget,
    kron_all,
    loop_ergodic_matrix,
    loop_pure_birth,
    rand_bd,
    rand_ergodic,
    rand_game,
)


def assert_kernel_is_clipped_dense_mixture(game):
    chain = build_game(game)
    kernel = chain.matrix
    assert isinstance(kernel, sparse.csr_array)
    assert kernel.has_canonical_format
    assert kernel.data.min() > 0.0
    assert np.array_equal(chain.matrix.toarray(),
                          np.clip(dense_mixture(game), 0.0, None))


def test_single_dimension_reduces_to_component_matrix():
    spec = BirthDeathSpec(N=4, p=(0.2, 0.3, 0.2), q=(0.1, 0.1, 0.2))
    game = GameSpec(dims=(spec,), subsets=(frozenset({1}),), coeffs=(1.0,))
    chain = build_game(game)
    full = bd_matrix(spec)
    assert np.allclose(chain.matrix.toarray(), full[1:, 1:], atol=1e-15)
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
        assert np.max(np.abs(chain.matrix.toarray() - kernel)) < 1e-14
        assert np.max(np.abs(chain.ruin - ruin)) < 1e-14


def test_full_move_preset_is_kronecker_product():
    rng = np.random.default_rng(8)
    a = rand_bd(rng, 3, budget=0.4)
    b = rand_bd(rng, 4, budget=0.4)
    chain = build_game(preset_r_of_d([a, b], 2))
    expected = np.kron(bd_restricted(a), bd_restricted(b))
    assert np.allclose(chain.matrix.toarray(), expected, atol=1e-15)


def explicit_game(rng, d, state_weights):
    """Random subsets (some empty) over sides 1 to 4, with signed scalar
    coefficients or signed state weights."""
    sides = rng.choice([1, 2, 2, 3, 4], d)
    dims = tuple(rand_bd(rng, int(n), budget=0.2 / d) if n > 1
                 else BirthDeathSpec(N=1, p=(), q=()) for n in sides)
    m = int(rng.integers(1, 5))
    subsets = tuple(frozenset(map(int, 1 + np.flatnonzero(rng.random(d) < 0.6)))
                    for _ in range(m))
    size = int(np.prod([s.N for s in dims]))
    draws = [rng.uniform(-0.3, 0.8, size if state_weights else None)
             for _ in range(m - 1)]
    return GameSpec(dims=dims, subsets=subsets, coeffs=(*draws, 1.0 - sum(draws)))


def assert_assembly_is_clipped_dense(game, bands, factors) -> bool:
    """``kron_mixture`` of the bands equals the clipped dense mixture of the
    factors bit for bit, or refuses the dense minimum at its first state."""
    mixed = dense_mixture(game, factors)
    assemble = partial(kron_mixture, bands, game.subsets, game.coeffs,
                       StochasticityError, "{low:.3e} at {src} -> {dst}")
    if mixed.min() < -linalg.DEFAULT_TOL:
        i, j = np.unravel_index(int(mixed.argmin()), mixed.shape)
        with pytest.raises(StochasticityError, match=re.escape(
                f"{mixed.min():.3e} at {multi_index(game.shape, i)} -> "
                f"{multi_index(game.shape, j)}")):
            assemble()
        return False
    kernel = assemble()
    assert isinstance(kernel, sparse.csr_array)
    assert kernel.has_canonical_format
    assert np.array_equal(kernel.toarray(), np.clip(mixed, 0.0, None))
    return True


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("dual_safe", [True, False])
def test_csr_kernel_equals_dense_kron_mixture(d, dual_safe):
    rng = np.random.default_rng(40 + d + 3 * dual_safe)
    for r in range(1, d + 1):
        for _ in range(8):
            game = rand_game(rng, d=d, r=r, n_max=5, dual_safe=dual_safe)
            assert_kernel_is_clipped_dense_mixture(game)
    # explicit subsets over sides 1 and 2 too, with signed scalar (dual_safe)
    # or state-weighted coefficients, assembled from the game's bands, the
    # pure-birth dual's bands and ergodic walks, whose end states hold
    built = {"game": 0, "dual": 0, "walk": 0}
    for _ in range(30):
        game = explicit_game(rng, d, state_weights=not dual_safe)
        lams = [bd_eigenvalues(s) for s in game.dims]
        walks = [rand_ergodic(rng, s.N) if s.N > 1 else None for s in game.dims]
        built["game"] += assert_assembly_is_clipped_dense(
            game, [s.band for s in game.dims], None)
        built["dual"] += assert_assembly_is_clipped_dense(
            game, [_birth_band(lam) for lam in lams],
            [loop_pure_birth(lam) for lam in lams])
        built["walk"] += assert_assembly_is_clipped_dense(
            game, [w.band if w else s.band for w, s in zip(walks, game.dims)],
            [loop_ergodic_matrix(w) if w else np.eye(1) for w in walks])
    assert min(built.values()) >= 10


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                         ids=["nan", "inf", "-inf"])
def test_non_finite_coefficient_is_refused(value):
    a = BirthDeathSpec(N=2, p=(0.3,), q=(0.1,))
    with pytest.raises(SpecError, match="sum to"):
        GameSpec(dims=(a, a), subsets=(frozenset({1}), frozenset({2})),
                 coeffs=(value, 0.5))
    # the opposite value in the other vector: inf and -inf sum to NaN
    lazy = np.full(4, 0.5)
    lazy[1] = value
    with pytest.raises(SpecError, match=re.escape(
            "state weights must sum to 1, but sum to nan at state (1, 2)")):
        GameSpec(dims=(a, a), subsets=(frozenset({1, 2}), frozenset()),
                 coeffs=(lazy, 1.0 - lazy))


SPEC_2 = BirthDeathSpec(N=2, p=(0.3,), q=(0.1,))


@pytest.mark.parametrize("fields, match", [
    ({"dims": ()}, "nonempty tuple of BirthDeathSpec"),
    ({"dims": ({"N": 2},)}, "nonempty tuple of BirthDeathSpec"),
    ({"subsets": (), "coeffs": ()}, "at least one move subset"),
    ({"subsets": (frozenset({3}),)}, r"subset \[3\] not within 1..2"),
    ({"coeffs": (0.5, 0.5)}, "equal length"),
    ({"coeffs": (np.eye(2),)}, r"shape \(2, 2\), expected \(4,\)"),
    # once read as {1} and {2}, and True as coordinate 1
    ({"subsets": ((1.5,), (2.9,)), "coeffs": (0.5, 0.5)},
     "subset member must be an integer, got 1.5"),
    ({"subsets": ((True, 2),)}, "subset member must be an integer, got True"),
    # once a bare TypeError ("'int' object is not iterable")
    ({"subsets": (1,)}, "subset must be a sequence, got 1"),
    ({"subsets": None}, "subsets must be a sequence, got None"),
], ids=["no-dims", "raw-dims", "no-subsets", "subset-range", "coeff-count",
        "matrix-shape", "subset-fraction", "subset-bool", "subset-scalar",
        "subsets-none"])
def test_game_spec_refuses_malformed_fields(fields, match):
    good = {"dims": (SPEC_2, SPEC_2), "subsets": (frozenset({1, 2}),),
            "coeffs": (1.0,)}
    with pytest.raises(SpecError, match=match):
        GameSpec(**{**good, **fields})


def test_game_spec_reads_numpy_integer_members():
    game = GameSpec(dims=(SPEC_2, SPEC_2), subsets=((np.int64(1), np.int8(2)),),
                    coeffs=(1.0,))
    assert game.subsets == (frozenset({1, 2}),)


def test_least_row_sum_is_cached_and_read_only():
    rng = np.random.default_rng(43)
    chain = build_game(rand_game(rng, d=2, r=1))
    r = chain.least_row_sum
    assert abs(r - chain.matrix.toarray()[:-1, :-1].sum(axis=1).min()) <= 1e-15
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
    lazy = rng.uniform(0.3, 1.0, 12)
    game = GameSpec(
        dims=dims,
        subsets=(frozenset({1, 2}), frozenset()),
        coeffs=(lazy, 1.0 - lazy),
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
    for r in (1.5, True):
        with pytest.raises(SpecError, match=f"r must be an integer, got {r}"):
            preset_r_of_d(dims, r)
    assert preset_r_of_d(dims, np.int64(1)).subsets == (frozenset({1}),)


def test_preset_refuses_a_bare_component():
    # one BirthDeathSpec where a sequence of them belongs
    with pytest.raises(SpecError, match=re.escape(
            f"dims must be a sequence, got {SPEC_2!r}")):
        preset_r_of_d(SPEC_2, 1)


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
        check = diagonal_eigenvalue_check(chain.matrix.toarray(), np.array(candidates))
        assert check.passed, check


def test_overfull_kernel_row_is_rejected():
    # the move term carries weight -delta, so each move of a transient row
    # becomes -0.3 delta = -1e-12, which the assembly clamps to zero, and
    # its hold -0.4 delta + 1 + delta = 1 + 0.6 delta: the row sums exceed
    # 1 by 2e-12 with no entry left negative
    spec = BirthDeathSpec(N=3, p=(0.3, 0.3), q=(0.3, 0.3))
    delta = 1e-12 / 0.3
    game = GameSpec(
        dims=(spec,),
        subsets=(frozenset({1}), frozenset()),
        coeffs=(-delta, 1.0 + delta),
    )
    with pytest.raises(StochasticityError, match="row sum exceeds 1 by 2.000e-12"):
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
    assert np.array_equal(chain.matrix.toarray(), m)
    m[0, 0] = 0.0
    assert chain.matrix[0, 0] == 0.25
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
    # (I - Q)^-1 exit: state 1 holds 1/4, steps up 1/2 and is ruined 1/4;
    # state 2 leaves only to the win
    assert np.allclose(chain.absorption("win"), [2.0 / 3.0, 1.0], atol=1e-15)
    assert np.allclose(chain.absorption("ruin"), [1.0 / 3.0, 0.0], atol=1e-15)
    for target in ("win", "ruin"):
        assert chain.absorption(target) is chain.absorption(target)
        # the same LU and right-hand side as a fresh solve, bit for bit
        assert np.array_equal(chain.absorption(target),
                              linalg.resolvent(chain).solve(chain.exit(target)))
    with pytest.raises(ValueError, match="target must be"):
        chain.absorption("lose")
    # the cached vectors are shared by every caller, so they are read-only
    for target in ("win", "ruin"):
        with pytest.raises(ValueError, match="read-only"):
            chain.exit(target)[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            chain.absorption(target)[0] = 1.0


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
    # state weights leave a term's triplets as they are: the {1, 2} term
    # holds 6 x 9 band nonzeros, the empty term 12 identity entries
    rng = np.random.default_rng(41)
    dims = (rand_bd(rng, 3, budget=0.4), rand_bd(rng, 4, budget=0.4))
    lazy = rng.uniform(0.3, 1.0, 12)
    game = GameSpec(
        dims=dims,
        subsets=(frozenset({1, 2}), frozenset()),
        coeffs=(lazy, 1.0 - lazy),
    )
    monkeypatch.setattr(game_module, "MAX_TRIPLETS", 66)
    build_game(game)
    monkeypatch.setattr(game_module, "MAX_TRIPLETS", 65)
    with pytest.raises(SizeError, match="12 states would assemble 66 triplets"):
        build_game(game)


def test_triplet_cap_bounds_the_dual_assembly(monkeypatch):
    # 5 x 5, r = 1: each one-coordinate term holds 9 bidiagonal band entries
    # times 5 identity entries, the balancing identity term 25
    rng = np.random.default_rng(45)
    budget = dual_safe_budget(2, 1)
    game = preset_r_of_d([rand_bd(rng, 5, budget=budget) for _ in range(2)], 1)
    monkeypatch.setattr(game_module, "MAX_TRIPLETS", 115)
    build_dual(game)
    monkeypatch.setattr(game_module, "MAX_TRIPLETS", 114)
    with pytest.raises(SizeError, match="25 states would assemble 115 triplets"):
        build_dual(game)


def test_three_coordinate_games_stop_at_the_dense_cap(monkeypatch):
    # the game builds; every caller of the sparse LU refuses it before the
    # factorization and before any power-iteration step
    rng = np.random.default_rng(46)
    inside = build_game(preset_r_of_d(
        [rand_bd(rng, 14, budget=0.3) for _ in range(3)], 1))
    assert inside.size == 2744
    assert win_prob_solve(inside)[0] > 0.0
    past = build_game(preset_r_of_d(
        [rand_bd(rng, 15, budget=0.3) for _ in range(3)], 1))
    assert past.size == 3375

    def entered(*args):
        raise AssertionError("the LU or the power iteration was entered")

    monkeypatch.setattr(linalg, "splu", entered)
    monkeypatch.setattr(absorption, "_power_iteration", entered)
    nu = lattice_point_mass(past.dims, (2, 2, 2))
    for call in (partial(win_prob_solve, past),
                 partial(absorb_dist, past, nu),
                 partial(absorb_dist, past, nu, target="ruin", horizon=10),
                 partial(ResolventPgf(past, nu).evaluate, 0.5),
                 ResolventPgf(past, nu).mean):
        with pytest.raises(SizeError, match="3 coordinates and 3375 states"):
            call()


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
    for shape in (dims, (12,), (3, 11, 2)):
        assert state_labels(shape) == [
            ",".join(map(str, multi_index(shape, lin)))
            for lin in range(int(np.prod(shape)))
        ]


def test_fractional_or_bare_coordinates_are_refused():
    # a fraction is refused, not truncated: (1.5, 2) is not (1, 2)
    for bad in ((1.5, 2), (2.0, 1), (1,), 4, "12"):
        with pytest.raises(IndexError):
            linear_index((3, 3), bad)
    with pytest.raises(IndexError):
        lattice_point_mass((3, 3), (2.9, 1))
    assert linear_index((3, 3), (np.int64(2), np.int32(3))) == 5
    # a fractional lattice index is refused before np.unravel_index sees it
    for bad in (2.5, 2.0, "2"):
        with pytest.raises(IndexError):
            multi_index((3,), bad)
    assert multi_index((3, 3), np.int64(5)) == (2, 3)


# -- start vectors and start laws ---------------------------------------------


def test_start_vector_is_a_flat_copy_of_a_flat_or_lattice_start():
    signed = np.arange(6.0).reshape(2, 3) - 2.0
    for nu in (signed, signed.ravel(), signed.tolist()):
        vec = start_vector((2, 3), nu)
        assert vec.shape == (6,)
        assert np.array_equal(vec, signed.ravel())
    vec[0] = 99.0
    assert signed[0, 0] == -2.0
    law = start_law((2, 3), np.full((2, 3), 1 / 6))
    assert np.array_equal(law, np.full(6, 1 / 6))


@pytest.mark.parametrize("nu, message", [
    (np.full(4, 0.25), "4 entries, expected 3"),
    ([0.0, np.nan, 1.0], "entry nan at index 1 is not finite"),
    ([0.0, 1.0, np.inf], "entry inf at index 2 is not finite"),
])
def test_start_vector_refuses_wrong_size_and_non_finite_entries(nu, message):
    for read in (start_vector, start_law):
        with pytest.raises(SpecError, match=message):
            read((3,), nu)


@pytest.mark.parametrize("nu, message", [
    ([0.0, 2.0, 0.0], "mass 2.0, not 1"),
    ([0.0, 0.0, 0.0], "mass 0.0, not 1"),
    ([-0.5, 1.0, 0.5], "negative entry -0.5"),
])
def test_start_law_refuses_a_signed_start_or_a_mass_other_than_one(nu, message):
    with pytest.raises(SpecError, match=message):
        start_law((3,), nu)
    assert np.array_equal(start_vector((3,), nu), nu)


def three_state_game():
    # ruin is reachable: rho(1) = 9/13
    spec = BirthDeathSpec(N=3, p=(0.3, 0.3), q=(0.1, 0.1))
    return GameSpec(dims=(spec,), subsets=(frozenset({1}),), coeffs=(1.0,))


@pytest.mark.parametrize("nu, message", [
    ([0.0, 2.0, 0.0], "mass 2.0"),
    ([0.0, 0.0, 0.0], "mass 0.0"),
    ([0.0, np.nan, 1.0], "entry nan"),
    ([0.25] * 4, "4 entries"),
])
def test_pgf_and_coupled_simulation_refuse_anything_but_a_start_law(nu, message):
    game = three_state_game()
    with pytest.raises(SpecError, match=message):
        ResolventPgf(build_game(game), nu)
    with pytest.raises(SpecError, match=message):
        simulate_coupled(game, nu, SimConfig(runs=10, seed=0))


def test_absorb_dist_refuses_a_bad_start_before_any_step():
    chain = build_game(three_state_game())
    t0 = time.perf_counter()
    with pytest.raises(SpecError, match="entry nan"):
        absorb_dist(chain, [np.nan, 0.0, 0.0])
    assert time.perf_counter() - t0 < 0.1
    with pytest.raises(SpecError, match="4 entries, expected 3"):
        absorb_dist(chain, [0.25] * 4)
    # the law is linear in its start: twice the start, twice the pmf
    once = absorb_dist(chain, [0.0, 1.0, 0.0], horizon=20)
    twice = absorb_dist(chain, [0.0, 2.0, 0.0], horizon=20)
    assert np.array_equal(twice.pmf, 2.0 * once.pmf)
    assert twice.mass() == 2.0 * once.mass()


def test_coupled_simulation_names_the_sum_of_nonnegative_weights():
    # from the win corner the dual weights are (0, 0, 1/rho(1)): nonnegative,
    # but of mass 13/9, so the error names the sum and does not say "signed"
    game = three_state_game()
    with pytest.raises(CouplingError, match=r"sum to 1\.444") as err:
        simulate_coupled(game, [0.0, 0.0, 1.0], SimConfig(runs=10, seed=0))
    assert "signed" not in str(err.value)


def test_matrix_coefficients_state_dependent_laziness():
    rng = np.random.default_rng(14)
    spec = rand_bd(rng, 4, budget=0.5)
    base = build_game(GameSpec(dims=(spec,), subsets=(frozenset({1}),),
                               coeffs=(1.0,)))
    lazy = rng.uniform(0.3, 1.0, 4)
    game = GameSpec(
        dims=(spec,),
        subsets=(frozenset({1}), frozenset()),
        coeffs=(lazy, 1.0 - lazy),
    )
    assert not game.scalar_coeffs
    chain = build_game(game)
    # per-state laziness rescales rows; absorption probabilities survive
    from krongambler.siegmund import win_prob_product, win_prob_solve

    assert np.max(np.abs(win_prob_solve(chain) - win_prob_solve(base))) < 1e-12
    assert np.max(np.abs(win_prob_product(game) - win_prob_solve(chain))) < 1e-10


def test_state_weights_build_a_game_of_40000_states():
    # n x n coefficient matrices would hold 1.6e9 entries each; the weight
    # vectors scale the terms' triplets and allocate nothing n x n
    n = 200
    spec = BirthDeathSpec(N=n, p=(0.3,) * (n - 1), q=(0.25,) * (n - 1))
    lazy = np.random.default_rng(17).uniform(0.3, 1.0, n * n)
    game = GameSpec(
        dims=(spec, spec),
        subsets=(frozenset({1}), frozenset({2}), frozenset()),
        coeffs=(0.5 * lazy, 0.5 * lazy, 1.0 - lazy),
    )
    chain = build_game(game)
    assert np.max(np.abs(win_prob_solve(chain) - win_prob_product(game))) < 1e-10


def test_matrix_coefficients_run_every_pipeline_on_the_built_chain():
    # a 3x3 game with state-dependent laziness: absorb_dist, the
    # pgf and the simulator read the built chain; only the dual refuses it
    rng = np.random.default_rng(15)
    dims = (rand_bd(rng, 3, budget=0.45), rand_bd(rng, 3, budget=0.45))
    lazy = rng.uniform(0.3, 1.0, 9)
    game = GameSpec(
        dims=dims,
        subsets=(frozenset({1}), frozenset({2}), frozenset()),
        coeffs=(0.5 * lazy, 0.5 * lazy, 1.0 - lazy),
    )
    chain = build_game(game)
    start = (2, 2)
    nu = lattice_point_mass(chain.dims, start)
    rho = float(win_prob_solve(chain)[linear_index(chain.dims, start)])
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
            coeffs=(np.ones(2), np.full(2, 0.5)),
        )


def test_scalar_coefficients_must_sum_to_one():
    spec = BirthDeathSpec(N=2, p=(0.3,), q=(0.2,))
    with pytest.raises(SpecError):
        GameSpec(dims=(spec,), subsets=(frozenset({1}),), coeffs=(0.9,))

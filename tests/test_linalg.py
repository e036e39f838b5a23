import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse.linalg import splu

from krongambler import AbsorbingChain, build_game, linalg
from krongambler.birth_death import bd_matrix, bd_restricted
from krongambler.game import GameSpec, _kron_triplets, preset_r_of_d
from krongambler.intertwine import SpectralLink, build_dual
from krongambler.linalg import resolvent

from conftest import game_safe_budget, rand_bd, rand_game


def small_matrix(rows, cols):
    return st.lists(
        st.lists(
            st.floats(-5, 5, allow_nan=False, allow_infinity=False),
            min_size=cols, max_size=cols,
        ),
        min_size=rows, max_size=rows,
    ).map(np.array)


def kron(*mats):
    """Kronecker product of square factors by the package's two routes.

    The CSR assembly's triplets (``game._kron_triplets``) and the spectral
    link's entries (``SpectralLink.entries``) must agree bit for bit; the
    product is returned as a dense array.
    """
    factors = []
    for m in mats:
        rows, cols = np.nonzero(m)
        factors.append((rows, cols, m[rows, cols], len(m)))
    rows, cols, vals = _kron_triplets(factors)
    sides = tuple(len(m) for m in mats)
    n = int(np.prod(sides))
    out = np.zeros((n, n))
    out[rows, cols] = vals
    link = SpectralLink(per_dim=tuple(mats), iso_value=1.0, dims=sides)
    states = np.arange(n)
    assert np.array_equal(link.entries(states[:, None], states), out)
    return out


def test_kron_identity_factor_is_block_diagonal():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = kron(np.eye(2), a)
    expected = np.block([[a, np.zeros((2, 2))], [np.zeros((2, 2)), a]])
    assert np.array_equal(out, expected)


def test_kron_scalar_factor_scales():
    b = np.array([[1.0, -1.0], [0.5, 2.0]])
    assert np.array_equal(kron(np.array([[2.0]]), b), 2.0 * b)


def test_kron_hand_expansion():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    b = np.array([[1.0, 2.0], [3.0, 4.0]])
    expected = np.array(
        [
            [0, 0, 1, 2],
            [0, 0, 3, 4],
            [1, 2, 0, 0],
            [3, 4, 0, 0],
        ],
        dtype=float,
    )
    assert np.array_equal(kron(a, b), expected)


def test_augment_restrict_round_trip_matches_game_matrix():
    rng = np.random.default_rng(3)
    for _ in range(20):
        spec = rand_bd(rng, int(rng.integers(2, 7)))
        full = bd_matrix(spec)
        interior = full[1:, 1:]
        assert np.array_equal(interior, bd_restricted(spec))
        chain = AbsorbingChain(interior, (spec.N,))
        assert np.allclose(chain.ruin, full[1:, 0], atol=1e-15)


@settings(max_examples=60, deadline=None)
@given(small_matrix(2, 2), small_matrix(3, 3), small_matrix(2, 2), small_matrix(3, 3))
def test_mixed_product_rule(a, b, c, d):
    lhs = kron(a, b) @ kron(c, d)
    rhs = kron(a @ c, b @ d)
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, np.max(np.abs(rhs)))


@settings(max_examples=60, deadline=None)
@given(small_matrix(2, 2), small_matrix(3, 3))
def test_transpose_rule_exact(a, b):
    assert np.array_equal(kron(a, b).T, kron(a.T, b.T))


def test_inverse_rule():
    rng = np.random.default_rng(11)
    for _ in range(40):
        a = rng.uniform(-1, 1, (2, 2)) + 2.0 * np.eye(2)
        b = rng.uniform(-1, 1, (3, 3)) + 2.0 * np.eye(3)
        lhs = np.linalg.inv(kron(a, b))
        rhs = kron(np.linalg.inv(a), np.linalg.inv(b))
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_left_eigenvector_of_kron_product():
    rng = np.random.default_rng(12)
    for _ in range(30):
        factors, vectors, values = [], [], []
        for _ in range(int(rng.integers(2, 4))):
            m = rng.uniform(0.05, 1.0, (3, 3))
            m /= m.sum(axis=1, keepdims=True)
            vals, vecs = np.linalg.eig(m.T)
            k = int(np.argmax(np.abs(np.imag(vals)) < 1e-12))
            factors.append(m)
            vectors.append(np.real(vecs[:, k]))
            values.append(np.real(vals[k]))
        big = kron(*factors)
        vec = vectors[0]
        for v in vectors[1:]:
            vec = np.kron(vec, v)
        residual = vec @ big - np.prod(values) * vec
        assert np.max(np.abs(residual)) < 1e-10


@functools.cache
def resolvent_chain(name):
    """The chains the resolvent tests factor, by name: random games of one
    to four coordinates, a game with state weights (state-dependent
    laziness) and a pure-birth dual."""
    rng = np.random.default_rng(62)
    if name.startswith("d="):
        d = int(name[2:])
        n_max = {1: 40, 2: 12, 3: 6, 4: 4}[d]
        return build_game(rand_game(rng, d=d, n_max=n_max, dual_safe=False))
    if name == "matrix-coeffs":
        dims = (rand_bd(rng, 5, budget=0.45), rand_bd(rng, 4, budget=0.45))
        lazy = rng.uniform(0.3, 1.0, 20)
        return build_game(GameSpec(
            dims=dims,
            subsets=(frozenset({1}), frozenset({2}), frozenset()),
            coeffs=(0.5 * lazy, 0.5 * lazy, 1.0 - lazy),
        ))
    return build_dual(rand_game(rng, d=2, r=2, n_max=5))[1]


CHAINS = ["d=1", "d=2", "d=3", "d=4", "matrix-coeffs", "dual"]


@pytest.mark.parametrize("s", [-1.0, -0.3, 0.5, 1.0])
@pytest.mark.parametrize("name", CHAINS)
def test_resolvent_solves_the_dense_system(name, s):
    chain = resolvent_chain(name)
    q = chain.transient.toarray()
    b = np.random.default_rng(63).uniform(-1.0, 1.0, len(q))
    lu = resolvent(chain, s)
    expected = np.linalg.solve(np.eye(len(q)) - s * q, b)
    error = np.max(np.abs(lu.solve(b) - expected))
    assert error <= 1e-12 * np.max(np.abs(expected))
    # symmetric mode pivots on the diagonal: one permutation for rows and
    # columns (the default's row pivoting leaves the diagonal at s = 1)
    assert np.array_equal(lu.perm_r, lu.perm_c)


def test_resolvent_fills_less_than_the_default_lu():
    rng = np.random.default_rng(64)
    dims = [rand_bd(rng, 60, budget=game_safe_budget(2, 1)) for _ in range(2)]
    chain = build_game(preset_r_of_d(dims, 1))
    system = sparse.csc_array(sparse.eye_array(chain.size - 1) - chain.transient)
    fill = [lu.L.nnz + lu.U.nnz for lu in (
        resolvent(chain),
        splu(system),
        # the default ordering (COLAMD) in symmetric mode
        splu(system, diag_pivot_thresh=0.0, options={"SymmetricMode": True}),
    )]
    assert fill[0] < min(fill[1:])


@pytest.mark.parametrize("s", [1.5, np.nan])
def test_resolvent_refuses_s_outside_the_unit_interval(monkeypatch, s):
    def entered(*args, **kwargs):
        raise AssertionError("the LU was entered")

    monkeypatch.setattr(linalg, "splu", entered)
    with pytest.raises(ValueError, match=r"\|s\| <= 1"):
        resolvent(resolvent_chain("d=1"), s)

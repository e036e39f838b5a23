import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krongambler import SizeError, StochasticityError, augment_sink, kron
from krongambler.birth_death import bd_matrix, bd_restricted
from krongambler.linalg import kron_all

from conftest import rand_bd


def small_matrix(rows, cols):
    return st.lists(
        st.lists(
            st.floats(-5, 5, allow_nan=False, allow_infinity=False),
            min_size=cols, max_size=cols,
        ),
        min_size=rows, max_size=rows,
    ).map(np.array)


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


def test_kron_size_cap():
    big = np.ones((2000, 2000))
    with pytest.raises(SizeError):
        kron(big, np.ones((3, 3)))


def test_augment_stochastic_input_has_unreachable_sink():
    out = augment_sink(np.eye(2))
    assert np.array_equal(out, np.eye(3))


def test_augment_collects_leak():
    out = augment_sink(np.array([[0.5]]))
    assert np.allclose(out, [[1.0, 0.0], [0.5, 0.5]])


def test_augment_rejects_overfull_rows():
    with pytest.raises(StochasticityError):
        augment_sink(np.array([[0.7, 0.7], [0.0, 0.1]]))


def test_augment_restrict_round_trip_matches_game_matrix():
    rng = np.random.default_rng(3)
    for _ in range(20):
        spec = rand_bd(rng, int(rng.integers(2, 7)))
        full = bd_matrix(spec)
        interior = full[1:, 1:]
        assert np.array_equal(interior, bd_restricted(spec))
        assert np.allclose(augment_sink(interior), full, atol=1e-15)


@settings(max_examples=60, deadline=None)
@given(small_matrix(2, 3), small_matrix(3, 2), small_matrix(3, 2), small_matrix(2, 3))
def test_mixed_product_rule(a, b, c, d):
    lhs = kron(a, b) @ kron(c, d)
    rhs = kron(a @ c, b @ d)
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, np.max(np.abs(rhs)))


@settings(max_examples=60, deadline=None)
@given(small_matrix(2, 3), small_matrix(3, 4))
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
        big = kron_all(factors)
        vec = vectors[0]
        for v in vectors[1:]:
            vec = np.kron(vec, v)
        residual = vec @ big - np.prod(values) * vec
        assert np.max(np.abs(residual)) < 1e-10

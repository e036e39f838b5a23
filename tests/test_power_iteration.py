"""The blocked power-iteration engine against the step-by-step dense oracle.

Every case asks for the same pmf length as the oracle and agreement within
1e-12 on the pmf and the absorbed mass.
"""

import math

import numpy as np
import pytest

from krongambler import (
    HorizonError,
    absorb_dist,
    absorption,
    build_game,
    preset_r_of_d,
)
from krongambler.absorption import _power_iteration
from krongambler.game import lattice_point_mass
from krongambler.intertwine import build_dual, dual_initial
from krongambler.linalg import resolvent
from krongambler.specfile import load_spec

from conftest import dual_safe_budget, rand_bd, reference_power_iteration
from test_cli_corpus import CORPUS

TOL = 1e-12


def assert_matches_reference(chain, start, horizon=None, eps=1e-12):
    """The engine's win law against the oracle's; returns (pmf, absorbed)."""
    exit = chain.exit("win")
    got_pmf, got_tail = _power_iteration(
        chain.transient, exit, resolvent(chain).solve(exit), start[:-1],
        horizon, eps,
    )
    got_pmf[0] = start[-1]
    want_pmf, want_absorbed = reference_power_iteration(
        chain.matrix.toarray(), start[None], chain.win_index, horizon, eps
    )
    got_absorbed = got_pmf.sum() + got_tail
    assert got_pmf.shape == want_pmf[0].shape
    assert np.max(np.abs(got_pmf - want_pmf[0])) <= TOL
    assert abs(got_absorbed - want_absorbed[0]) <= TOL
    return got_pmf, got_absorbed


def random_game(rng, shape, r=1):
    d = len(shape)
    dims = [rand_bd(rng, n, budget=dual_safe_budget(d, r)) for n in shape]
    return preset_r_of_d(dims, r)


def transient_masses(p, start, steps):
    """Transient l1 mass of start @ p^t for t = 0..steps."""
    transient = np.diag(p) < 1.0 - 1e-12
    v = start
    out = [np.abs(v[transient]).sum()]
    for _ in range(steps):
        v = v @ p
        out.append(np.abs(v[transient]).sum())
    return np.array(out)


# A 3-D and a 2-D lattice at each of two sizes, from 64 to 225 states.
SHAPES = [(4, 4, 4), (9, 9), (6, 6, 6), (15, 15)]


@pytest.mark.parametrize("shape", SHAPES)
def test_game_kernel_matches_reference(shape):
    rng = np.random.default_rng(sum(shape))
    game = random_game(rng, shape)
    chain = build_game(game)
    start = np.zeros(game.size)
    start[int(rng.integers(0, game.size - 1))] = 1.0
    assert_matches_reference(chain, start)


@pytest.mark.parametrize("shape", SHAPES)
def test_dual_batch_matches_reference(shape):
    # the signed mixed start nu_hat of the game started at (2, ..., 2)
    rng = np.random.default_rng(100 + sum(shape))
    game = random_game(rng, shape)
    link, dual = build_dual(game)
    nu = lattice_point_mass(game.shape, (2,) * len(shape))
    weights = dual_initial(link, nu)
    assert weights.min() < 0.0
    assert_matches_reference(dual, weights)


@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
def test_engine_steps_round_as_the_csr_product(index_dtype):
    # The engine calls scipy's private kernel csr_matvec itself. Its iterate
    # after one step, and after a block boundary, must equal the public
    # product q.T.tocsr() @ x bit for bit, for either index width.
    rng = np.random.default_rng(15)
    chain = build_game(random_game(rng, (3, 4)))
    q = chain.transient.copy()
    q.indptr = q.indptr.astype(index_dtype)
    q.indices = q.indices.astype(index_dtype)
    q_t = q.T.tocsr()
    assert q_t.indices.dtype == index_dtype
    start = rng.normal(size=q.shape[0])
    for horizon in (1, absorption.BLOCK_STEPS + 1):
        want = start
        for _ in range(horizon):
            want = q_t @ want
        # a unit vector as h makes the returned tail one entry of the
        # last iterate, exactly
        got = [_power_iteration(q, chain.exit("win"), unit, start, horizon, 0.0)[1]
               for unit in np.eye(q.shape[0])]
        assert np.array_equal(got, want)


@pytest.mark.parametrize("shape", [(4, 4, 4), (15, 15)])
def test_signed_start_row_matches_reference(shape):
    rng = np.random.default_rng(7)
    game = random_game(rng, shape)
    chain = build_game(game)
    start = rng.normal(size=game.size)
    start /= np.abs(start).sum()
    assert_matches_reference(chain, start)


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("shape", [(3, 3), (15, 15)])
def test_stop_at_block_boundary(shape, offset):
    rng = np.random.default_rng(11)
    chain = build_game(random_game(rng, shape))
    stop = absorption.BLOCK_STEPS + offset
    start = lattice_point_mass(chain.dims, (1,) * len(shape))
    masses = transient_masses(chain.matrix.toarray(), start, stop)
    assert np.all(np.diff(masses) < 0.0)
    # eps between the masses at stop - 1 and stop: the first step whose
    # transient mass falls below eps is exactly ``stop``.
    eps = float(np.sqrt(masses[stop - 1] * masses[stop]))
    pmf, _ = assert_matches_reference(chain, start, eps=eps)
    assert pmf.shape == (stop + 1,)


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_horizon_shorter_than_convergence(offset):
    rng = np.random.default_rng(12)
    chain = build_game(random_game(rng, (15, 15)))
    horizon = absorption.BLOCK_STEPS + offset
    start = lattice_point_mass(chain.dims, (1, 1))
    pmf, absorbed = assert_matches_reference(chain, start, horizon=horizon)
    assert pmf.shape == (horizon + 1,)
    dist = absorb_dist(chain, start, horizon=horizon)
    assert dist.tail > dist.eps
    assert abs(dist.tail - (absorbed - pmf.sum())) <= TOL


def test_non_convergence_raises_like_reference(monkeypatch):
    # at this cap the start's mass floor sum(x_0) * r^cap (r = 0.7845, the
    # least row sum of Q) is below eps, so the engine iterates to the cap
    cap = 2 * absorption.BLOCK_STEPS + 5
    monkeypatch.setattr(absorption, "MAX_HORIZON", cap)
    rng = np.random.default_rng(13)
    chain = build_game(random_game(rng, (6, 6)))
    start = lattice_point_mass(chain.dims, (1, 1))
    with pytest.raises(HorizonError) as want:
        reference_power_iteration(
            chain.matrix.toarray(), start[None], chain.win_index, None, 1e-12
        )
    exit = chain.exit("win")
    with pytest.raises(HorizonError) as got:
        _power_iteration(chain.transient, exit, resolvent(chain).solve(exit),
                         start[:-1], None, 1e-12)
    assert str(got.value) == str(want.value)
    assert f"after {cap} steps" in str(got.value)


@pytest.mark.parametrize("target", ["win", "ruin"])
def test_tail_matches_the_series_past_the_horizon(target):
    # The oracle continues the dense power iteration past the horizon and
    # sums the exit terms x_{t-1} . exit; it does not use the LU.
    spec = load_spec(CORPUS / "d3_r2.json")
    chain = build_game(spec.game)
    nu = lattice_point_mass(chain.dims, spec.start)
    horizon = 260
    dist = absorb_dist(chain, nu, target=target, horizon=horizon)
    kernel = chain.matrix.toarray()
    q = kernel[:-1, :-1]
    exit = (kernel[:-1, -1] if target == "win"
            else np.clip(1.0 - kernel.sum(axis=1), 0.0, None)[:-1])
    x = nu[:-1]
    for _ in range(horizon):
        x = x @ q
    terms = []
    while np.abs(x).sum() > 1e-300:
        terms.append(float(x @ exit))
        x = x @ q
    series = math.fsum(terms)
    assert series > 0.0
    assert abs(dist.tail - series) <= 1e-12 * series


@pytest.mark.parametrize("shape", [(4, 4, 4), (15, 15)])
def test_ruin_target_matches_reference(shape):
    rng = np.random.default_rng(14)
    chain = build_game(random_game(rng, shape))
    nu = lattice_point_mass(chain.dims, (2,) * len(shape))
    dist = absorb_dist(chain, nu, target="ruin")
    kernel = chain.matrix.toarray()
    with_ruin = np.zeros((chain.size + 1, chain.size + 1))
    with_ruin[0, 0] = 1.0
    with_ruin[1:, 0] = np.clip(1.0 - kernel.sum(axis=1), 0.0, None)
    with_ruin[1:, 1:] = kernel
    want_pmf, want_absorbed = reference_power_iteration(
        with_ruin, np.pad(nu, (1, 0))[None], 0, None, 1e-12
    )
    assert dist.pmf.shape == want_pmf[0].shape
    assert np.max(np.abs(dist.pmf - want_pmf[0])) <= TOL
    assert abs(dist.mass() - want_absorbed[0]) <= TOL


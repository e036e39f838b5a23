import numpy as np
import pytest

from krongambler import (
    BirthDeathSpec,
    GameSpec,
    HorizonError,
    SpecError,
    absorb_dist,
    bd_eigenvalues,
    bd_win_prob,
    build_game,
    pgf_interior,
    pgf_keilson,
    pgf_multidim,
    pgf_two_sided,
    preset_r_of_d,
)
from krongambler.absorption import pgf_from_dual
from krongambler.game import lattice_point_mass
from krongambler.birth_death import bd_restricted
from krongambler.intertwine import build_dual, dual_initial, pure_birth_1d
from krongambler.pgf import GeometricProductPgf, SeriesPgf
from krongambler.verify import geometric_convolution_pmf

from conftest import power_iteration_pmf, rand_bd, rand_game


def golden_spec(p=0.3, q=0.1):
    return BirthDeathSpec(N=3, p=(p, p), q=(q, q))


def eq61_closed_form(p, q, u):
    """Displayed closed-form pgf for the 3-state symmetric-rate game from 2."""
    root = np.sqrt(p * q)
    return (
        p * (q + p + root) * (-q - p + root) * u * (1 - u * (1 - q - p))
    ) / (
        (p * p + q * p + q * q)
        * (1 - u * (1 - q - p - root))
        * (-1 + u * (1 - q - p + root))
    )


def test_keilson_two_state_geometric():
    alpha = 0.35
    spec = BirthDeathSpec(N=2, p=(alpha,), q=(0.0,))
    pgf = pgf_keilson(spec)
    for s in (0.2, 0.5, 0.9, 1.0):
        assert abs(pgf.evaluate(s) - alpha * s / (1 - (1 - alpha) * s)) < 1e-14
    assert abs(pgf.mass() - 1.0) < 1e-14
    assert abs(pgf.mean() - 1.0 / alpha) < 1e-14


def test_keilson_requires_unreachable_ruin():
    with pytest.raises(SpecError):
        pgf_keilson(golden_spec())


def test_keilson_matches_power_iteration():
    rng = np.random.default_rng(40)
    for _ in range(20):
        spec = rand_bd(rng, int(rng.integers(2, 7)), q1_zero=True, budget=0.5)
        pgf = pgf_keilson(spec)
        pmf = power_iteration_pmf(bd_restricted(spec), 0, spec.N - 1, 400)
        for s in (0.3, 0.7, 0.95):
            series = float(np.polynomial.polynomial.polyval(s, pmf))
            assert abs(pgf.evaluate(s) - series) < 1e-9


def test_keilson_mean_is_sum_of_geometric_means():
    rng = np.random.default_rng(41)
    spec = rand_bd(rng, 5, q1_zero=True, budget=0.5)
    lam = bd_eigenvalues(spec)[:-1]
    assert abs(pgf_keilson(spec).mean() - np.sum(1.0 / (1.0 - lam))) < 1e-12


def test_interior_start_one_reduces_to_keilson():
    spec = BirthDeathSpec(N=4, p=(0.2, 0.3, 0.2), q=(0.0, 0.1, 0.1))
    a = pgf_interior(spec, 1)
    b = pgf_keilson(spec)
    assert a.den == ()
    for s in (0.3, 0.8):
        assert abs(a.evaluate(s) - b.evaluate(s)) < 1e-14


def test_interior_matches_power_iteration():
    rng = np.random.default_rng(42)
    for _ in range(15):
        n = int(rng.integers(3, 7))
        spec = rand_bd(rng, n, q1_zero=True, budget=0.5)
        start = int(rng.integers(2, n))
        pgf = pgf_interior(spec, start)
        pmf = power_iteration_pmf(bd_restricted(spec), start - 1, n - 1, 600)
        for s in (0.3, 0.7, 0.95):
            series = float(np.polynomial.polynomial.polyval(s, pmf))
            assert abs(pgf.evaluate(s) - series) < 1e-9


def test_interior_additivity_splits_the_full_time():
    spec = BirthDeathSpec(N=5, p=(0.25, 0.2, 0.25, 0.2), q=(0.0, 0.1, 0.15, 0.1))
    full = pgf_keilson(spec)
    for split in (2, 3, 4):
        head = pgf_keilson(
            BirthDeathSpec(N=split, p=spec.p[: split - 1], q=spec.q[: split - 1])
        )
        tail = pgf_interior(spec, split)
        for s in (0.25, 0.6, 0.9):
            assert abs(head.evaluate(s) * tail.evaluate(s) - full.evaluate(s)) < 1e-12


def test_interior_rejects_bad_start():
    spec = BirthDeathSpec(N=3, p=(0.2, 0.2), q=(0.0, 0.1))
    with pytest.raises(SpecError):
        pgf_interior(spec, 3)


def test_two_sided_golden_closed_form():
    for p, q in [(0.3, 0.1), (0.25, 0.15)]:
        win, lose = pgf_two_sided(golden_spec(p, q), 2)
        assert win.den == (1.0 - (p + q),)
        for s in np.arange(0.1, 0.95, 0.1):
            assert abs(win.evaluate(s) - eq61_closed_form(p, q, s)) < 1e-13
        assert abs(win.mass() + lose.mass() - 1.0) < 1e-14
        rho = bd_win_prob(golden_spec(p, q))[1]
        assert abs(win.mass() - rho) < 1e-14


def test_two_sided_matches_conditioned_power_iteration():
    rng = np.random.default_rng(43)
    for _ in range(12):
        spec = rand_bd(rng, 4, budget=0.6)
        start = int(rng.integers(1, 4))
        win, lose = pgf_two_sided(spec, start)
        from krongambler.birth_death import bd_matrix

        full = bd_matrix(spec)
        pmf_win = power_iteration_pmf(full, start, spec.N, 800)
        pmf_lose = power_iteration_pmf(full, start, 0, 800)
        for s in (0.2, 0.4, 0.6, 0.8, 0.95):
            assert abs(
                win.evaluate(s)
                - float(np.polynomial.polynomial.polyval(s, pmf_win))
            ) < 1e-9
            assert abs(
                lose.evaluate(s)
                - float(np.polynomial.polynomial.polyval(s, pmf_lose))
            ) < 1e-9


def test_two_sided_requires_reachable_ruin():
    spec = BirthDeathSpec(N=3, p=(0.2, 0.2), q=(0.0, 0.1))
    with pytest.raises(SpecError):
        pgf_two_sided(spec, 2)


def test_absorb_dist_deterministic_step():
    dual = pure_birth_1d(np.array([0.0, 1.0]))
    dist = absorb_dist(dual, np.array([1.0, 0.0]), target=1)
    assert np.allclose(dist.pmf, [0.0, 1.0], atol=1e-15)
    assert dist.tail == 0.0


def test_absorb_dist_geometric_law():
    alpha = 0.3
    spec = BirthDeathSpec(N=2, p=(alpha,), q=(0.0,))
    dist = absorb_dist(bd_restricted(spec), np.array([1.0, 0.0]), target=1)
    t = np.arange(1, len(dist.pmf))
    assert np.max(np.abs(dist.pmf[1:] - alpha * (1 - alpha) ** (t - 1))) < 1e-12


def test_absorb_dist_matches_series_of_closed_form():
    p, q = 0.3, 0.1
    spec = golden_spec(p, q)
    chain = build_game(
        GameSpec(dims=(spec,), subsets=(frozenset({1}),), coeffs=(1.0,))
    )
    nu = np.array([0.0, 1.0, 0.0])
    dist = absorb_dist(chain, nu, target=chain.win_index)
    # series coefficients of the closed form, via geometric expansions
    lam = bd_eigenvalues(spec)[:-1]
    horizon = 31
    g1 = lam[0] ** np.arange(horizon)
    g2 = lam[1] ** np.arange(horizon)
    denom_series = np.convolve(g1, g2)[:horizon]
    numer = np.zeros(horizon)
    numer[1] = p
    numer[2] = -p * (1 - p - q)
    series = np.convolve(numer, denom_series)[:horizon]
    assert np.max(np.abs(series - dist.pmf[:horizon])) < 1e-10


def test_absorb_dist_horizon_and_tail():
    spec = BirthDeathSpec(N=2, p=(0.3,), q=(0.0,))
    dist = absorb_dist(bd_restricted(spec), np.array([1.0, 0.0]), target=1,
                       horizon=5)
    assert len(dist.pmf) <= 6
    assert dist.tail > 0
    assert abs(dist.pmf.sum() + dist.tail - 1.0) < 1e-12
    with pytest.raises(HorizonError):
        dist.mean()


def test_absorb_dist_rejects_non_absorbing_target():
    spec = golden_spec()
    with pytest.raises(ValueError):
        absorb_dist(bd_restricted(spec), np.array([1.0, 0.0, 0.0]), target=1)


def test_ruin_target_matches_two_sided_lose_branch():
    rng = np.random.default_rng(48)
    for _ in range(10):
        spec = rand_bd(rng, int(rng.integers(2, 6)), budget=0.6)
        start = int(rng.integers(1, spec.N))
        chain = build_game(
            GameSpec(dims=(spec,), subsets=(frozenset({1}),), coeffs=(1.0,))
        )
        nu = lattice_point_mass(chain.dims, (start,))
        dist = absorb_dist(chain, nu, target="ruin")
        rho = float(bd_win_prob(spec)[start - 1])
        _, lose = pgf_two_sided(spec, start)
        assert abs(dist.mass() - (1.0 - rho)) < 1e-12
        assert abs(dist.mean() - lose.mean()) < 1e-9 * max(1.0, lose.mean())


def test_win_and_ruin_masses_sum_to_one():
    rng = np.random.default_rng(49)
    for _ in range(8):
        game = rand_game(rng, d=2, dual_safe=False)
        chain = build_game(game)
        nu = np.zeros(game.size)
        nu[int(rng.integers(0, game.size - 1))] = 1.0
        win = absorb_dist(chain, nu)
        ruin = absorb_dist(chain, nu, target="ruin")
        assert abs(win.mass() + ruin.mass() - 1.0) < 1e-12


def test_expected_time_two_routes_agree():
    rng = np.random.default_rng(44)
    for _ in range(10):
        spec = rand_bd(rng, int(rng.integers(2, 6)), q1_zero=True, budget=0.5)
        pgf = pgf_keilson(spec)
        dist = absorb_dist(bd_restricted(spec), np.eye(spec.N)[0],
                           target=spec.N - 1)
        assert abs(pgf.mean() - dist.mean()) < 1e-8


def test_keilson_factorization_against_convolution():
    rng = np.random.default_rng(45)
    for _ in range(10):
        n = int(rng.integers(2, 11))
        spec = rand_bd(rng, n, q1_zero=True, budget=0.5)
        dist = absorb_dist(bd_restricted(spec), np.eye(n)[0], target=n - 1)
        lam = bd_eigenvalues(spec)[:-1]
        conv = geometric_convolution_pmf(1.0 - lam, len(dist.pmf) - 1)
        assert np.max(np.abs(conv - dist.pmf)) < 1e-10


def test_multidim_pgf_mass_is_product_of_win_probs():
    spec = BirthDeathSpec(N=3, p=(0.1, 0.1), q=(0.1, 0.1))
    game = preset_r_of_d([spec, spec], 1)
    nu = np.zeros(9)
    nu[0] = 1.0
    mix = pgf_multidim(game, nu)
    assert abs(mix.evaluate(1.0) - 1.0 / 9.0) < 1e-10


def test_multidim_reduces_to_two_sided_win_branch():
    spec = golden_spec()
    game = GameSpec(dims=(spec,), subsets=(frozenset({1}),), coeffs=(1.0,))
    mix = pgf_multidim(game, np.array([0.0, 1.0, 0.0]))
    win, _ = pgf_two_sided(spec, 2)
    for s in (0.1, 0.4, 0.7, 0.9, 1.0):
        assert abs(mix.evaluate(s) - win.evaluate(s)) < 1e-10


def test_multidim_no_ruin_start_bottom_equals_dual_time():
    rng = np.random.default_rng(46)
    for _ in range(8):
        game = rand_game(rng, q1_zero=True)
        chain = build_game(game)
        link, dual = build_dual(game)
        nu = np.zeros(game.size)
        nu[0] = 1.0
        direct = absorb_dist(chain, nu,
                             target=chain.win_index)
        dual_dist = absorb_dist(dual, nu)
        horizon = min(len(direct.pmf), len(dual_dist.pmf))
        assert np.max(
            np.abs(direct.pmf[:horizon] - dual_dist.pmf[:horizon])
        ) < 1e-9


def test_multidim_signed_mixture_matches_win_conditioned_law():
    rng = np.random.default_rng(47)
    for _ in range(8):
        game = rand_game(rng)
        chain = build_game(game)
        link, dual = build_dual(game)
        start = np.zeros(game.size)
        start[int(rng.integers(0, game.size - 1))] = 1.0
        weights = dual_initial(link, start).values
        mix = pgf_from_dual(link, dual, weights)
        direct = absorb_dist(chain, start,
                             target=chain.win_index)
        horizon = len(direct.pmf)
        mixture_pmf = np.zeros(horizon)
        for w, part in zip(mix.weights, mix.parts):
            contrib = np.asarray(part.pmf)[:horizon]
            mixture_pmf[: len(contrib)] += mix.scale * w * contrib
        assert np.max(np.abs(mixture_pmf - direct.pmf)) < 1e-9
        assert mixture_pmf.min() > -1e-12


def test_series_pgf_rejects_s_above_one():
    pgf = SeriesPgf(pmf=np.array([0.0, 1.0]), tail=0.0)
    for s in (1.5, -1.5):
        with pytest.raises(ValueError):
            pgf.evaluate(s)


@pytest.mark.parametrize("s", [-1.0, -0.5, 0.0, 0.25, 0.9, 1.0])
def test_series_pgf_matches_horner(s):
    alpha = 0.01
    geometric = alpha * (1 - alpha) ** np.arange(3000)
    geometric[0] = 0.0
    rng = np.random.default_rng(50)
    for pmf in (geometric, rng.random(1300) / 650, np.array([0.25])):
        want = float(np.polynomial.polynomial.polyval(s, pmf))
        got = SeriesPgf(pmf=pmf, tail=0.0).evaluate(s)
        # both forms round within 2 * len * eps of the sum of |terms|
        bound = 4 * len(pmf) * np.finfo(float).eps * np.abs(pmf).sum()
        assert abs(got - want) <= bound


def test_geometric_product_pole_detection():
    pgf = GeometricProductPgf(scale=1.0, num=(0.5,))
    with pytest.raises(ValueError):
        pgf.evaluate(2.0)

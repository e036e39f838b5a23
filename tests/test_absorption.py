import time
from decimal import Decimal, localcontext

import numpy as np
import pytest

from krongambler import (
    AbsorbingChain,
    BirthDeathSpec,
    GameSpec,
    HorizonError,
    SpecError,
    absorb_dist,
    bd_eigenvalues,
    bd_win_prob,
    build_game,
    pgf_two_sided,
    preset_r_of_d,
)
from krongambler.game import lattice_point_mass
from krongambler.birth_death import bd_restricted
from krongambler.intertwine import build_dual, dual_initial
from krongambler.pgf import GeometricProductPgf, ResolventPgf
from krongambler.specfile import parse_spec
from krongambler.verify import geometric_convolution_pmf

from conftest import (
    loop_pure_birth,
    power_iteration_pmf,
    rand_bd,
    rand_game,
    signed_weights_doc,
)


def golden_spec(p=0.3, q=0.1):
    return BirthDeathSpec(N=3, p=(p, p), q=(q, q))


def golden_game():
    return GameSpec(dims=(golden_spec(),), subsets=(frozenset({1}),),
                    coeffs=(1.0,))


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
    pgf = pgf_two_sided(spec, 1)[0]
    for s in (0.2, 0.5, 0.9, 1.0):
        assert abs(pgf.evaluate(s) - alpha * s / (1 - (1 - alpha) * s)) < 1e-14
    assert abs(pgf.mass() - 1.0) < 1e-14
    assert abs(pgf.mean() - 1.0 / alpha) < 1e-14


def test_keilson_matches_power_iteration():
    rng = np.random.default_rng(40)
    for _ in range(20):
        spec = rand_bd(rng, int(rng.integers(2, 7)), q1_zero=True, budget=0.5)
        pgf = pgf_two_sided(spec, 1)[0]
        pmf = power_iteration_pmf(bd_restricted(spec), 0, spec.N - 1, 400)
        for s in (0.3, 0.7, 0.95):
            series = float(np.polynomial.polynomial.polyval(s, pmf))
            assert abs(pgf.evaluate(s) - series) < 1e-9


def test_keilson_mean_is_sum_of_geometric_means():
    rng = np.random.default_rng(41)
    spec = rand_bd(rng, 5, q1_zero=True, budget=0.5)
    lam = bd_eigenvalues(spec)[:-1]
    assert abs(pgf_two_sided(spec, 1)[0].mean()
               - np.sum(1.0 / (1.0 - lam))) < 1e-12


def test_interior_matches_power_iteration():
    rng = np.random.default_rng(42)
    for _ in range(15):
        n = int(rng.integers(3, 7))
        spec = rand_bd(rng, n, q1_zero=True, budget=0.5)
        start = int(rng.integers(2, n))
        pgf = pgf_two_sided(spec, start)[0]
        pmf = power_iteration_pmf(bd_restricted(spec), start - 1, n - 1, 600)
        for s in (0.3, 0.7, 0.95):
            series = float(np.polynomial.polynomial.polyval(s, pmf))
            assert abs(pgf.evaluate(s) - series) < 1e-9


def test_interior_additivity_splits_the_full_time():
    spec = BirthDeathSpec(N=5, p=(0.25, 0.2, 0.25, 0.2), q=(0.0, 0.1, 0.15, 0.1))
    full = pgf_two_sided(spec, 1)[0]
    for split in (2, 3, 4):
        head = pgf_two_sided(
            BirthDeathSpec(N=split, p=spec.p[: split - 1], q=spec.q[: split - 1]),
            1,
        )[0]
        tail = pgf_two_sided(spec, split)[0]
        for s in (0.25, 0.6, 0.9):
            assert abs(head.evaluate(s) * tail.evaluate(s) - full.evaluate(s)) < 1e-12


def test_interior_rejects_bad_start():
    spec = BirthDeathSpec(N=3, p=(0.2, 0.2), q=(0.0, 0.1))
    for start in (0, spec.N + 1, 1.5, 2.0):
        with pytest.raises(SpecError, match=r"1\.\.3"):
            pgf_two_sided(spec, start)


def test_two_sided_covers_ruin_free_chains_and_the_win_state():
    # q(1) = 0 makes rho = 1: Keilson's product of geometric factors from
    # state 1, and no lose law from any start
    rng = np.random.default_rng(52)
    for _ in range(10):
        n = int(rng.integers(2, 8))
        spec = rand_bd(rng, n, q1_zero=True, budget=0.5)
        win, _ = pgf_two_sided(spec, 1)
        # the rates are the eigenvalues of I - Q: 1 - lam, up to rounding
        assert win.scale == 1.0 and win.den == ()
        rates = np.sort(1.0 - bd_eigenvalues(spec)[:-1])
        assert np.max(np.abs(np.sort(win.num) - rates)) <= 1e-15
        pmf = power_iteration_pmf(bd_restricted(spec), 0, n - 1, 400)
        for s in (0.3, 0.7, 0.95):
            series = float(np.polynomial.polynomial.polyval(s, pmf))
            assert abs(win.evaluate(s) - series) < 1e-9
        for start in range(1, n + 1):
            _, lose = pgf_two_sided(spec, start)
            assert lose.mass() == 0.0 and lose.mean() == 0.0
        # at the win state the factor lists cancel, ruin or not
        for chain in (spec, rand_bd(rng, n, budget=0.5)):
            win, lose = pgf_two_sided(chain, n)
            for s in (-1.0, 0.0, 0.5, 1.0):
                assert win.evaluate(s) == 1.0 and lose.evaluate(s) == 0.0
            assert win.mean() == 0.0 and lose.mean() == 0.0
    win, lose = pgf_two_sided(BirthDeathSpec(N=1, p=(), q=()), 1)
    assert win == GeometricProductPgf(scale=1.0)
    assert win.evaluate(0.5) == 1.0 and win.mean() == 0.0
    assert lose.evaluate(0.5) == 0.0 and lose.mass() == 0.0


def test_two_sided_golden_closed_form():
    for p, q in [(0.3, 0.1), (0.25, 0.15)]:
        win, lose = pgf_two_sided(golden_spec(p, q), 2)
        assert win.den == (p + q,)
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


def test_absorb_dist_deterministic_step():
    dual = AbsorbingChain(loop_pure_birth([0.0, 1.0]), (2,))
    dist = absorb_dist(dual, np.array([1.0, 0.0]))
    assert np.allclose(dist.pmf, [0.0, 1.0], atol=1e-15)
    assert dist.tail == 0.0


def test_absorb_dist_geometric_law():
    alpha = 0.3
    spec = BirthDeathSpec(N=2, p=(alpha,), q=(0.0,))
    dist = absorb_dist(AbsorbingChain(bd_restricted(spec), (spec.N,)),
                       np.array([1.0, 0.0]))
    t = np.arange(1, len(dist.pmf))
    assert np.max(np.abs(dist.pmf[1:] - alpha * (1 - alpha) ** (t - 1))) < 1e-12


def test_absorb_dist_matches_series_of_closed_form():
    p, q = 0.3, 0.1
    spec = golden_spec(p, q)
    chain = build_game(
        GameSpec(dims=(spec,), subsets=(frozenset({1}),), coeffs=(1.0,))
    )
    nu = np.array([0.0, 1.0, 0.0])
    dist = absorb_dist(chain, nu)
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
    dist = absorb_dist(AbsorbingChain(bd_restricted(spec), (spec.N,)),
                       np.array([1.0, 0.0]), horizon=5)
    assert len(dist.pmf) <= 6
    assert dist.tail > 0
    assert abs(dist.pmf.sum() + dist.tail - 1.0) < 1e-12
    with pytest.raises(HorizonError):
        dist.mean()


@pytest.mark.parametrize("target, want", [("win", 1.0), ("ruin", 0.0)])
def test_absorb_dist_from_the_win_corner(target, want):
    chain = build_game(golden_game())
    dist = absorb_dist(chain, lattice_point_mass(chain.dims, (3,)),
                       target=target)
    assert dist.pmf.tolist() == [want]
    assert dist.tail == 0.0


@pytest.mark.parametrize("target", ["lose", 2, None])
def test_absorb_dist_rejects_unknown_target(target):
    chain = build_game(golden_game())
    with pytest.raises(ValueError, match="target"):
        absorb_dist(chain, lattice_point_mass(chain.dims, (2,)), target=target)


def test_slow_game_keeps_its_transient_states():
    # Every rate is 1e-13, so each transient state holds with probability
    # 1 - 2e-13; such a state is still transient, and its mass still counts.
    spec = BirthDeathSpec(N=3, p=(1e-13, 1e-13), q=(0.0, 1e-13))
    chain = build_game(
        GameSpec(dims=(spec,), subsets=(frozenset({1}),), coeffs=(1.0,))
    )
    nu = lattice_point_mass(chain.dims, (1,))
    # without a horizon it fails before iterating: the mass floor
    # sum(x_0) * r^MAX_HORIZON is still about 1 > eps
    t0 = time.perf_counter()
    with pytest.raises(HorizonError, match="least row sum of Q"):
        absorb_dist(chain, nu)
    assert time.perf_counter() - t0 < 0.1
    dist = absorb_dist(chain, nu, horizon=10)
    assert dist.pmf.shape == (11,)
    # rho = 1; the remaining 1.2e-3 is the 1 - P[i, i] cancellation of the
    # resolvent's diagonal on so slow a game
    assert dist.mass() >= 0.99


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
        pgf = pgf_two_sided(spec, 1)[0]
        dist = absorb_dist(AbsorbingChain(bd_restricted(spec), (spec.N,)),
                           np.eye(spec.N)[0])
        assert abs(pgf.mean() - dist.mean()) < 1e-8


def test_keilson_factorization_against_convolution():
    rng = np.random.default_rng(45)
    for _ in range(10):
        n = int(rng.integers(2, 11))
        spec = rand_bd(rng, n, q1_zero=True, budget=0.5)
        dist = absorb_dist(AbsorbingChain(bd_restricted(spec), (n,)),
                           np.eye(n)[0])
        lam = bd_eigenvalues(spec)[:-1]
        conv = geometric_convolution_pmf(1.0 - lam, len(dist.pmf) - 1)
        assert np.max(np.abs(conv - dist.pmf)) < 1e-10


def test_multidim_pgf_mass_is_product_of_win_probs():
    spec = BirthDeathSpec(N=3, p=(0.1, 0.1), q=(0.1, 0.1))
    game = preset_r_of_d([spec, spec], 1)
    nu = np.zeros(9)
    nu[0] = 1.0
    mix = ResolventPgf(build_game(game), nu)
    assert abs(mix.evaluate(1.0) - 1.0 / 9.0) < 1e-10


def test_multidim_reduces_to_two_sided_win_branch():
    spec = golden_spec()
    game = GameSpec(dims=(spec,), subsets=(frozenset({1}),), coeffs=(1.0,))
    mix = ResolventPgf(build_game(game), np.array([0.0, 1.0, 0.0]))
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
        direct = absorb_dist(chain, nu)
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
        weights = dual_initial(link, start)
        dual_pmf = link.iso_value * absorb_dist(dual, weights).pmf
        direct = absorb_dist(chain, start)
        horizon = len(direct.pmf)
        mixture_pmf = np.pad(dual_pmf, (0, horizon))[:horizon]
        assert np.max(np.abs(mixture_pmf - direct.pmf)) < 1e-9
        assert mixture_pmf.min() > -1e-12


def test_signed_weights_mixture_keeps_mass_and_mean():
    # one iteration of the mixed start keeps the truncation error of the
    # dual's law at eps instead of sum|nu_hat| * eps
    game = parse_spec(signed_weights_doc()).game
    chain = build_game(game)
    link, dual = build_dual(game)
    nu = lattice_point_mass(game.shape, (8, 8))
    mixed = absorb_dist(dual, dual_initial(link, nu))
    rho = bd_win_prob(game.dims[0])[7] * bd_win_prob(game.dims[1])[7]
    assert abs(link.iso_value * mixed.pmf.sum() - rho) <= 1e-9
    direct = absorb_dist(chain, nu)
    mean = link.iso_value * mixed.mean()
    assert abs(mean - direct.mean()) <= 1e-8 * direct.mean()


@pytest.mark.parametrize("start", [(8, 8), (15, 15)])
def test_pgf_multidim_answers_ill_conditioned_starts(start):
    # the dual's start weights are ill-conditioned here (iso * sum|nu_hat|
    # is 3.3e7 and 9.2e11); the game's own kernel is not
    game = parse_spec(signed_weights_doc()).game
    nu = lattice_point_mass(game.shape, start)
    pgf = ResolventPgf(build_game(game), nu)
    rho = np.prod([bd_win_prob(s)[c - 1] for s, c in zip(game.dims, start)])
    assert abs(pgf.mass() - rho) <= 1e-12
    direct = absorb_dist(build_game(game), nu)
    assert abs(pgf.mean() - direct.mean()) <= 1e-9 * direct.mean()


def test_resolvent_pgf_rejects_s_above_one():
    pgf = ResolventPgf(build_game(golden_game()), np.array([0.0, 1.0, 0.0]))
    for s in (1.5, -1.5):
        with pytest.raises(ValueError, match=r"\|s\| <= 1"):
            pgf.evaluate(s)


@pytest.mark.parametrize("s", [np.nan, np.inf, -np.inf])
def test_resolvent_pgf_rejects_non_finite_s(s):
    pgf = ResolventPgf(build_game(golden_game()), np.array([0.0, 1.0, 0.0]))
    with pytest.raises(ValueError, match=r"\|s\| <= 1"):
        pgf.evaluate(s)


ONE_DIM_POINTS = (-1.0, -0.3, 0.2, 0.6, 0.95, 1.0)


@pytest.mark.parametrize("q1_zero", [False, True],
                         ids=["two-sided", "interior"])
def test_pgf_multidim_matches_one_dim_closed_forms(q1_zero):
    rng = np.random.default_rng(51)
    for _ in range(10):
        spec = rand_bd(rng, int(rng.integers(2, 9)), q1_zero=q1_zero,
                       budget=0.6)
        start = int(rng.integers(1, spec.N))
        game = GameSpec(dims=(spec,), subsets=(frozenset({1}),), coeffs=(1.0,))
        pgf = ResolventPgf(build_game(game),
                           lattice_point_mass(game.shape, (start,)))
        closed = pgf_two_sided(spec, start)[0]
        for s in ONE_DIM_POINTS:
            assert abs(pgf.evaluate(s) - closed.evaluate(s)) <= 1e-13
        assert abs(pgf.mean() - closed.mean()) <= 1e-12 * closed.mean()


def test_geometric_product_at_zero_is_the_pmf_at_zero():
    spec = BirthDeathSpec(N=4, p=(0.3,) * 3, q=(0.1,) * 3)
    chain = build_game(
        GameSpec(dims=(spec,), subsets=(frozenset({1}),), coeffs=(1.0,))
    )
    nu = lattice_point_mass(chain.dims, (2,))
    win, lose = pgf_two_sided(spec, 2)
    assert win.evaluate(0.0) == absorb_dist(chain, nu).pmf[0]
    assert lose.evaluate(0.0) == absorb_dist(chain, nu, target="ruin").pmf[0]
    interior = BirthDeathSpec(N=4, p=(0.3,) * 3, q=(0.0, 0.1, 0.1))
    pmf = absorb_dist(AbsorbingChain(bd_restricted(interior), (4,)),
                      np.eye(4)[1]).pmf
    assert pgf_two_sided(interior, 2)[0].evaluate(0.0) == pmf[0]


@pytest.mark.parametrize("n", [700, 1000, 1500])
def test_geometric_product_stays_finite_on_long_chains(n):
    # p = 0.3, q(1) = 0, q = 0.3 elsewhere, 200 states below the win: the
    # products of the factors underflow (0.0 at N = 700, 0/0 from N = 1,000),
    # their logs do not; the reference is a 50-digit product over the same
    # rates
    spec = BirthDeathSpec(N=n, p=(0.3,) * (n - 1), q=(0.0,) + (0.3,) * (n - 2))
    win = pgf_two_sided(spec, n - 200)[0]
    for s in (-0.5, 0.5, 0.9):
        with localcontext() as ctx:
            ctx.prec = 50
            exact = Decimal(win.scale)
            for mu in map(Decimal, win.num):
                exact *= mu * Decimal(s) / (1 - Decimal(s) + mu * Decimal(s))
            for mu in map(Decimal, win.den):
                exact /= mu * Decimal(s) / (1 - Decimal(s) + mu * Decimal(s))
            got = win.evaluate(s)
            assert got != 0.0
            assert abs((Decimal(got) - exact) / exact) <= Decimal("1e-12")


@pytest.mark.parametrize("s", [np.nan, np.inf, -np.inf])
def test_geometric_product_rejects_non_finite_s(s):
    win, _ = pgf_two_sided(BirthDeathSpec(N=4, p=(0.3,) * 3, q=(0.1,) * 3), 2)
    with pytest.raises(ValueError, match="non-finite"):
        win.evaluate(s)


@pytest.mark.parametrize("kwargs", [{"eps": np.nan}, {"eps": 0.0},
                                    {"eps": 2.0}, {"horizon": -5}],
                         ids=["eps-nan", "eps-0", "eps-2", "horizon-neg"])
def test_absorb_dist_rejects_bad_eps_and_horizon_before_iterating(kwargs):
    spec = BirthDeathSpec(N=2, p=(0.3,), q=(0.0,))
    t0 = time.perf_counter()
    with pytest.raises(SpecError, match=next(iter(kwargs))):
        absorb_dist(AbsorbingChain(bd_restricted(spec), (spec.N,)),
                    np.array([1.0, 0.0]), **kwargs)
    assert time.perf_counter() - t0 < 0.1


def test_geometric_product_pole_detection():
    pgf = GeometricProductPgf(scale=1.0, num=(0.5,))
    with pytest.raises(ValueError):
        pgf.evaluate(2.0)

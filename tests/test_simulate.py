import json

import numpy as np
import pytest
from scipy.stats import chisquare

from krongambler import (
    BirthDeathSpec,
    CouplingError,
    GameSpec,
    SimConfig,
    absorb_dist,
    build_game,
    preset_r_of_d,
    simulate,
    simulate_coupled,
    win_prob_product,
)
from krongambler.birth_death import bd_win_prob
from krongambler.intertwine import build_dual

from conftest import rand_game


def one_dim_game(spec):
    return GameSpec(dims=(spec,), subsets=(frozenset({1}),), coeffs=(1.0,))


def test_sure_path_is_deterministic():
    spec = BirthDeathSpec(N=2, p=(1.0,), q=(0.0,))
    chain = build_game(one_dim_game(spec))
    report = simulate(chain, (1,), SimConfig(runs=500, seed=1))
    assert report.win_freq == 1.0
    assert report.counts_win[1] == 500  # exactly one step, every run


def test_fair_walk_frequency():
    spec = BirthDeathSpec(N=3, p=(0.3, 0.3), q=(0.3, 0.3))
    chain = build_game(one_dim_game(spec))
    report = simulate(chain, (2,), SimConfig(runs=40_000, seed=2))
    assert abs(report.win_freq - 2.0 / 3.0) < 4 * report.win_se


def test_two_dim_frequency_matches_product():
    spec = BirthDeathSpec(N=3, p=(0.3, 0.3), q=(0.1, 0.1))
    game = preset_r_of_d([spec, spec], 1)
    chain = build_game(game)
    cfg = SimConfig(runs=100_000, seed=3, workers=4)
    report = simulate(chain, (2, 2), cfg)
    exact = win_prob_product(game)[chain.to_linear((2, 2))]
    assert abs(report.win_freq - exact) < 4 * report.win_se


def test_reports_identical_for_identical_config():
    spec = BirthDeathSpec(N=3, p=(0.3, 0.3), q=(0.1, 0.1))
    chain = build_game(one_dim_game(spec))
    cfg = SimConfig(runs=5_000, seed=9, workers=3)
    a = simulate(chain, (2,), cfg)
    b = simulate(chain, (2,), cfg)
    assert json.dumps(a.as_dict()) == json.dumps(b.as_dict())
    c = simulate(chain, (2,), SimConfig(runs=5_000, seed=10, workers=3))
    assert json.dumps(a.as_dict()) != json.dumps(c.as_dict())


def test_horizon_warning_on_tiny_step_cap():
    spec = BirthDeathSpec(N=6, p=(0.1,) * 5, q=(0.1, 0.05, 0.05, 0.05, 0.05))
    chain = build_game(one_dim_game(spec))
    report = simulate(chain, (2,), SimConfig(runs=2_000, seed=4, max_steps=3))
    assert report.horizon_warning
    assert report.n_timeout > 0


def test_start_at_the_win_corner_is_a_win_at_time_zero():
    # a start at the win corner is a sure win at t = 0, as absorb_dist says
    spec = BirthDeathSpec(N=3, p=(0.3, 0.3), q=(0.1, 0.1))
    chain = build_game(one_dim_game(spec))
    report = simulate(chain, (3,), SimConfig(runs=10, seed=0))
    assert report.counts_win.tolist() == [10]
    assert (report.n_win, report.n_lose, report.n_timeout) == (10, 0, 0)


def test_scalar_start_is_lattice_index():
    spec = BirthDeathSpec(N=3, p=(0.3, 0.3), q=(0.1, 0.1))
    chain = build_game(one_dim_game(spec))
    cfg = SimConfig(runs=500, seed=11)
    by_index = simulate(chain, chain.to_linear((2,)), cfg)
    assert by_index.as_dict() == simulate(chain, (2,), cfg).as_dict()
    for bad in (-1, chain.size):
        with pytest.raises(ValueError):
            simulate(chain, bad, cfg)


def test_coupled_no_violations_and_matching_paths():
    spec = BirthDeathSpec(N=4, p=(0.3, 0.25, 0.3), q=(0.0, 0.1, 0.1))
    game = one_dim_game(spec)
    nu = np.zeros(4)
    nu[0] = 1.0
    report, paths = simulate_coupled(
        game, nu, SimConfig(runs=400, seed=5), record_paths=True
    )
    assert report.coupling_violations == 0
    # ruin is unreachable here, so every path ends in a win and the dual
    # absorption step equals the game absorption step path by path
    assert report.n_win == 400
    for path in paths:
        game_states = [e for e, _ in path]
        dual_states = [h for _, h in path]
        t_game = next(i for i, e in enumerate(game_states) if e == 3)
        t_dual = next(i for i, h in enumerate(dual_states) if h == 3)
        assert t_game == t_dual


def test_coupled_dual_paths_never_decrease():
    rng = np.random.default_rng(50)
    game = rand_game(rng, d=2, q1_zero=False)
    nu = np.zeros(game.size)
    nu[0] = 1.0
    report, paths = simulate_coupled(
        game, nu, SimConfig(runs=300, seed=6), record_paths=True
    )
    assert report.coupling_violations == 0
    shape = game.shape
    for path in paths:
        prev = None
        for _, hat in path:
            coords = np.unravel_index(hat, shape)
            if prev is not None:
                assert all(a >= b for a, b in zip(coords, prev))
            prev = coords


def test_zero_weight_rows_raise_coupling_error():
    from krongambler.simulate import _conditional_draw

    with pytest.raises(CouplingError):
        _conditional_draw(np.zeros((2, 3)), np.array([0.5, 0.5]))


def test_coupled_requires_distribution_weights():
    spec = BirthDeathSpec(N=3, p=(0.1, 0.1), q=(0.05, 0.05))
    game = one_dim_game(spec)
    nu = np.array([0.0, 1.0, 0.0])  # interior start: signed dual weights
    with pytest.raises(CouplingError):
        simulate_coupled(game, nu, SimConfig(runs=10, seed=0))


def test_coupled_conditional_kernel_two_state_by_hand():
    alpha, beta = 0.3, 0.2
    spec = BirthDeathSpec(N=2, p=(alpha,), q=(beta,))
    game = one_dim_game(spec)
    chain = build_game(game)
    link, dual = build_dual(game)
    lam1 = 1.0 - alpha - beta
    p_hat = dual.dense()
    # dual kernel and link have closed forms for two states
    assert np.allclose(p_hat, [[lam1, alpha + beta], [0.0, 1.0]], atol=1e-14)
    rho1 = alpha / (alpha + beta)
    states = np.arange(2)
    lam = link.entries(states[:, None], states)
    assert np.allclose(lam, [[1.0, 0.0], [0.0, rho1]], atol=1e-14)
    # observed hold: dual must hold; observed win: dual must jump
    w_hold = p_hat[0] * lam[:, 0]
    w_win = p_hat[0] * lam[:, 1]
    assert np.allclose(w_hold / w_hold.sum(), [1.0, 0.0], atol=1e-14)
    assert np.allclose(w_win / w_win.sum(), [0.0, 1.0], atol=1e-14)


def test_coupled_win_times_pass_chi_square():
    from conftest import chi_square_bins

    spec = BirthDeathSpec(N=3, p=(0.25, 0.25), q=(0.1, 0.1))
    game = one_dim_game(spec)
    nu = np.zeros(3)
    nu[0] = 1.0
    report = simulate_coupled(game, nu, SimConfig(runs=30_000, seed=7))
    chain = build_game(game)
    exact = absorb_dist(chain, nu)
    obs, exp = chi_square_bins(
        report.counts_win.astype(float),
        exact.pmf / exact.pmf.sum(),
        report.n_win,
    )
    _, pvalue = chisquare(obs, exp)
    assert pvalue > 0.001


def test_plain_win_times_pass_chi_square():
    from conftest import chi_square_bins

    spec = BirthDeathSpec(N=4, p=(0.3, 0.25, 0.3), q=(0.1, 0.15, 0.1))
    game = one_dim_game(spec)
    chain = build_game(game)
    report = simulate(chain, (2,), SimConfig(runs=30_000, seed=17, workers=2))
    nu = np.zeros(4)
    nu[1] = 1.0
    exact = absorb_dist(chain, nu)
    obs, exp = chi_square_bins(
        report.counts_win.astype(float),
        exact.pmf / exact.pmf.sum(),
        report.n_win,
    )
    _, pvalue = chisquare(obs, exp)
    assert pvalue > 0.001
    # lose-conditioned law against the ruin-absorption law
    exact_lose = absorb_dist(chain, nu, target="ruin")
    obs, exp = chi_square_bins(
        report.counts_lose.astype(float),
        exact_lose.pmf / exact_lose.pmf.sum(),
        report.n_lose,
    )
    _, pvalue = chisquare(obs, exp)
    assert pvalue > 0.001


def test_plain_and_coupled_agree_on_win_frequency():
    spec = BirthDeathSpec(N=3, p=(0.2, 0.2), q=(0.1, 0.05))
    game = preset_r_of_d([spec], 1)
    chain = build_game(game)
    nu = np.zeros(3)
    nu[0] = 1.0
    cfg = SimConfig(runs=30_000, seed=8, workers=2)
    plain = simulate(chain, (1,), cfg)
    coupled = simulate_coupled(game, nu, cfg)
    exact = bd_win_prob(spec)[0]
    assert abs(plain.win_freq - exact) < 4 * plain.win_se
    assert abs(coupled.win_freq - exact) < 4 * coupled.win_se


def test_coupled_start_at_the_win_corner_counts_at_time_zero():
    # from nu = (0.5, 0, 0.5) the law puts 0.5 at t = 0 and none at t = 1
    spec = BirthDeathSpec(N=3, p=(0.3, 0.25), q=(0.0, 0.1))
    game = one_dim_game(spec)
    nu = np.array([0.5, 0.0, 0.5])
    law = absorb_dist(build_game(game), nu).pmf
    assert law[0] == 0.5 and law[1] == 0.0
    report = simulate_coupled(game, nu, SimConfig(runs=10_000, seed=1))
    assert report.coupling_violations == 0
    assert report.counts_win[1] == 0
    assert abs(report.counts_win[0] / report.runs - 0.5) < 4 * 0.5 / 100


def test_more_streams_than_runs():
    spec = BirthDeathSpec(N=3, p=(0.3, 0.3), q=(0.1, 0.1))
    game = one_dim_game(spec)
    chain = build_game(game)
    cfg = SimConfig(runs=2, seed=6, workers=5)
    assert [s.stop - s.start for _, s in cfg.streams()] == [1, 1, 0, 0, 0]
    nu = np.zeros(3)
    nu[0] = 1.0
    for run in (lambda: simulate(chain, (1,), cfg),
                lambda: simulate_coupled(game, nu, cfg)):
        report = run()
        assert report.n_win + report.n_lose + report.n_timeout == cfg.runs
        assert sum(report.counts_win) + sum(report.counts_lose) == cfg.runs
        assert json.dumps(run().as_dict()) == json.dumps(report.as_dict())


@pytest.mark.parametrize("kwargs, message", [
    ({"runs": 0, "seed": 0}, "runs must be >= 1"),
    ({"runs": 10, "seed": -3}, "seed must be >= 0"),
    ({"runs": 10, "seed": 0, "workers": 0}, "workers must be >= 1"),
])
def test_config_rejects_out_of_range_values(kwargs, message):
    with pytest.raises(ValueError, match=message):
        SimConfig(**kwargs)

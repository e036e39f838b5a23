import contextlib
import io
import json
import pathlib
import time

import numpy as np
import pytest
from scipy import sparse
from scipy.stats import chisquare

from krongambler import (
    AbsorbingChain,
    BirthDeathSpec,
    CouplingError,
    GameSpec,
    HorizonError,
    SimConfig,
    absorb_dist,
    build_game,
    preset_r_of_d,
    simulate,
    simulate_coupled,
    win_prob_product,
)
from krongambler.birth_death import bd_win_prob
from krongambler.cli import main
from krongambler.intertwine import build_dual
from krongambler.simulate import (
    _conditional_draw,
    _cum_rows,
    _row_table,
    _sample_rows,
)
from krongambler.specfile import load_spec

from conftest import rand_game, row_major_conditional_draw, row_major_draw

DATA = pathlib.Path(__file__).parent / "data"


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
    cfg = SimConfig(runs=100_000, seed=3)
    report = simulate(chain, (2, 2), cfg)
    exact = win_prob_product(game)[chain.to_linear((2, 2))]
    assert abs(report.win_freq - exact) < 4 * report.win_se


def test_reports_identical_for_identical_config():
    spec = BirthDeathSpec(N=3, p=(0.3, 0.3), q=(0.1, 0.1))
    chain = build_game(one_dim_game(spec))
    cfg = SimConfig(runs=5_000, seed=9)
    a = simulate(chain, (2,), cfg)
    b = simulate(chain, (2,), cfg)
    assert json.dumps(a.as_dict()) == json.dumps(b.as_dict())
    c = simulate(chain, (2,), SimConfig(runs=5_000, seed=10))
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


def test_start_must_be_integer_coordinates():
    # a start is 1-based integer coordinates; a bare index, a fraction or
    # an off-lattice point is refused before any draw
    spec = BirthDeathSpec(N=3, p=(0.3, 0.3), q=(0.1, 0.1))
    chain = build_game(one_dim_game(spec))
    cfg = SimConfig(runs=500, seed=11)
    by_numpy = simulate(chain, (np.int64(2),), cfg)
    assert by_numpy.as_dict() == simulate(chain, (2,), cfg).as_dict()
    for bad in (1, chain.to_linear((2,)), (2.7,), (0,), (4,)):
        with pytest.raises(IndexError):
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
    rows = np.array([[0.2, 0.3, 0.0], [0.0, 0.0, 0.0]])
    u = np.array([0.5, 0.5])
    for draw in (_conditional_draw, row_major_conditional_draw):
        with pytest.raises(CouplingError, match="zero-probability dual step"):
            draw(rows, u)


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
    report = simulate(chain, (2,), SimConfig(runs=30_000, seed=17))
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
    cfg = SimConfig(runs=30_000, seed=8)
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


def test_two_runs_add_up_and_repeat():
    spec = BirthDeathSpec(N=3, p=(0.3, 0.3), q=(0.1, 0.1))
    game = one_dim_game(spec)
    chain = build_game(game)
    cfg = SimConfig(runs=2, seed=6)
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
])
def test_config_rejects_out_of_range_values(kwargs, message):
    with pytest.raises(ValueError, match=message):
        SimConfig(**kwargs)


# -- the category-major draw against the row-major formula --------------------


def assert_draws_match(chain, states, u):
    """``_sample_rows`` on ``_cum_rows`` tables equals the row-major draw."""
    values, dest = _row_table(chain.matrix, chain.ruin)
    cum, flat = _cum_rows(chain)
    assert cum.flags.c_contiguous
    assert cum.shape == (values.shape[1] - 1, chain.size)
    drawn = _sample_rows(cum, flat, states, u)
    assert np.array_equal(drawn, row_major_draw(values, dest, states, u))
    return drawn


def boundary_draws(chain, rng, per_state=20):
    """States and u's that hit every boundary below 1 exactly, plus 0 and
    the largest double below 1."""
    values, _ = _row_table(chain.matrix, chain.ruin)
    cum = np.cumsum(values, axis=1)
    states, cols = np.nonzero(cum < 1.0)
    u = cum[states, cols]
    edges = np.repeat(np.arange(chain.size), 2)
    extreme = np.tile([0.0, np.nextafter(1.0, 0.0)], chain.size)
    more = rng.integers(0, chain.size, per_state * chain.size)
    return (np.concatenate([states, edges, more]),
            np.concatenate([u, extreme, rng.random(len(more))]))


def random_chain(rng, n):
    """Substochastic CSR kernel on n states, rows of mixed width, win last."""
    m = rng.random((n, n)) * (rng.random((n, n)) < rng.uniform(0.05, 0.6))
    sums = np.maximum(m.sum(axis=1, keepdims=True), 1e-300)
    m *= rng.uniform(0.5, 1.0, (n, 1)) / sums
    # exact sums of 1: rows without ruin mass
    m[: n // 4] = 0.0
    m[: n // 4, 0], m[: n // 4, n // 2] = 0.5, 0.25
    m[: n // 4, n - 2] += 0.25
    m[-1] = 0.0
    m[-1, -1] = 1.0
    return AbsorbingChain(sparse.csr_array(m), (n,))


def test_draws_match_row_major_on_random_tables():
    rng = np.random.default_rng(90)
    for n in (2, 5, 17, 40):
        chain = random_chain(rng, n)
        widths = np.diff(chain.matrix.indptr)
        assert len(set(widths.tolist())) > 1 or n == 2  # padded rows
        assert chain.ruin[: n // 4].max(initial=0.0) == 0.0
        assert_draws_match(chain, rng.integers(0, n, 5000), rng.random(5000))
        assert_draws_match(chain, *boundary_draws(chain, rng))


def test_draws_at_ties_take_the_next_category():
    # row 0: [ruin 0.25 | 0.25 -> 1 | 0.5 -> 2]; u on a boundary counts it
    m = np.array([[0.0, 0.25, 0.5], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
    chain = AbsorbingChain(m, (3,))
    u = np.array([0.0, 0.25, 0.5, np.nextafter(0.5, 0.0), 0.75, 0.9])
    drawn = assert_draws_match(chain, np.zeros(6, dtype=np.int64), u)
    assert drawn.tolist() == [-1, 1, 2, 1, 2, 2]


def test_draws_on_a_row_that_overshoots_one():
    # 0.33 + 0.56 + 0.11 sums to 1 + 2^-52: the row has no ruin, and every
    # u < 1 stays inside its three nonzeros, also in the padded columns
    m = np.zeros((4, 4))
    m[0, :3] = 0.33, 0.56, 0.11
    m[1, :] = 0.25
    m[2, 3] = m[3, 3] = 1.0
    chain = AbsorbingChain(m, (4,))
    assert np.cumsum(m[0])[-1] > 1.0
    assert chain.ruin[0] == 0.0
    rng = np.random.default_rng(91)
    u = np.concatenate([[0.0, 0.33, 0.89, np.nextafter(1.0, 0.0)],
                        rng.random(2000)])
    drawn = assert_draws_match(chain, np.zeros(len(u), dtype=np.int64), u)
    assert set(drawn.tolist()) == {0, 1, 2}
    assert drawn[3] == 2
    assert_draws_match(chain, *boundary_draws(chain, rng))


def test_draws_match_row_major_on_d3_r3_rows():
    chain = build_game(load_spec(str(DATA / "d3_r3.json")).game)
    cum, _ = _cum_rows(chain)
    assert cum.shape[0] == 27  # 3^3 nonzeros and ruin: width 28
    rng = np.random.default_rng(92)
    assert_draws_match(chain, *boundary_draws(chain, rng, per_state=200))


@pytest.mark.parametrize("width", [1, 2, 4, 8, 9, 16])
def test_conditional_draw_matches_row_major(width):
    # from 8 columns on, numpy sums a row pairwise, not in cumsum order
    rng = np.random.default_rng(93 + width)
    runs = np.arange(3000)
    rows = rng.random((3000, width)) * (rng.random((3000, width)) < 0.6)
    rows[runs, rng.integers(0, width, 3000)] += 1e-3
    cum = np.cumsum(rows, axis=1) / rows.sum(axis=1)[:, None]
    # a third of the draws sit exactly on a boundary
    u = np.where(runs < 1000, cum[runs, rng.integers(0, width, 3000)],
                 rng.random(3000))
    u[u >= 1.0] = 0.0
    assert np.array_equal(_conditional_draw(rows, u),
                          row_major_conditional_draw(rows, u))


# -- pinned reports ----------------------------------------------------------


@pytest.mark.parametrize("name", ["simulate", "simulate-coupled"])
def test_d3_r3_reports_unchanged(name, monkeypatch):
    recorded = json.loads((DATA / "d3_r3_reports.json").read_text())[name]
    monkeypatch.chdir(DATA)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(recorded["argv"])
    assert (code, out.getvalue()) == (recorded["code"], recorded["stdout"])


# -- runs that cannot finish within the step cap -----------------------------


SLOW = BirthDeathSpec(N=3, p=(1e-13, 1e-13), q=(0.0, 1e-13))


@pytest.mark.parametrize("coupled", [False, True], ids=["plain", "coupled"])
def test_hopeless_runs_raise_before_the_first_draw(coupled):
    # least row sum of Q: 1 - 1e-13, so a run finishes within 10^6 steps
    # with probability at most 1 - (1 - 1e-13)^(10^6) = 1.0e-7
    game = one_dim_game(SLOW)
    cfg = SimConfig(runs=10, seed=0)
    t0 = time.perf_counter()
    with pytest.raises(HorizonError) as info:
        if coupled:
            simulate_coupled(game, np.array([1.0, 0.0, 0.0]), cfg)
        else:
            simulate(build_game(game), (1,), cfg)
    assert time.perf_counter() - t0 < 1.0
    message = str(info.value)
    assert "1000000 steps" in message
    assert "1.000e-07" in message
    assert "least row sum of Q 0.9999999999999" in message


def test_hopeless_runs_from_the_win_corner_still_win():
    game = one_dim_game(SLOW)
    cfg = SimConfig(runs=10, seed=0)
    assert simulate(build_game(game), (3,), cfg).counts_win.tolist() == [10]


@pytest.mark.parametrize("max_steps, raises", [(100, True), (101, False)])
def test_step_cap_bound_at_the_timeout_share(max_steps, raises):
    # one transient state holding 1 - 1e-5: the bound 1 - (1 - 1e-5)^t is
    # 9.995e-4 at t = 100 and 1.0095e-3 at t = 101, around TIMEOUT_SHARE
    chain = build_game(one_dim_game(BirthDeathSpec(N=2, p=(1e-5,), q=(0.0,))))
    cfg = SimConfig(runs=10, seed=0, max_steps=max_steps)
    if raises:
        with pytest.raises(HorizonError, match="at most 9.995e-04"):
            simulate(chain, (1,), cfg)
    else:
        report = simulate(chain, (1,), cfg)
        assert report.n_win + report.n_timeout == 10
        assert report.horizon_warning

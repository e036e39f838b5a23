import pathlib

import numpy as np
import pytest
from scipy import sparse

from krongambler import (
    AbsorbingChain,
    BirthDeathSpec,
    GameSpec,
    build_game,
    linear_index,
    preset_r_of_d,
    verify,
)
from krongambler.intertwine import SpectralLink
from krongambler.siegmund import reconstruct_primal, stationary_of
from krongambler.specfile import load_spec
from krongambler.verify import diagonal_eigenvalue_check, run_checks

from conftest import rand_bd


def test_full_suite_on_valid_game():
    rng = np.random.default_rng(60)
    dims = [rand_bd(rng, 3, budget=0.2), rand_bd(rng, 3, budget=0.2)]
    checks = run_checks(preset_r_of_d(dims, 1))
    assert all(c.passed for c in checks)
    names = [c.name for c in checks]
    assert "intertwining" in names
    assert "diagonal_eigenvalues" in names


def test_matrix_coefficient_games_skip_dual_checks():
    rng = np.random.default_rng(61)
    spec = rand_bd(rng, 4, budget=0.5)
    lazy = rng.uniform(0.4, 1.0, 4)
    game = GameSpec(
        dims=(spec,),
        subsets=(frozenset({1}), frozenset()),
        coeffs=(lazy, 1.0 - lazy),
    )
    checks = run_checks(game)
    assert all(c.passed for c in checks)
    names = [c.name for c in checks]
    assert "win_prob_product_vs_solve" in names
    assert "intertwining" not in names


def test_dual_nonnegativity_failure_is_reported_not_raised():
    spec = BirthDeathSpec(N=3, p=(0.3, 0.3), q=(0.1, 0.1))
    checks = run_checks(preset_r_of_d([spec, spec], 1))
    by_name = {c.name: c for c in checks}
    assert not by_name["dual_nonnegative"].passed
    assert not all(c.passed for c in checks)
    # the winning-probability pipeline is unaffected
    assert by_name["win_prob_product_vs_solve"].passed


@pytest.mark.parametrize("p, q, detail", [
    ((0.9, 0.05), (0.05, 0.9), "every component must be monotone"),
    ((1e-13, 1e-13), (0.0, 1e-13), "a non-top eigenvalue is within 1e-12 of 1"),
], ids=["non-monotone", "degenerate-spectrum"])
def test_link_preconditions_are_reported_as_dual_link(p, q, detail):
    # the spectral link's preconditions fail before any dual entry exists
    spec = BirthDeathSpec(N=3, p=p, q=q)
    checks = run_checks(preset_r_of_d([spec], 1))
    assert "dual_nonnegative" not in [c.name for c in checks]
    assert checks[-1] == verify.CheckResult("dual_link", False, None, detail)


def test_keilson_check_uses_bottom_start_regardless_of_game_start():
    spec = BirthDeathSpec(N=4, p=(0.3, 0.25, 0.3), q=(0.0, 0.1, 0.1))
    game = GameSpec(dims=(spec,), subsets=(frozenset({1}),), coeffs=(1.0,))
    checks = run_checks(game, start=(3,))
    by_name = {c.name: c for c in checks}
    assert by_name["keilson_factorization"].passed
    assert all(c.passed for c in checks)


def test_dual_law_error_is_a_failed_entry(monkeypatch):
    rng = np.random.default_rng(63)
    game = preset_r_of_d([rand_bd(rng, 3, budget=0.2) for _ in range(2)], 1)
    true_initial = verify.dual_initial

    def negated(link, nu_star):
        # weights whose dual law is clearly negative: absorb_dist raises
        return -true_initial(link, nu_star)

    monkeypatch.setattr(verify, "dual_initial", negated)
    by_name = {c.name: c for c in run_checks(game)}
    entry = by_name["distribution_equality"]
    assert not entry.passed
    assert "inconsistent weights" in entry.detail


def test_char_poly_residual_detects_wrong_values():
    m = np.diag([0.2, 0.5, 0.9])
    exact = diagonal_eigenvalue_check(m, np.array([0.9, 0.2, 0.5]))
    assert exact.passed and exact.residual == 0.0
    wrong = diagonal_eigenvalue_check(m, np.array([0.2, 0.5, 0.3]))
    assert not wrong.passed and wrong.residual > 1e-3


def test_perturbed_partner_fails_pi_route(monkeypatch):
    rng = np.random.default_rng(62)
    dims = [rand_bd(rng, 3, budget=0.2), rand_bd(rng, 4, budget=0.2)]
    game = preset_r_of_d(dims, 1)
    by_name = {c.name: c for c in run_checks(game)}
    assert by_name["win_prob_pi_route"].passed

    def perturbed(kernel, dims):
        # move 1e-3 of row 2's mass from its diagonal to its first entry:
        # still stochastic, but with another stationary law
        p_x = reconstruct_primal(kernel, dims)
        p_x[2, 2] -= 1e-3
        p_x[2, 0] += 1e-3
        return p_x

    monkeypatch.setattr(verify, "reconstruct_primal", perturbed)
    by_name = {c.name: c for c in run_checks(game)}
    assert not by_name["win_prob_pi_route"].passed
    assert by_name["win_prob_pi_route"].residual > 1e-6
    # the solve is exact for the partner it is given
    chain = build_game(game)
    p_x = perturbed(chain.matrix.toarray(), chain.dims)
    pi = stationary_of(p_x)
    assert abs(pi.sum() - 1.0) < 1e-14
    assert np.max(np.abs(pi @ p_x - pi)) < 1e-14


def test_mutated_kernel_fails_product_checks(monkeypatch):
    rng = np.random.default_rng(60)
    dims = [rand_bd(rng, 3, budget=0.2), rand_bd(rng, 3, budget=0.2)]
    game = preset_r_of_d(dims, 1)
    true_build = verify.build_game

    def mutated(spec):
        # move 1e-6 of the centre state (2, 2)'s holding mass to (2, 3):
        # still substochastic and communicating, but no longer this game
        chain = true_build(spec)
        kernel = chain.matrix.toarray()
        centre = linear_index(chain.dims, (2, 2))
        right = linear_index(chain.dims, (2, 3))
        kernel[centre, centre] -= 1e-6
        kernel[centre, right] += 1e-6
        return AbsorbingChain(kernel, chain.dims)

    monkeypatch.setattr(verify, "build_game", mutated)
    by_name = {c.name: c for c in run_checks(game)}
    for name in ("win_prob_product_vs_solve", "stationary_product"):
        assert not by_name[name].passed, name


def test_mutated_link_fails_intertwining(monkeypatch):
    rng = np.random.default_rng(61)
    dims = [rand_bd(rng, 4, budget=0.2), rand_bd(rng, 3, budget=0.2)]
    game = preset_r_of_d(dims, 1)
    by_name = {c.name: c for c in run_checks(game)}
    assert by_name["intertwining"].passed
    true_build = verify.build_dual

    def mutated(spec):
        # 1e-8 on one entry below the diagonal of the first factor
        link, dual = true_build(spec)
        factor = link.per_dim[0].copy()
        factor[2, 1] += 1e-8
        changed = SpectralLink(
            per_dim=(factor, *link.per_dim[1:]),
            iso_value=link.iso_value,
            dims=link.dims,
        )
        return changed, dual

    monkeypatch.setattr(verify, "build_dual", mutated)
    by_name = {c.name: c for c in run_checks(game)}
    assert not by_name["intertwining"].passed, by_name["intertwining"]


def test_run_checks_makes_the_game_dense_once(monkeypatch):
    chains = []
    true_build = verify.build_game

    def build(spec):
        chains.append(true_build(spec))
        return chains[-1]

    converted = []
    true_toarray = sparse.csr_array.toarray

    def toarray(self, *args, **kwargs):
        converted.append(self)
        return true_toarray(self, *args, **kwargs)

    monkeypatch.setattr(verify, "build_game", build)
    monkeypatch.setattr(sparse.csr_array, "toarray", toarray)
    spec = pathlib.Path(__file__).parent / "data" / "cli_corpus" / "d3_r2.json"
    checks = run_checks(load_spec(str(spec)).game)
    assert all(c.passed for c in checks)
    assert len(chains) == 1
    # the intertwining and eigenvalue checks and the Siegmund partner share
    # the game's one dense kernel
    assert sum(m is chains[0].matrix for m in converted) == 1

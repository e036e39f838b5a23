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
from krongambler import absorption, birth_death, intertwine, linalg
from krongambler.intertwine import SpectralLink
from krongambler.siegmund import reconstruct_primal, stationary_of
from krongambler.specfile import load_spec
from krongambler.verify import diagonal_eigenvalue_check, run_checks

from conftest import dual_safe_budget, rand_bd, rand_game

# a valid 12-state component: its intertwining residual is 3.3e-11, and its
# full spectral polynomial matrices, in double precision, round past 1e-10
VERIFY_N12 = pathlib.Path(__file__).parent / "data" / "verify_n12.json"


def test_full_suite_on_valid_game():
    rng = np.random.default_rng(60)
    dims = [rand_bd(rng, 3, budget=0.2), rand_bd(rng, 3, budget=0.2)]
    checks = run_checks(preset_r_of_d(dims, 1))
    assert all(c.passed for c in checks)
    names = [c.name for c in checks]
    assert "intertwining" in names
    assert "diagonal_eigenvalues" in names


@pytest.mark.parametrize("paired", [False, True], ids=["alone", "paired"])
def test_twelve_state_component_passes_every_entry(paired):
    spec = load_spec(str(VERIFY_N12)).game.dims[0]
    dims = [spec, BirthDeathSpec(N=2, p=(0.1,), q=(0.05,))] if paired else [spec]
    checks = run_checks(preset_r_of_d(dims, len(dims)))
    assert [c.name for c in checks if not c.passed] == []
    assert checks[-1].name == "distribution_equality"


def scale_row(link):
    link[2] *= 1.0 + 1e-8


def nudge_entry(link):
    link[2, 1] += 1e-8


def swap_rows(link):
    link[[1, 2]] = link[[2, 1]]


@pytest.mark.parametrize("mutate", [scale_row, nudge_entry, swap_rows])
def test_mutated_link_rows_fail_dual_link(monkeypatch, mutate):
    # the link is checked through what it intertwines: build_dual's
    # per-dimension gate refuses a wrong row before the dual exists
    game = load_spec(str(VERIFY_N12)).game
    exact = intertwine.spectral_link_1d

    def mutated(spec):
        link = exact(spec)
        mutate(link)
        return link

    monkeypatch.setattr(intertwine, "spectral_link_1d", mutated)
    entry = run_checks(game)[-1]
    assert entry.name == "dual_link" and not entry.passed, entry
    assert "intertwining residual" in entry.detail


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


def test_power_iteration_at_its_cap_fails_its_entries(monkeypatch):
    # both laws of a 1-D chain without ruin leave transient mass at a cap
    # of 10 steps: each entry that reads one fails, and the suite goes on
    monkeypatch.setattr(absorption, "MAX_HORIZON", 10)
    spec = BirthDeathSpec(N=4, p=(0.3, 0.25, 0.3), q=(0.0, 0.1, 0.1))
    checks = run_checks(preset_r_of_d([spec], 1))
    failed = [c for c in checks if not c.passed]
    assert [c.name for c in failed] == ["distribution_equality",
                                        "keilson_factorization"]
    for entry in failed:
        assert entry.residual is None
        assert "transient mass" in entry.detail, entry


def test_entry_names_are_the_docstring_table_rows():
    lines = verify.__doc__.splitlines()
    rules = [i for i, line in enumerate(lines) if line.startswith("=====")]
    rows = [line.split()[0] for line in lines[rules[1] + 1 : rules[2]]
            if line[:1].strip()]
    spec = pathlib.Path(__file__).parent / "data" / "cli_corpus" / "d3_r2.json"
    names = [c.name for c in run_checks(load_spec(str(spec)).game)]
    # the build-time gate's entry, passed once the dual is built
    names.remove("dual_nonnegative")
    # the factorization concerns 1-D games only
    assert names == [row for row in rows if row != "keilson_factorization"]


def test_char_poly_residual_detects_wrong_values():
    m = np.diag([0.2, 0.5, 0.9])
    exact = diagonal_eigenvalue_check(m, np.array([0.9, 0.2, 0.5]))
    assert exact.passed and exact.residual == 0.0
    wrong = diagonal_eigenvalue_check(m, np.array([0.2, 0.5, 0.3]))
    assert not wrong.passed and wrong.residual > 1e-3
    # two blocks: {0, 1} (eigenvalues 0.1, 0.7) leads into the lower block
    # {2, 3} (0.3, 0.7), which never leads back
    m = np.array([[0.4, 0.3, 0.2, 0.0],
                  [0.3, 0.4, 0.0, 0.2],
                  [0.0, 0.0, 0.5, 0.2],
                  [0.0, 0.0, 0.2, 0.5]])
    diag = np.array([0.1, 0.3, 0.7, 0.7])
    exact = diagonal_eigenvalue_check(m, diag)
    assert exact.passed and exact.residual < 1e-15
    wrong = diagonal_eigenvalue_check(m, np.array([0.1, 0.3, 0.7, 0.6]))
    assert not wrong.passed and abs(wrong.residual - 0.1) < 1e-12
    # a wrong entry inside the lower block moves its eigenvalues to
    # 0.45 +- sqrt(0.0425)
    m[3, 3] = 0.4
    wrong = diagonal_eigenvalue_check(m, diag)
    assert not wrong.passed and wrong.residual > 0.04


def record_eigvals(monkeypatch) -> list:
    """Patch np.linalg.eigvals to record the order of every matrix it gets."""
    sizes = []
    true_eigvals = np.linalg.eigvals

    def recording(a):
        sizes.append(len(a))
        return true_eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", recording)
    return sizes


def test_block_spectrum_matches_dense_eigvals():
    rng = np.random.default_rng(64)
    cases = [(d, r) for d in range(1, 5) for r in range(1, d + 1)]
    for k in range(50):
        d, r = cases[k % len(cases)]
        game = rand_game(rng, d=d, r=r, dual_safe=False)
        kernel = build_game(game).matrix.toarray()
        dense = np.sort(np.linalg.eigvals(kernel).real)
        # the residual against the dense spectrum is the larger of the
        # sorted real gap and the blocks' largest imaginary part
        result = diagonal_eigenvalue_check(kernel, dense)
        assert result.residual <= 1e-12, (d, r, result)


def test_irreducible_kernel_is_one_block(monkeypatch):
    sizes = record_eigvals(monkeypatch)
    m = np.array([[0.2, 0.5, 0.0], [0.0, 0.3, 0.6], [0.4, 0.0, 0.1]])
    exact = np.linalg.eigvals(m)
    sizes.clear()
    result = diagonal_eigenvalue_check(m, exact.real)
    assert sizes == [3]
    # the cycle's complex pair is not a real spectrum
    assert not result.passed and result.residual > 0.1


def test_edge_back_from_a_top_face_merges_blocks(monkeypatch):
    rng = np.random.default_rng(65)
    game = preset_r_of_d([rand_bd(rng, 4, budget=0.2) for _ in range(2)], 1)
    chain = build_game(game)
    kernel = chain.matrix.toarray()
    sizes = record_eigvals(monkeypatch)
    diagonal_eigenvalue_check(kernel, np.zeros(16))
    # the interior 3 x 3, the two top edges of 3 and the win corner
    assert sorted(sizes) == [1, 3, 3, 9]
    # (4, 2), on the top face of coordinate 1, moves back to (1, 2)
    top, inner = linear_index(chain.dims, (4, 2)), linear_index(chain.dims, (1, 2))
    kernel[top, top] -= 0.01
    kernel[top, inner] += 0.01
    dense = np.sort(np.linalg.eigvals(kernel).real)
    sizes.clear()
    result = diagonal_eigenvalue_check(kernel, dense)
    assert sorted(sizes) == [1, 3, 12]
    assert result.residual <= 1e-12, result


@pytest.mark.parametrize("shape, r, largest", [
    ((6, 6, 6), 1, 125),
    ((4, 4, 4, 4), 4, 81),
])
def test_eigvals_sees_only_strongly_connected_blocks(monkeypatch, shape, r,
                                                     largest):
    rng = np.random.default_rng(66)
    budget = dual_safe_budget(len(shape), r)
    game = preset_r_of_d([rand_bd(rng, n, budget=budget) for n in shape], r)
    sizes = record_eigvals(monkeypatch)
    checks = {c.name: c for c in run_checks(game)}
    assert checks["diagonal_eigenvalues"].passed
    assert checks["diagonal_eigenvalues"].residual <= 1e-12
    assert max(sizes) == largest
    assert sum(sizes) == game.size


def test_run_checks_factors_and_solves_each_spectrum_once(monkeypatch):
    lu_calls = []
    eig_calls = []
    true_splu = linalg.splu
    true_eigs = birth_death.eigvalsh_tridiagonal

    def splu(*args, **kwargs):
        lu_calls.append(args[0].shape)
        return true_splu(*args, **kwargs)

    def eigs(*args, **kwargs):
        eig_calls.append(len(args[0]))
        return true_eigs(*args, **kwargs)

    monkeypatch.setattr(linalg, "splu", splu)
    monkeypatch.setattr(birth_death, "eigvalsh_tridiagonal", eigs)
    spec = pathlib.Path(__file__).parent / "data" / "cli_corpus" / "d3_r2.json"
    game = load_spec(str(spec)).game
    assert game.d == 3 and game.scalar_coeffs
    checks = run_checks(game)
    assert all(c.passed for c in checks)
    # one LU of the game (its win probabilities and its law's tail) and
    # one of the dual; one eigensolve per component
    assert lu_calls == [(11, 11), (11, 11)]
    assert eig_calls == [1, 2, 1]


def test_perturbed_partner_fails_stationary_product(monkeypatch):
    rng = np.random.default_rng(62)
    dims = [rand_bd(rng, 3, budget=0.2), rand_bd(rng, 4, budget=0.2)]
    game = preset_r_of_d(dims, 1)
    by_name = {c.name: c for c in run_checks(game)}
    assert by_name["stationary_product"].passed

    def perturbed(kernel, dims):
        # move 1e-3 of row 2's mass from its diagonal to its first entry:
        # still stochastic, but with another stationary law
        p_x = reconstruct_primal(kernel, dims)
        p_x[2, 2] -= 1e-3
        p_x[2, 0] += 1e-3
        return p_x

    monkeypatch.setattr(verify, "reconstruct_primal", perturbed)
    by_name = {c.name: c for c in run_checks(game)}
    assert not by_name["stationary_product"].passed
    assert by_name["stationary_product"].residual > 1e-6
    # the product law is not stationary for it, while the partner's own
    # stationary law, solved exactly, is
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

import csv
import functools
import io
import json
import pathlib
import re
import sys
import time

import numpy as np
import pytest
from scipy import sparse

from krongambler import absorption, cli, intertwine, pgf, verify
from krongambler.cli import main
from krongambler.absorption import absorb_dist
from krongambler.game import build_game, lattice_point_mass
from krongambler.siegmund import win_prob_product
from krongambler.specfile import SpecFileError, load_spec, parse_spec

from conftest import link_cliff_doc, signed_weights_doc
from test_cli_corpus import COMMANDS, SPECS, refuse_constant


DATA = pathlib.Path(__file__).parent / "data"
CORPUS = DATA / "cli_corpus"


def write_spec(tmp_path, doc, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def golden_doc(**extra):
    doc = {
        "version": 1,
        "dims": [{"N": 3, "p": [0.3, 0.3], "q": [0.1, 0.1]}],
        "mixing": {"subsets": [[1]], "coeffs": [1.0]},
        "start": [2],
    }
    doc.update(extra)
    return doc


def lazy_two_dim_doc(**extra):
    doc = {
        "version": 1,
        "dims": [
            {"N": 3, "p": [0.08, 0.07], "q": [0.05, 0.06]},
            {"N": 3, "p": [0.07, 0.08], "q": [0.06, 0.05]},
        ],
        "mixing": {"preset": {"type": "r_of_d", "r": 1}},
    }
    doc.update(extra)
    return doc


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- parsing ----------------------------------------------------------------


def test_parse_round_trip(tmp_path):
    parsed = load_spec(write_spec(tmp_path, lazy_two_dim_doc(seed=5, runs=77)))
    assert parsed.game.d == 2
    assert parsed.start == (1, 1)
    assert parsed.seed == 5
    assert parsed.runs == 77


@pytest.mark.parametrize(
    "mutate, field",
    [
        (lambda d: d.pop("dims"), "dims"),
        (lambda d: d["dims"][0].pop("p"), "dims[0].p"),
        (lambda d: d["dims"][0]["p"].append(0.1), "dims[0].p"),
        (lambda d: d.__setitem__("version", 2), "version"),
        # equal to 1, but not the integer version
        pytest.param(lambda d: d.__setitem__("version", True), "version",
                     id="version-true"),
        pytest.param(lambda d: d.__setitem__("version", 1.0), "version",
                     id="version-float"),
        (lambda d: d.__setitem__("start", [9]), "start[0]"),
        (lambda d: d["mixing"].__setitem__("coeffs", [0.5]), "mixing"),
        (lambda d: d["mixing"]["subsets"][0].append(7), "mixing.subsets[0]"),
        (lambda d: d.__setitem__("seed", -3), "seed"),
        (lambda d: d.__setitem__("runs", 0), "runs"),
        (lambda d: d.__setitem__("horizon", -1), "horizon"),
        # golden_doc has one coordinate, so r = 2 is out of range
        (lambda d: d.__setitem__("mixing", {"preset": {"type": "r_of_d", "r": 2}}),
         "mixing.preset.r"),
    ],
)
def test_parse_errors_name_fields(mutate, field):
    doc = golden_doc()
    mutate(doc)
    with pytest.raises(SpecFileError) as err:
        parse_spec(doc)
    assert err.value.field == field


@pytest.mark.parametrize("bad", ["0.3", True, None])
def test_non_number_rate_deep_in_a_long_list_names_its_index(tmp_path, capsys,
                                                             bad):
    n = 50_001
    rates = [0.3] * (n - 1)
    rates[40_000] = bad
    doc = {"version": 1, "dims": [{"N": n, "p": rates, "q": [0.3] * (n - 1)}],
           "mixing": {"preset": {"type": "r_of_d", "r": 1}}}
    code, out, err = run_cli(capsys, ["win-prob", write_spec(tmp_path, doc)])
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "dims[0].p[40000]: expected a number",
                               "field": "dims[0].p[40000]"}


@pytest.mark.parametrize("field, path", [
    ("dims[0].p[1]", ("dims", 0, "p", 1)),
    ("dims[1].q[0]", ("dims", 1, "q", 0)),
    ("mixing.coeffs[1]", ("mixing", "coeffs", 1)),
    ("eps", ("eps",)),
])
def test_integer_too_large_for_a_float_names_its_field(tmp_path, capsys,
                                                      field, path):
    doc = lazy_two_dim_doc(mixing={"subsets": [[1], [2]], "coeffs": [0.5, 0.5]})
    entry = doc
    for key in path[:-1]:
        entry = entry[key]
    entry[path[-1]] = 10**400
    code, out, err = run_cli(capsys, ["win-prob", write_spec(tmp_path, doc)])
    assert (code, out) == (2, "")
    assert json.loads(err) == {
        "error": f"{field}: integer too large for a float", "field": field,
    }


def test_malformed_json_exits_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, out, err = run_cli(capsys, ["win-prob", str(path)])
    assert code == 2
    assert "field" in json.loads(err)


def test_unreadable_spec_path_exits_two(tmp_path, capsys):
    # a directory or a missing file is invalid input, not a failed check
    for path in (DATA, tmp_path / "missing.json"):
        code, out, err = run_cli(capsys, ["win-prob", str(path)])
        assert (code, out) == (2, "")
        assert str(path) in json.loads(err)["error"]


# -- subcommands ------------------------------------------------------------


def test_win_prob_golden(tmp_path, capsys):
    code, out, _ = run_cli(capsys, ["win-prob", write_spec(tmp_path, golden_doc())])
    assert code == 0
    body = json.loads(out)
    assert abs(body["rho"]["2"] - 12.0 / 13.0) < 1e-12
    assert body["method_agreement"] < 1e-12


def test_win_prob_all_safe_dims(tmp_path, capsys):
    doc = golden_doc()
    doc["dims"][0]["q"] = [0.0, 0.1]
    code, out, _ = run_cli(capsys, ["win-prob", write_spec(tmp_path, doc)])
    body = json.loads(out)
    assert code == 0
    assert all(v == 1.0 for v in body["rho"].values())


def test_absorb_dist_csv_shape(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        ["absorb-dist", write_spec(tmp_path, golden_doc()), "--horizon", "6"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,pmf,cdf"
    assert lines[-1].startswith("# tail,")
    rows = list(csv.reader(io.StringIO("\n".join(lines[1:-1]))))
    assert len(rows) <= 7
    # golden chain from 2: P(T=1, win) = p = 0.3
    assert abs(float(rows[1][1]) - 0.3) < 1e-14


def test_spec_file_horizon_truncates_absorb_dist(tmp_path, capsys):
    path = write_spec(tmp_path, golden_doc(horizon=3))
    code, out, _ = run_cli(capsys, ["absorb-dist", path])
    assert code == 0
    lines = out.strip().splitlines()
    assert [line.split(",")[0] for line in lines] == [
        "t", "0", "1", "2", "3", "# tail"]
    path = write_spec(tmp_path, golden_doc(horizon=-1))
    code, out, err = run_cli(capsys, ["absorb-dist", path])
    assert (code, out) == (2, "")
    assert json.loads(err)["field"] == "horizon"


def running_sum_csv(dist, eps):
    """absorb-dist's CSV as a running sum writes it, one row at a time."""
    lines = ["t,pmf,cdf"]
    cdf = 0.0
    for t, mass in enumerate(dist.pmf.tolist()):
        cdf += mass
        lines.append(f"{t},{mass!r},{cdf!r}")
    if dist.tail > eps:
        lines.append(f"# tail,{float(dist.tail)!r}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("horizon", [None, 100], ids=["converged", "tail"])
def test_absorb_dist_csv_is_the_running_sum_text(tmp_path, capsys, horizon):
    # a slow 1-D chain: 5,159 rows without a horizon
    doc = {"version": 1, "dims": [{"N": 6, "p": [0.02] * 5, "q": [0.02] * 5}],
           "mixing": {"preset": {"type": "r_of_d", "r": 1}}, "start": [2]}
    path = write_spec(tmp_path, doc)
    flags = [] if horizon is None else ["--horizon", str(horizon)]
    code, out, _ = run_cli(capsys, ["absorb-dist", path, *flags])
    assert code == 0
    parsed = load_spec(path)
    chain = build_game(parsed.game)
    dist = absorb_dist(chain, lattice_point_mass(chain.dims, (2,)),
                       horizon=horizon, eps=parsed.eps)
    # line by line: a failing comparison of the whole text takes minutes
    got, want = out.split("\n"), running_sum_csv(dist, parsed.eps).split("\n")
    assert len(got) == len(want)
    for line_got, line_want in zip(got, want):
        assert line_got == line_want
    if horizon is None:
        assert len(dist.pmf) > 5000
    else:
        assert out.splitlines()[-1].startswith("# tail,")


def test_absorb_dist_matches_closed_form_series(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, ["absorb-dist", write_spec(tmp_path, golden_doc())]
    )
    assert code == 0
    lines = out.strip().splitlines()
    data = [float(r[1]) for r in csv.reader(io.StringIO("\n".join(lines[1:])))
            if not r[0].startswith("#")]
    p, q = 0.3, 0.1
    lam = [1 - p - q - np.sqrt(p * q), 1 - p - q + np.sqrt(p * q)]
    horizon = 20
    g = np.convolve(lam[0] ** np.arange(horizon), lam[1] ** np.arange(horizon))
    numer = np.zeros(horizon)
    numer[1] = p
    numer[2] = -p * (1 - p - q)
    series = np.convolve(numer, g[:horizon])[:horizon]
    assert np.max(np.abs(series - np.array(data[:horizon]))) < 1e-10


def test_pgf_values(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        ["pgf", write_spec(tmp_path, golden_doc()), "--eval", "0.5,1.0"],
    )
    assert code == 0
    body = json.loads(out)
    p, q = 0.3, 0.1
    root = np.sqrt(p * q)
    closed = (
        p * (q + p + root) * (-q - p + root) * 0.5 * (1 - 0.5 * (1 - q - p))
    ) / (
        (p * p + q * p + q * q)
        * (1 - 0.5 * (1 - q - p - root))
        * (-1 + 0.5 * (1 - q - p + root))
    )
    assert abs(body["values"]["0.5"] - closed) < 1e-10
    assert abs(body["rho_at_1"] - 12.0 / 13.0) < 1e-12
    assert abs(body["values"]["1.0"] - 12.0 / 13.0) < 1e-9


def test_simulate_deterministic_output(tmp_path, capsys):
    path = write_spec(tmp_path, lazy_two_dim_doc(seed=3, runs=4000))
    code_a, out_a, _ = run_cli(capsys, ["simulate", path])
    code_b, out_b, _ = run_cli(capsys, ["simulate", path])
    assert code_a == code_b == 0
    assert out_a == out_b
    body = json.loads(out_a)
    assert body["n_win"] + body["n_lose"] + body["n_timeout"] == 4000


def test_simulate_coupled_reports_zero_violations(tmp_path, capsys):
    path = write_spec(tmp_path, lazy_two_dim_doc(seed=3, runs=2000))
    code, out, _ = run_cli(capsys, ["simulate", path, "--coupled"])
    assert code == 0
    assert json.loads(out)["coupling_violations"] == 0


def test_workers_env_leaves_simulate_unchanged(tmp_path, capsys, monkeypatch):
    # the CLI always runs one stream; the environment does not split it
    path = write_spec(tmp_path, lazy_two_dim_doc(seed=3, runs=1000))
    monkeypatch.delenv("GAMBLER_WORKERS", raising=False)
    code_a, out_a, _ = run_cli(capsys, ["simulate", path])
    monkeypatch.setenv("GAMBLER_WORKERS", "3")
    code_b, out_b, _ = run_cli(capsys, ["simulate", path])
    assert code_a == code_b == 0
    assert out_b == out_a
    assert "workers" not in json.loads(out_b)


def test_simulate_coupled_from_the_win_corner(tmp_path, capsys):
    # runs that start at the win corner are wins at t = 0, as absorb-dist says
    doc = {
        "version": 1,
        "dims": [{"N": 3, "p": [0.3, 0.25], "q": [0.0, 0.1]}],
        "mixing": {"subsets": [[1]], "coeffs": [1.0]},
        "seed": 1,
    }
    path = write_spec(tmp_path, doc)
    code, out, _ = run_cli(
        capsys, ["simulate", path, "--coupled", "--start", "3", "--runs", "10"]
    )
    assert code == 0
    body = json.loads(out)
    assert body["counts_win"] == [10]
    assert body["coupling_violations"] == 0
    code, out, _ = run_cli(capsys, ["absorb-dist", path, "--start", "3"])
    assert code == 0
    assert out.splitlines()[1:] == ["0,1.0,1.0"]


def test_verify_passes_on_valid_spec(tmp_path, capsys):
    code, out, _ = run_cli(capsys, ["verify", write_spec(tmp_path, lazy_two_dim_doc())])
    assert code == 0
    body = json.loads(out)
    names = {c["name"] for c in body["checks"]}
    assert {"intertwining", "diagonal_eigenvalues", "distribution_equality"} <= names
    assert all(c["pass"] for c in body["checks"])


def test_verify_includes_keilson_for_safe_one_dim(tmp_path, capsys):
    doc = golden_doc()
    doc["dims"][0]["q"] = [0.0, 0.1]
    doc["start"] = [1]
    code, out, _ = run_cli(capsys, ["verify", write_spec(tmp_path, doc)])
    assert code == 0
    assert "keilson_factorization" in {c["name"] for c in json.loads(out)["checks"]}


def test_verify_fails_on_dual_nonnegativity_violation(tmp_path, capsys):
    doc = {
        "version": 1,
        "dims": [
            {"N": 3, "p": [0.3, 0.3], "q": [0.1, 0.1]},
            {"N": 3, "p": [0.3, 0.3], "q": [0.1, 0.1]},
        ],
        "mixing": {"preset": {"type": "r_of_d", "r": 1}},
    }
    code, out, _ = run_cli(capsys, ["verify", write_spec(tmp_path, doc)])
    assert code == 1
    body = json.loads(out)
    failed = {c["name"]: c for c in body["checks"] if not c["pass"]}
    assert "dual_nonnegative" in failed
    assert "lattice states" in failed["dual_nonnegative"]["detail"]


def test_verify_reports_a_failed_build(capsys):
    # the second coordinate never moves, so the transient states split
    code, out, _ = run_cli(capsys, ["verify", str(DATA / "split_game.json")])
    assert code == 1
    assert json.loads(out, parse_constant=refuse_constant) == {"checks": [{
        "name": "build", "pass": False, "residual": None,
        "detail": "transient states split into several classes",
    }]}


def test_verify_reports_a_power_iteration_at_its_cap(capsys, monkeypatch):
    # a slow 9-state chain leaves transient mass at the step cap (at the
    # default cap of 10^6 steps too): that entry fails, every entry is
    # printed, exit 1
    monkeypatch.setattr(absorption, "MAX_HORIZON", 1000)
    code, out, err = run_cli(capsys, ["verify", str(DATA / "verify_slow.json")])
    assert code == 1 and err == ""
    checks = json.loads(out, parse_constant=refuse_constant)["checks"]
    assert [c["name"] for c in checks] == [
        "win_prob_product_vs_solve", "mobius_monotone", "stationary_product",
        "dual_nonnegative", "intertwining", "pure_birth_rows",
        "diagonal_eigenvalues", "distribution_equality",
    ]
    failed = [c for c in checks if not c["pass"]]
    assert [c["name"] for c in failed] == ["distribution_equality"]
    assert failed[0]["residual"] is None
    assert "transient mass" in failed[0]["detail"]


def test_malformed_start_flag_exits_two(tmp_path, capsys):
    path = write_spec(tmp_path, golden_doc())
    code, _, err = run_cli(capsys, ["pgf", path, "--start", "a,b"])
    assert code == 2
    assert json.loads(err)["field"] == "--start"


@pytest.mark.parametrize("command", ["absorb-dist", "pgf", "simulate"])
@pytest.mark.parametrize("start", ["0,1", "3,4", "1"])
def test_start_flag_off_the_lattice_exits_two(tmp_path, capsys, command, start):
    path = write_spec(tmp_path, lazy_two_dim_doc(runs=50))
    code, _, err = run_cli(capsys, [command, path, "--start", start])
    assert code == 2
    body = json.loads(err)
    assert body["field"] == "--start"
    assert "--start" in body["error"]


def test_pgf_eval_beyond_radius_exits_two(tmp_path, capsys):
    path = write_spec(tmp_path, lazy_two_dim_doc())
    code, _, err = run_cli(capsys, ["pgf", path, "--eval", "1.5"])
    assert code == 2
    assert "error" in json.loads(err)


@pytest.mark.parametrize("points", ["", "0.5,", "a"])
def test_pgf_eval_malformed_exits_two(tmp_path, capsys, points):
    path = write_spec(tmp_path, lazy_two_dim_doc())
    code, out, err = run_cli(capsys, ["pgf", path, "--eval", points])
    assert code == 2
    assert out == ""
    assert json.loads(err)["field"] == "--eval"


def test_pgf_solves_each_distinct_point_once(tmp_path, capsys, monkeypatch):
    solves = []

    def counting(q, s=1.0):
        solves.append(s)
        return real(q, s)

    real = pgf.resolvent
    monkeypatch.setattr(pgf, "resolvent", counting)
    path = write_spec(tmp_path, lazy_two_dim_doc())
    code, out, err = run_cli(capsys, ["pgf", path, "--eval", "0.5,.5,1"])
    assert code == 0, err
    assert list(json.loads(out)["values"]) == ["0.5", "1.0"]
    assert solves == [0.5, 1.0]


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("where, field", [
    (("dims", 0, "p", 0), "dims[0]"),
    (("dims", 0, "q", 0), "dims[0]"),
    (("dims", 1, "q", 1), "dims[1]"),
    (("mixing", "coeffs", 0), "mixing"),
], ids=["p1", "q1", "q2", "coeff"])
def test_non_finite_spec_value_exits_two(tmp_path, capsys, where, field,
                                         value):
    doc = lazy_two_dim_doc(mixing={"subsets": [[1], [2]], "coeffs": [0.5, 0.5]})
    *path, last = where
    parent = doc
    for key in path:
        parent = parent[key]
    parent[last] = float(value.replace("Infinity", "inf"))
    spec = write_spec(tmp_path, doc)
    assert value in pathlib.Path(spec).read_text()
    code, out, err = run_cli(capsys, ["win-prob", spec])
    assert code == 2
    assert out == ""
    assert json.loads(err)["field"] == field


@pytest.mark.parametrize("target, pmf", [("win", 1.0), ("lose", 0.0)])
def test_absorb_dist_from_the_win_corner(tmp_path, capsys, target, pmf):
    path = write_spec(tmp_path, lazy_two_dim_doc())
    code, out, _ = run_cli(
        capsys, ["absorb-dist", path, "--start", "3,3", "--target", target]
    )
    assert code == 0
    assert out.splitlines() == ["t,pmf,cdf", f"0,{pmf!r},{pmf!r}"]


@pytest.mark.parametrize("points", ["nan,1.0", "inf", "0.5,-inf"])
def test_pgf_eval_non_finite_exits_two(tmp_path, capsys, points):
    path = write_spec(tmp_path, lazy_two_dim_doc())
    code, out, err = run_cli(capsys, ["pgf", path, "--eval", points])
    assert code == 2
    assert out == ""
    assert "|s| <= 1" in json.loads(err)["error"]


@pytest.mark.parametrize("flag, value", [("--horizon", "-5"), ("--eps", "2"),
                                         ("--eps", "0"), ("--eps", "nan")])
def test_absorb_dist_flags_follow_the_spec_file_rules(tmp_path, capsys, flag,
                                                      value):
    path = write_spec(tmp_path, golden_doc())
    code, out, err = run_cli(capsys, ["absorb-dist", path, flag, value])
    assert code == 2
    assert out == ""
    assert json.loads(err)["field"] == flag


@pytest.mark.parametrize("extra, flags, field", [
    ({"seed": -3}, [], "seed"),
    ({"runs": 0}, [], "runs"),
    ({}, ["--seed", "-1"], "--seed"),
    ({}, ["--runs", "0"], "--runs"),
])
def test_simulate_seed_and_runs_errors_name_fields(tmp_path, capsys, extra,
                                                   flags, field):
    path = write_spec(tmp_path, golden_doc(**extra))
    code, out, err = run_cli(capsys, ["simulate", path, *flags])
    assert code == 2
    assert out == ""
    assert json.loads(err)["field"] == field


def test_simulate_from_the_win_corner(tmp_path, capsys):
    path = write_spec(tmp_path, lazy_two_dim_doc())
    code, out, _ = run_cli(
        capsys, ["simulate", path, "--start", "3,3", "--runs", "10"]
    )
    assert code == 0
    body = json.loads(out)
    assert body["counts_win"] == [10]
    assert (body["n_win"], body["n_lose"], body["n_timeout"]) == (10, 0, 0)


@pytest.mark.parametrize("flags", [[], ["--coupled"]],
                         ids=["plain", "coupled"])
def test_hopeless_simulation_exits_two_at_once(capsys, flags):
    # every rate 1e-13: a run finishes within the 10^6-step cap with
    # probability at most 1.0e-7, so simulate stops before its first draw
    t0 = time.perf_counter()
    code, out, err = run_cli(
        capsys, ["simulate", str(DATA / "slow_game.json"), *flags]
    )
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    assert out == ""
    assert "probability at most 1.000e-07" in json.loads(err)["error"]


def test_pgf_at_one_matches_rho_on_signed_weights(tmp_path, capsys):
    path = write_spec(tmp_path, signed_weights_doc())
    code, out, _ = run_cli(capsys, ["pgf", path, "--start", "6,6"])
    assert code == 0
    body = json.loads(out)
    assert abs(body["values"]["1.0"] - body["rho_at_1"]) <= 1e-12


def test_coupled_with_signed_weights_exits_two(tmp_path, capsys):
    path = write_spec(tmp_path, lazy_two_dim_doc(start=[2, 2], runs=50))
    code, _, err = run_cli(capsys, ["simulate", path, "--coupled"])
    assert code == 2
    assert "signed" in json.loads(err)["error"]


def test_invalid_rates_exit_two(tmp_path, capsys):
    doc = golden_doc()
    doc["dims"][0]["p"] = [0.9, 0.9]
    doc["dims"][0]["q"] = [0.5, 0.5]
    code, _, err = run_cli(capsys, ["win-prob", write_spec(tmp_path, doc)])
    assert code == 2
    assert "dims[0]" in json.loads(err)["field"]


def lattice_doc(d, n, r=1):
    """A valid d-coordinate game of the r-of-d preset with n-state components."""
    rng = np.random.default_rng(70)
    dims = []
    for _ in range(d):
        p = rng.uniform(0.3, 1.0, n - 1)
        q = rng.uniform(0.3, 1.0, n - 1)
        scale = 0.9 / d / (p + q).max()
        dims.append({"N": n, "p": list(p * scale), "q": list(q * scale)})
    return {"version": 1, "dims": dims,
            "mixing": {"preset": {"type": "r_of_d", "r": r}}, "runs": 10}


def past_dense_cap_doc():
    # 57 x 57 = 3,249 lattice states: a dense kernel would hold more than
    # linalg.MAX_ENTRIES = 10^7 entries
    return lattice_doc(2, 57)


def test_win_prob_runs_past_the_dense_cap(tmp_path, capsys):
    path = write_spec(tmp_path, past_dense_cap_doc())
    code, out, _ = run_cli(capsys, ["win-prob", path])
    assert code == 0
    body = json.loads(out)
    assert len(body["rho_solve"]) == 3249
    assert list(body["rho"]) == list(body["rho_solve"])
    assert list(body["rho"])[:2] == ["1,1", "1,2"]
    assert body["method_agreement"] <= 1e-9


def run_both_writers(capsys, monkeypatch, argv):
    """A command's (exit code, stdout, stderr) through ``cli._dumps``, then
    through ``json.dumps(..., indent=2)`` in its place."""
    fast = run_cli(capsys, argv)
    monkeypatch.setattr(cli, "_dumps", functools.partial(json.dumps, indent=2))
    return fast, run_cli(capsys, argv)


@pytest.mark.parametrize("command", ["win-prob", "pgf", "simulate",
                                     "simulate-coupled"])
@pytest.mark.parametrize("spec", SPECS)
def test_flat_reports_print_as_indented_json(capsys, monkeypatch, spec,
                                             command):
    name, *flags = COMMANDS[command]
    fast, reference = run_both_writers(
        capsys, monkeypatch, [name, str(CORPUS / f"{spec}.json"), *flags])
    assert fast == reference


def test_win_prob_prints_a_long_chain_as_indented_json(tmp_path, capsys,
                                                       monkeypatch):
    path = write_spec(tmp_path, lattice_doc(1, 1500))
    fast, reference = run_both_writers(capsys, monkeypatch, ["win-prob", path])
    assert fast[0] == 0
    assert len(json.loads(fast[1])["rho"]) == 1500
    assert fast == reference


@pytest.mark.parametrize("out", [
    {"values": [float("nan"), float("inf"), float("-inf"), -0.0, 5e-324,
                10**30, 1],
     "keys": {"1,1": -0.0, "1,2": float("nan"), "0.5": 5e-324},
     "empty list": [], "empty dict": {}, "flag": False, "none": None,
     "scalar": float("-inf")},
    {"one": [2.5]},
    {},
], ids=["edge-values", "one-item", "empty"])
def test_dumps_is_indented_json(out):
    assert cli._dumps(out) == json.dumps(out, indent=2)


@pytest.mark.parametrize("command", ["verify"])
def test_dense_commands_past_the_cap_exit_two(tmp_path, capsys, command):
    path = write_spec(tmp_path, past_dense_cap_doc())
    code, out, err = run_cli(capsys, [command, path])
    assert code == 2
    assert out == ""
    assert "dense kernel of 3249 states" in json.loads(err)["error"]


def slow_rates_doc():
    """A 9-state d = 2, r = 2 game of two N = 3 components, every rate 1e-5.

    Its power iteration keeps a transient mass of 1.4e-4 after the 10^6-step
    cap, so no absorption-time series converges on it.
    """
    dim = {"N": 3, "p": [1e-5, 1e-5], "q": [1e-5, 1e-5]}
    return {"version": 1, "dims": [dim, dim],
            "mixing": {"preset": {"type": "r_of_d", "r": 2}}}


@pytest.mark.parametrize("doc, start, tol", [
    (link_cliff_doc(), None, 1e-12),
    *[(signed_weights_doc(), start, 1e-12)
      for start in ("2,2", "6,6", "8,8", "15,15")],
    (lattice_doc(2, 50), None, 1e-12),
    (lattice_doc(2, 50, r=2), None, 1e-12),
    (slow_rates_doc(), "1,1", 1e-10),
    (slow_rates_doc(), "2,2", 1e-10),
], ids=["link-cliff", "signed-2,2", "signed-6,6", "signed-8,8",
        "signed-15,15", "N50-r1", "N50-r2", "slow-1,1", "slow-2,2"])
def test_pgf_answers_games_past_the_dual_route(tmp_path, capsys, doc, start,
                                               tol):
    # past the link's precision, with ill-conditioned dual start weights, or
    # with absorption times past the step cap: pgf reads the game's kernel
    argv = ["pgf", write_spec(tmp_path, doc)]
    if start:
        argv += ["--start", start]
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, argv)
    assert time.perf_counter() - t0 < 1.0
    assert code == 0, err
    body = json.loads(out)
    assert abs(body["values"]["1.0"] - body["rho_at_1"]) <= tol


def test_pgf_builds_no_dual(capsys, monkeypatch):
    def refuse(game):
        raise AssertionError("pgf built the pure-birth dual")

    # every module that holds the function, not only its home
    build_dual = intertwine.build_dual
    for name, module in list(sys.modules.items()):
        if (name.startswith("krongambler")
                and getattr(module, "build_dual", None) is build_dual):
            monkeypatch.setattr(module, "build_dual", refuse)
    code, out, err = run_cli(capsys, ["pgf", str(CORPUS / "d3_r2.json")])
    assert code == 0, err
    assert out


@pytest.mark.parametrize("d, n, argv", [
    (2, 57, ["simulate"]),
    (2, 57, ["absorb-dist", "--target", "lose"]),
    # 300 x 300 = 90,000 states
    (2, 300, ["simulate"]),
    # 15^3 = 3,375 states: the sparse LU refuses this game, simulate needs none
    (3, 15, ["simulate"]),
], ids=["simulate", "absorb-dist-lose", "simulate-N300", "simulate-d3-N15"])
def test_sparse_commands_run_past_the_dense_cap(tmp_path, capsys, d, n, argv):
    doc = lattice_doc(d, n)
    code, out, err = run_cli(capsys, [argv[0], write_spec(tmp_path, doc), *argv[1:]])
    assert code == 0, err
    if argv[0] == "simulate":
        body = json.loads(out)
        assert body["runs"] == 10
        assert body["n_win"] + body["n_lose"] + body["n_timeout"] == 10
    else:
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["t", "pmf", "cdf"]
        # ruin takes all the mass that does not win from (1, 1)
        rho = win_prob_product(parse_spec(doc).game)[0]
        assert abs(float(rows[-1][2]) + rho - 1.0) <= 1e-9


@pytest.mark.parametrize("argv", [
    ["win-prob"],
    ["absorb-dist"],
    ["absorb-dist", "--target", "lose"],
    ["pgf"],
    ["simulate"],
    ["simulate", "--coupled"],
], ids=lambda argv: "-".join(a.lstrip("-") for a in argv))
def test_commands_make_no_dense_kernel(capsys, monkeypatch, argv):
    true_toarray = sparse.csr_array.toarray

    def toarray(self, *args, **kwargs):
        rows, cols = self.shape
        if rows == cols > 1:
            raise AssertionError(f"a command made a {rows} x {cols} matrix dense")
        return true_toarray(self, *args, **kwargs)

    monkeypatch.setattr(sparse.csr_array, "toarray", toarray)
    path = str(CORPUS / "d3_r2.json")
    code, out, err = run_cli(capsys, [argv[0], path, *argv[1:]])
    assert code == 0, err
    assert out


ALL_COMMANDS = ["win-prob", "absorb-dist", "pgf", "simulate", "verify"]
OVERSIZED = [
    # 400 x 400: 1,117,600 triplets, above linalg.MAX_TRIPLETS = 10^6
    (2, 400, "1117600 triplets", ALL_COMMANDS),
    # 15^3 = 3,375 states: just past the dense cap, which the sparse LU keeps
    # for games of three or more coordinates
    (3, 15, "3375 states is past the dense cap", ["win-prob", "absorb-dist",
                                                   "pgf"]),
    (3, 15, "a dense kernel of 3375 states", ["verify"]),
    # 50^3 = 125,000 states: three one-coordinate terms of 147 x 50^2
    # triplets and the balancing identity term of 125,000
    (3, 50, "1227500 triplets", ALL_COMMANDS),
]


@pytest.mark.parametrize("d, n, message, command", [
    (d, n, message, command)
    for d, n, message, commands in OVERSIZED for command in commands
])
def test_oversized_games_exit_two(tmp_path, capsys, command, d, n, message):
    path = write_spec(tmp_path, lattice_doc(d, n))
    code, out, err = run_cli(capsys, [command, path])
    assert code == 2
    assert out == ""
    assert message in json.loads(err)["error"]


@pytest.mark.parametrize("command", ["win-prob", "absorb-dist", "pgf"])
def test_lu_commands_refuse_before_the_build(tmp_path, capsys, monkeypatch,
                                             command):
    # 45^3 = 91,125 states: within the triplet cap, so the game would build
    # (in about a second, at 128 MB) before the sparse LU refused it
    def build(game):
        raise AssertionError("the game was built")

    monkeypatch.setattr(cli, "build_game", build)
    path = write_spec(tmp_path, lattice_doc(3, 45))
    code, out, err = run_cli(capsys, [command, path])
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"].startswith(
        "a game of 3 coordinates and 91125 states is past the dense cap")


@pytest.mark.parametrize("d, n, message", [
    # 300 x 300 = 90,000 states and 45^3 = 91,125 states: both within the
    # triplet cap, so the game would build before its dense kernel refused it
    (2, 300, "a dense kernel of 90000 states"),
    (3, 45, "a dense kernel of 91125 states"),
])
def test_verify_refuses_before_the_build(tmp_path, capsys, monkeypatch, d, n,
                                         message):
    def build(game):
        raise AssertionError("the game was built")

    monkeypatch.setattr(verify, "build_game", build)
    path = write_spec(tmp_path, lattice_doc(d, n))
    code, out, err = run_cli(capsys, ["verify", path])
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"].startswith(message)


LINK_CLIFF = re.compile(r"intertwining residual \d\.\d{3}e-0\d in dimension 1 \(N=26\)")


@pytest.mark.parametrize("argv", [["simulate", "--coupled"]],
                         ids=["simulate-coupled"])
def test_link_past_double_precision_exits_two(tmp_path, capsys, argv):
    path = write_spec(tmp_path, link_cliff_doc())
    code, out, err = run_cli(capsys, [argv[0], path, *argv[1:]])
    assert code == 2
    assert out == ""
    assert LINK_CLIFF.fullmatch(json.loads(err)["error"])


def test_verify_reports_link_past_double_precision(tmp_path, capsys):
    path = write_spec(tmp_path, link_cliff_doc())
    code, out, _ = run_cli(capsys, ["verify", path])
    assert code == 1
    failed = [c for c in json.loads(out)["checks"] if not c["pass"]]
    assert [c["name"] for c in failed] == ["dual_link"]
    assert LINK_CLIFF.fullmatch(failed[0]["detail"])

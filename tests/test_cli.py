import csv
import io
import json
import re

import numpy as np
import pytest

from krongambler.cli import main
from krongambler.specfile import SpecFileError, load_spec, parse_spec


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
        (lambda d: d.__setitem__("start", [9]), "start[0]"),
        (lambda d: d["mixing"].__setitem__("coeffs", [0.5]), "mixing"),
        (lambda d: d["mixing"]["subsets"][0].append(7), "mixing.subsets[0]"),
    ],
)
def test_parse_errors_name_fields(mutate, field):
    doc = golden_doc()
    mutate(doc)
    with pytest.raises(SpecFileError) as err:
        parse_spec(doc)
    assert err.value.field == field


def test_malformed_json_exits_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, out, err = run_cli(capsys, ["win-prob", str(path)])
    assert code == 2
    assert "field" in json.loads(err)


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


def test_workers_env_override(tmp_path, capsys, monkeypatch):
    path = write_spec(tmp_path, lazy_two_dim_doc(seed=3, runs=1000))
    monkeypatch.setenv("GAMBLER_WORKERS", "3")
    code, out, _ = run_cli(capsys, ["simulate", path])
    assert code == 0
    assert json.loads(out)["workers"] == 3


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


def test_malformed_start_flag_exits_two(tmp_path, capsys):
    path = write_spec(tmp_path, golden_doc())
    code, _, err = run_cli(capsys, ["pgf", path, "--start", "a,b"])
    assert code == 2
    assert "error" in json.loads(err)


@pytest.mark.parametrize("command", ["absorb-dist", "pgf", "simulate"])
@pytest.mark.parametrize("start", ["0,1", "3,4", "1"])
def test_start_flag_off_the_lattice_exits_two(tmp_path, capsys, command, start):
    path = write_spec(tmp_path, lazy_two_dim_doc(runs=50))
    code, _, err = run_cli(capsys, [command, path, "--start", start])
    assert code == 2
    assert "--start" in json.loads(err)["error"]


def test_pgf_eval_beyond_radius_exits_two(tmp_path, capsys):
    path = write_spec(tmp_path, lazy_two_dim_doc())
    code, _, err = run_cli(capsys, ["pgf", path, "--eval", "1.5"])
    assert code == 2
    assert "error" in json.loads(err)


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


def lattice_doc(d, n):
    """A valid d-coordinate r = 1 game with components of n states."""
    rng = np.random.default_rng(70)
    dims = []
    for _ in range(d):
        p = rng.uniform(0.3, 1.0, n - 1)
        q = rng.uniform(0.3, 1.0, n - 1)
        scale = 0.9 / d / (p + q).max()
        dims.append({"N": n, "p": list(p * scale), "q": list(q * scale)})
    return {"version": 1, "dims": dims,
            "mixing": {"preset": {"type": "r_of_d", "r": 1}}, "runs": 10}


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


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_dense_commands_past_the_cap_exit_two(tmp_path, capsys, command):
    path = write_spec(tmp_path, past_dense_cap_doc())
    code, out, err = run_cli(capsys, [command, path])
    assert code == 2
    assert out == ""
    assert "dense kernel of 3249 states" in json.loads(err)["error"]


@pytest.mark.parametrize("command", ["win-prob", "absorb-dist", "pgf",
                                     "simulate", "verify"])
@pytest.mark.parametrize("d, n, message", [
    # 400 x 400: 1,117,600 triplets, above linalg.MAX_TRIPLETS = 10^6
    (2, 400, "1117600 triplets"),
    # 15^3 = 3,375 states: just past the dense cap
    (3, 15, "3375 states is past the dense cap"),
    # 50^3 = 125,000 states: sparse LU fill-in past 3 GB
    (3, 50, "125000 states is past the dense cap"),
])
def test_oversized_games_exit_two(tmp_path, capsys, command, d, n, message):
    path = write_spec(tmp_path, lattice_doc(d, n))
    code, out, err = run_cli(capsys, [command, path])
    assert code == 2
    assert out == ""
    assert message in json.loads(err)["error"]


def link_cliff_doc():
    """A dual-safe 2-D r = 1 game with a 26-state component.

    The component's spectral link is past double-precision reach: its
    intertwining residual is about 1.7e-5, against a gate of 1e-10.
    """
    rng = np.random.default_rng(70)
    dims = []
    for n in (26, 3):
        p = rng.uniform(0.3, 1.0, n - 1)
        q = rng.uniform(0.3, 1.0, n - 1)
        scale = 0.24 / (p + q).max()
        dims.append({"N": n, "p": list(p * scale), "q": list(q * scale)})
    return {"version": 1, "dims": dims,
            "mixing": {"preset": {"type": "r_of_d", "r": 1}}, "runs": 10}


LINK_CLIFF = re.compile(r"intertwining residual \d\.\d{3}e-0\d in dimension 1 \(N=26\)")


@pytest.mark.parametrize("argv", [["pgf"], ["simulate", "--coupled"]],
                         ids=["pgf", "simulate-coupled"])
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
    assert [c["name"] for c in failed] == ["dual_nonnegative"]
    assert LINK_CLIFF.fullmatch(failed[0]["detail"])

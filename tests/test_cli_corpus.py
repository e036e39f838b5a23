"""CLI stdout on a fixed corpus of spec files, against recorded outputs.

The expected outputs in ``data/cli_corpus/expected.json`` were recorded
before the pure-birth dual and the power iteration were each reduced to a
single construction. Exit codes, line counts and all non-numeric text (JSON
keys, check names, pass flags) must match exactly. Numbers must agree within
1e-12 * max(1, |x|) rather than byte for byte: the Kronecker assembly of the
dual and the pmf read as the exit flow x_{t-1} . exit (once a difference of
cumulative target masses) round a few results differently in the last one or
two bits.

Record the outputs again (only when a change of output is intended) with

    PYTHONPATH=src python tests/test_cli_corpus.py
"""

import contextlib
import io
import json
import math
import pathlib
import re

import pytest

from krongambler.cli import main
from krongambler.specfile import load_spec

CORPUS = pathlib.Path(__file__).parent / "data" / "cli_corpus"
EXPECTED = CORPUS / "expected.json"
SPECS = sorted(p.stem for p in CORPUS.glob("*.json") if p != EXPECTED)
COMMANDS = {
    "win-prob": ["win-prob"],
    "absorb-dist": ["absorb-dist"],
    "absorb-dist-lose": ["absorb-dist", "--target", "lose"],
    "pgf": ["pgf", "--eval", "0.25,0.5,0.9,1.0"],
    "simulate": ["simulate"],
    "simulate-coupled": ["simulate", "--coupled"],
    "verify": ["verify"],
}
NUMBER = re.compile(r"NaN|-?Infinity|-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?")
REL_TOL = 1e-12


def run(spec: str, command: str) -> dict:
    name, *flags = COMMANDS[command]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([name, str(CORPUS / f"{spec}.json"), *flags])
    return {"code": code, "stdout": out.getvalue()}


def close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b or abs(a - b) <= REL_TOL * max(1.0, abs(b))


@pytest.fixture(scope="module")
def expected():
    return json.loads(EXPECTED.read_text())


@pytest.mark.parametrize("command", list(COMMANDS))
@pytest.mark.parametrize("spec", SPECS)
def test_cli_output_matches_recorded(spec, command, expected):
    want = expected[f"{spec} {command}"]
    got = run(spec, command)
    assert got["code"] == want["code"]
    lines_got = got["stdout"].splitlines()
    lines_want = want["stdout"].splitlines()
    assert len(lines_got) == len(lines_want)
    for line_got, line_want in zip(lines_got, lines_want):
        assert NUMBER.sub("#", line_got) == NUMBER.sub("#", line_want)
        nums_got = [float(x) for x in NUMBER.findall(line_got)]
        nums_want = [float(x) for x in NUMBER.findall(line_want)]
        assert all(map(close, nums_got, nums_want)), (line_got, line_want)



@pytest.mark.parametrize("spec", SPECS)
def test_pgf_at_one_is_the_win_prob_solve(spec):
    # both are one sparse LU solve of the game's kernel at its start
    pgf, win = run(spec, "pgf"), run(spec, "win-prob")
    assert pgf["code"] == win["code"] == 0
    start = ",".join(map(str, load_spec(str(CORPUS / f"{spec}.json")).start))
    value = json.loads(pgf["stdout"])["values"]["1.0"]
    assert abs(value - json.loads(win["stdout"])["rho_solve"][start]) <= 1e-15


def refuse_constant(name: str):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("spec", SPECS)
def test_verify_prints_strict_json(spec):
    # an entry that did not run has a null residual, never NaN
    json.loads(run(spec, "verify")["stdout"], parse_constant=refuse_constant)


if __name__ == "__main__":
    record = {f"{s} {c}": run(s, c) for s in SPECS for c in COMMANDS}
    EXPECTED.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

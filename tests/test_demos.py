"""Each demo's stdout against its recorded output, and the README's quick start.

The demos run in-process, so the suite's warning filters apply to them.
Non-numeric text must match exactly and numbers within
1e-12 * max(1, |x|), as in the CLI corpus. Record a demo's output again
(only when a change of output is intended) with

    PYTHONPATH=src python demos/<name>.py > tests/data/demo_output/<name>.txt
"""

import contextlib
import io
import pathlib
import re
import runpy

import pytest

from test_cli_corpus import NUMBER, close

ROOT = pathlib.Path(__file__).parent.parent
RECORDED = pathlib.Path(__file__).parent / "data" / "demo_output"
DEMOS = sorted(p.stem for p in (ROOT / "demos").glob("*.py"))


def test_readme_quick_start_runs():
    # the quick start names only functions the package still has
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def test_every_demo_has_a_recording():
    assert DEMOS == sorted(p.stem for p in RECORDED.glob("*.txt"))


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_output_matches_recorded(demo):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(ROOT / "demos" / f"{demo}.py"), run_name="__main__")
    lines_got = out.getvalue().splitlines()
    lines_want = (RECORDED / f"{demo}.txt").read_text().splitlines()
    assert len(lines_got) == len(lines_want)
    for line_got, line_want in zip(lines_got, lines_want):
        assert NUMBER.sub("#", line_got) == NUMBER.sub("#", line_want)
        nums_got = [float(x) for x in NUMBER.findall(line_got)]
        nums_want = [float(x) for x in NUMBER.findall(line_want)]
        assert all(map(close, nums_got, nums_want)), (line_got, line_want)

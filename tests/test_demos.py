"""Each demo script runs to completion and prints its walkthrough."""

import pathlib
import runpy

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(script, capsys):
    runpy.run_path(str(script), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip()
    # a numpy scalar leaking into a printed value shows as its repr
    assert "np.float64(" not in out and "np.int64(" not in out

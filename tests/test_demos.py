"""Run the desk-scale demos end to end; they import the public API by name."""

import contextlib
import io
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", [
    "01_two_label_family.py",
    "02_parametrized_family.py",
    "03_plain_regime.py",
    "04_graph_lifts.py",
    "05_monte_carlo.py",
])
def test_demo_runs(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert out.getvalue().strip()

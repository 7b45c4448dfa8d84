"""Each script in demos/ runs to the end without raising."""

import contextlib
import io
import pathlib
import runpy

import pytest

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


def test_all_four_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    assert out.getvalue()


def test_symmetric_minor_rows():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS[0].with_name("03_polarization_and_depth.py")), run_name="__main__")
    assert "t=3 n=3: {'dim': 5, 'depth char 0': 4, 'depth char 2': 4}" in out.getvalue()
    assert "t=3 n=4: {'dim': 7, 'depth char 0': 4, 'depth char 2': 4}" in out.getvalue()

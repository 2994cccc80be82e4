"""Every demo script runs to the end: exit 0, writing only under the gitignored demos/out/."""

import pathlib
import subprocess
import sys

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_the_demos_are_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_0(demo, child_env):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=child_env,
                          cwd=demo.parent, timeout=300)
    assert proc.returncode == 0, proc.stderr

import os
import pathlib

import pytest

import hpfnav
from hpfnav.workspace import load_scenario

SCENARIO_DIR = pathlib.Path(__file__).resolve().parent.parent / "scenarios"

_ACCEPTANCE = {}


@pytest.fixture(scope="session")
def scenario_dir():
    return SCENARIO_DIR


@pytest.fixture(scope="session")
def child_env():
    """Environment for a child process that imports the same hpfnav as this one, installed or not."""
    src = str(pathlib.Path(hpfnav.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


@pytest.fixture(scope="session")
def comparison_scenario():
    return load_scenario(SCENARIO_DIR / "comparison.json")


@pytest.fixture(scope="session")
def acceptance():
    """Recorder for the pass/fail summary printed after the run."""

    def record(num, label, ok):
        _ACCEPTANCE[num] = (label, bool(ok))
        return bool(ok)

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_ACCEPTANCE):
        label, ok = _ACCEPTANCE[num]
        terminalreporter.write_line(
            "criterion %2d  %-58s %s" % (num, label, "PASS" if ok else "FAIL")
        )

"""Fuzz tests: a hostile value at any field of a committed scenario, or in
any scenario-override flag, must end in a documented exit code (exit 1 with
the `error:` line), never a traceback.  A hostile scenario also goes through
`run`, under the example deadline, because a run must always end."""

import contextlib
import copy
import io
import itertools
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpfnav import workspace
from hpfnav.cli import main

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

# fixed so that no example can ask for a large grid
HOSTILE = [None, True, -1, 0, 256, -5, 1.5, 1e308, -1e308, "x", [], {}, [1, 2], {"x": 1}]

DOCS = {name: json.loads((SCENARIO_DIR / (name + ".json")).read_text())
        for name in ("open", "comparison", "multi_star")}


def _paths(doc, prefix=()):
    """Every key and list index in a JSON document, nested ones included."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


CASES = [(name, path) for name, doc in DOCS.items() for path in _paths(doc)]


@settings(max_examples=200, deadline=2000, derandomize=True, database=None)
@given(st.sampled_from(CASES), st.sampled_from(HOSTILE))
def test_hostile_field_value_ends_in_exit_0_or_error_line(case, value):
    name, path = case
    doc = copy.deepcopy(DOCS[name])
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        scenario = Path(tmp) / "edited.json"
        scenario.write_text(json.dumps(doc))
        # render exits 0 or 1; run may also end in a timeout (2) or an unreachable target (3)
        for command, codes in (("render", (0, 1)), ("run", (0, 1, 2, 3))):
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main([command, "--scenario", str(scenario), "--out-dir", str(Path(tmp) / "out")])
            assert code in codes, (command, code)
            if code == 1:
                assert err.getvalue().startswith("error: "), err.getvalue()


FLAGS = ["--delay", "--lookahead", "--seed", "--planner"]
# the commands that read each flag, with the exit codes each may end in: render
# exits 0 or 1; run may also end in a timeout (2) or an unreachable target (3)
COMMANDS = {"run": (FLAGS, (0, 1, 2, 3)), "render": (["--planner"], (0, 1))}
HOSTILE_FLAG_VALUES = ["nan", "inf", "-inf", "-1", "0", "1e308", "-1e308", "abc", "", "1.5",
                       "99999999999999999999999", ",", "0,x", "dynamic"]


@pytest.mark.parametrize("flag, value", itertools.product(FLAGS, HOSTILE_FLAG_VALUES))
def test_hostile_flag_value_ends_in_exit_0_or_error_line(tmp_path, flag, value):
    for command, (flags, codes) in COMMANDS.items():
        if flag not in flags:
            continue
        argv = [command, "--scenario", str(SCENARIO_DIR / "open.json"),
                "--out-dir", str(tmp_path / command), flag, value]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:   # argparse rejected the value: a usage exit
                code = exc.code
        assert code in codes, (command, code)
        if code == 1:
            # ours print "error: ...", argparse prints "<prog>: error: ..."
            assert any(line.startswith("error: ") or ": error: " in line
                       for line in err.getvalue().splitlines()), err.getvalue()


@pytest.mark.parametrize("name, width, height", [
    ("open", 100_000, 75_000),      # 7.5e9 cells: the image alone would take 7.5 GB
    ("comparison", 644, 483),       # square pixels, just over the budget
    ("multi_star", 10**300, 15),    # a product no float holds
], ids=["open-7.5e9-cells", "comparison-just-over", "multi_star-1e300-wide"])
def test_a_scene_over_the_cell_budget_ends_in_exit_1_before_it_is_drawn(monkeypatch, tmp_path, name, width, height):
    """open.json at 100000 x 75000 was accepted, and drawing it would have
    allocated a 7.5 GB image; it is refused with the field path instead, and
    the image is never drawn."""
    def refuse(*args, **kwargs):
        raise AssertionError("rasterize reached with a scene over the budget")

    monkeypatch.setattr(workspace, "rasterize", refuse)
    doc = dict(DOCS[name], width=width, height=height)
    scenario = tmp_path / "huge.json"
    scenario.write_text(json.dumps(doc))
    for command in ("render", "run"):
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([command, "--scenario", str(scenario), "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert err.getvalue() == "error: width: width * height is %d cells, above the budget of %d\n" % (
            width * height, workspace.MAX_CELLS)


def test_a_scene_at_the_cell_budget_is_accepted():
    assert workspace.MAX_CELLS == 640 * 480
    workspace.Scenario(width=640, height=480)     # built and checked, not drawn
    with pytest.raises(ValueError, match=r"^width: width \* height is 307680 cells, above the budget of 307200$"):
        workspace.Scenario(width=641, height=480)

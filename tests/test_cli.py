"""Command line tests: exit codes, artifacts, determinism."""

import argparse
import json
import subprocess
import sys

import pytest

from hpfnav import workspace
from hpfnav.cli import EXIT_OK, EXIT_TIMEOUT, EXIT_UNREACHABLE, EXIT_USAGE, build_parser, main


def test_run_reaches_and_writes_artifacts(tmp_path, scenario_dir):
    out = tmp_path / "art"
    code = main(["run", "--scenario", str(scenario_dir / "open.json"), "--out-dir", str(out)])
    assert code == EXIT_OK == 0
    assert (out / "runlog.csv").exists()
    assert (out / "trajectory.svg").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["schema_version"] == 3
    assert summary["outcome"] == "reached"
    assert summary["scenario"]["name"] == "open"
    assert summary["collision"] is False
    head = (out / "runlog.csv").read_text().splitlines()[0]
    assert head.split(",")[:4] == ["t", "x", "y", "theta"]


def test_run_unreachable_exit_code(tmp_path, scenario_dir):
    code = main(["run", "--scenario", str(scenario_dir / "barrier.json"),
                 "--out-dir", str(tmp_path / "b")])
    assert code == EXIT_UNREACHABLE == 3
    summary = json.loads((tmp_path / "b" / "summary.json").read_text())
    assert summary["outcome"] == "unreachable"


def _strict(constant):
    raise ValueError("not JSON: %s" % constant)


def test_summary_is_strict_json(tmp_path, scenario_dir):
    """The barrier run has no error metrics: they are null, not NaN."""
    main(["run", "--scenario", str(scenario_dir / "barrier.json"), "--out-dir", str(tmp_path / "b")])
    summary = json.loads((tmp_path / "b" / "summary.json").read_text(), parse_constant=_strict)
    assert summary["mean_error"] is None and summary["max_error"] is None


def test_run_timeout_exit_code(tmp_path, scenario_dir, capsys):
    # drop every packet so the vehicle can never move
    code = main(["run", "--scenario", str(scenario_dir / "open.json"),
                 "--delay", "2.0", "--out-dir", str(tmp_path / "t")])
    # 2 s constant delay exceeds the 1 s packet deadline: nothing arrives
    assert code == EXIT_TIMEOUT == 2


def test_missing_scenario_file(tmp_path, capsys):
    code = main(["run", "--scenario", str(tmp_path / "nope.json"),
                 "--out-dir", str(tmp_path / "x")])
    assert code == EXIT_USAGE == 1
    assert "error:" in capsys.readouterr().err


def _edited_scenario(tmp_path, scenario_dir, edit):
    doc = json.loads((scenario_dir / "comparison.json").read_text())
    edit(doc)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d.update(hpf={"tolerance": 1e-10, "max_sweeps": None, "eps_flat": 1e-12,
                                 "dilation": 1, "omega_sor": 1.8}), "scenario: unknown field hpf"),
        (lambda d: d.update(ugv={"wheel_radius": 0.05, "track_width": 0.3}), "scenario: unknown field ugv"),
        (lambda d: d["camera"].update(quantize=True), "camera: unknown field quantize"),
        (lambda d: d["vision"].update(radius=6), "vision: unknown field radius"),
        (lambda d: d.update(fm_step=0.5), "scenario: unknown field fm_step"),
    ],
    ids=["hpf", "ugv", "camera.quantize", "vision.radius", "fm_step"],
)
def test_retired_keys_are_rejected(tmp_path, scenario_dir, capsys, edit, message):
    path = _edited_scenario(tmp_path, scenario_dir, edit)
    code = main(["run", "--scenario", str(path), "--out-dir", str(tmp_path / "x")])
    assert code == EXIT_USAGE == 1
    assert "error: " + message in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d.update(start=[1, 2]), "start: expected an object, got [1, 2]"),
        (lambda d: d.update(width="64"), "width: expected an integer, got '64'"),
        (lambda d: d["camera"].update(rate_hz="5"), "camera.rate_hz: expected a number, got '5'"),
        (lambda d: d["shapes"][0].pop("cy"), "shapes[0]: missing field cy"),
        (lambda d: d.update(agents=[{"start": {"x": 1.0, "y": 1.0, "theta": 0.0}}]),
         "agents[0]: missing field target"),
        (lambda d: d.update(shapes={}), "shapes: expected a list, got {}"),
        (lambda d: d.update(seed=1.5), "seed: expected an integer, got 1.5"),
        (lambda d: d.update(background=300), "background: must lie in [0, 255], got 300"),
        (lambda d: d["shapes"][1].update(intensity=-1), "shapes[1].intensity: must lie in [0, 255], got -1"),
        (lambda d: d["vision"].update(sigma=1e308), "vision.sigma: kernel radius ceil(3*sigma)"),
        (lambda d: d["shapes"][0].update(kind=[1, 2]), "shapes[0].kind: must be 'disc' or 'rect'"),
        (lambda d: d["shapes"][0].update(kind={"x": 1}), "shapes[0].kind: must be 'disc' or 'rect'"),
        (lambda d: d["shapes"][0].update(r=-1e308), "shapes[0].r: must be non-negative"),
        (lambda d: d["shapes"][0].update(r=-1), "shapes[0].r: must be non-negative"),
        (lambda d: d["shapes"].append({"kind": "rect", "x0": 10, "y0": 10, "x1": 3, "y1": 3}),
         "shapes[2]: rect (10, 10)-(3, 3) must lie inside the 96x72 image"),
        (lambda d: d["shapes"].append({"kind": "rect", "x0": 90, "y0": 0, "x1": 96, "y1": 5}),
         "shapes[2]: rect (90, 0)-(96, 5) must lie inside the 96x72 image"),
        (lambda d: d["shapes"][1].update(cx=92), "shapes[1]: disc at (92, 22) r=6 must lie inside the 96x72 image"),
        (lambda d: d["vision"].update(zeta=-1.0), "vision.zeta: must be non-negative, got -1.0"),
        (lambda d: d["camera"].update(rate_hz=1e20),
         "timeout_s: timeout_s * camera.rate_hz is 2.4e+22 camera frames, above the budget of 100000"),
        (lambda d: d.update(timeout_s=1e12),
         "timeout_s: timeout_s * camera.rate_hz is 5e+12 camera frames, above the budget of 100000"),
        (lambda d: d["control"].update(beta=-0.001), "control.beta: must be non-negative, got -0.001"),
        (lambda d: d["control"].update(alpha=-0.2), "control.alpha: must be positive, got -0.2"),
        (lambda d: d["control"].update(omega_limit=-2), "control.omega_limit: must be positive, got -2"),
        (lambda d: d["lookahead"].update(delta_l=-3), "lookahead.delta_l: must be at least 1, got -3"),
    ],
    ids=["start-list", "width-string", "rate-string", "disc-no-cy", "agent-no-target",
         "shapes-object", "seed-float", "background-300", "intensity-negative", "sigma-huge",
         "kind-list", "kind-object", "disc-r-huge-negative", "disc-r-negative", "rect-reversed",
         "rect-outside", "disc-outside", "zeta-negative", "frames-rate-huge", "frames-timeout-huge",
         "beta-negative", "alpha-negative", "omega-limit-negative", "delta-l-negative"],
)
def test_wrong_json_types_are_rejected(tmp_path, scenario_dir, capsys, edit, message):
    path = _edited_scenario(tmp_path, scenario_dir, edit)
    code = main(["render", "--scenario", str(path), "--out-dir", str(tmp_path / "x")])
    assert code == EXIT_USAGE == 1
    assert "error: " + message in capsys.readouterr().err


def test_non_finite_camera_rate_is_rejected(tmp_path, scenario_dir, capsys):
    # render never starts the event loop, so this cannot hang if the check is missing
    text = (scenario_dir / "open.json").read_text()
    assert '"rate_hz": 5.0' in text
    path = tmp_path / "nan_rate.json"
    path.write_text(text.replace('"rate_hz": 5.0', '"rate_hz": NaN'))
    code = main(["render", "--scenario", str(path), "--out-dir", str(tmp_path / "x")])
    assert code == EXIT_USAGE == 1
    assert "error: camera.rate_hz: must be finite, got nan" in capsys.readouterr().err.splitlines()


def test_bad_lookahead_value(tmp_path, scenario_dir, capsys):
    code = main(["run", "--scenario", str(scenario_dir / "open.json"),
                 "--lookahead", "soon", "--out-dir", str(tmp_path / "x")])
    assert code == EXIT_USAGE
    assert "lookahead" in capsys.readouterr().err


def test_usage_error_exits_one():
    with pytest.raises(SystemExit) as exc:
        main(["run"])  # --scenario is required
    assert exc.value.code == EXIT_USAGE


def test_run_is_deterministic(tmp_path, scenario_dir):
    args = ["run", "--scenario", str(scenario_dir / "open.json"), "--delay", "0.3", "--seed", "5"]
    assert main(args + ["--out-dir", str(tmp_path / "a")]) == EXIT_OK
    assert main(args + ["--out-dir", str(tmp_path / "b")]) == EXIT_OK
    for name in ("runlog.csv", "trajectory.svg"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_sweep_delay_single_cell(tmp_path, scenario_dir):
    out = tmp_path / "s"
    code = main(["sweep-delay", "--scenario", str(scenario_dir / "open.json"),
                 "--delays", "0.0", "--seeds", "1", "--out-dir", str(out)])
    assert code == EXIT_OK
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "planner,delay,seed,outcome,total_time,mean_err,max_err"
    assert len(lines) == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["median_max_err"]["0.0"] > 0.0


@pytest.mark.parametrize("grid", [["--seeds", "0"], ["--delays", ","]], ids=["no-seeds", "no-delays"])
def test_sweep_delay_rejects_empty_grid(tmp_path, scenario_dir, capsys, grid):
    out = tmp_path / "s"
    code = main(["sweep-delay", "--scenario", str(scenario_dir / "open.json"),
                 "--out-dir", str(out)] + grid)
    assert code == EXIT_USAGE == 1
    assert "error: " in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()


@pytest.mark.parametrize("delays", ["abc", "nan", "inf", "-1", "0.3,x"])
def test_sweep_delay_rejects_bad_delays(tmp_path, scenario_dir, capsys, delays):
    out = tmp_path / "s"
    code = main(["sweep-delay", "--scenario", str(scenario_dir / "open.json"), "--seeds", "1",
                 "--out-dir", str(out), "--delays", delays])
    assert code == EXIT_USAGE == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --delays: ")
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--delay", "nan", "delay.constant_s: must be finite"),
        ("--delay", "inf", "delay.constant_s: must be finite"),
        # the scenario declares the allowed planners; the flag is checked there too
        ("--planner", "x", "planner: must be 'hpf' or 'fm', got 'x'"),
    ],
    ids=["nan", "inf", "planner-x"],
)
def test_non_finite_delay_override_is_rejected(tmp_path, scenario_dir, capsys, flag, value, message):
    out = tmp_path / "r"
    code = main(["run", "--scenario", str(scenario_dir / "open.json"), flag, value,
                 "--out-dir", str(out)])
    assert code == EXIT_USAGE == 1
    assert "error: " + message in capsys.readouterr().err
    assert not out.exists()


def test_compare_lookahead_rows(tmp_path, scenario_dir):
    out = tmp_path / "c"
    code = main(["compare-lookahead", "--scenario", str(scenario_dir / "open.json"),
                 "--values", "1,dynamic", "--out-dir", str(out)])
    assert code == EXIT_OK
    lines = (out / "lookahead.csv").read_text().splitlines()
    assert lines[0].startswith("lookahead,")
    assert len(lines) == 3
    assert lines[1].startswith("1,") and lines[2].startswith("dynamic,")


@pytest.mark.parametrize("planner", ["hpf", "fm"])
def test_compare_lookahead_toward_an_unreachable_target_exits_three(tmp_path, scenario_dir, capsys, planner):
    """Every value runs, as `run` does on the sealed barrier: null errors, exit 3."""
    out = tmp_path / "c"
    code = main(["compare-lookahead", "--scenario", str(scenario_dir / "barrier.json"),
                 "--planner", planner, "--out-dir", str(out)])
    assert code == EXIT_UNREACHABLE == 3
    assert "error" not in capsys.readouterr().err
    lines = (out / "lookahead.csv").read_text().splitlines()
    assert lines[1:] == ["%s,unreachable,0.0,nan,nan" % v for v in ("1", "8", "dynamic")]
    summary = json.loads((out / "summary.json").read_text(), parse_constant=_strict)
    assert summary["scenario"]["planner"] == planner
    assert [(r["outcome"], r["mean_err"], r["max_err"]) for r in summary["rows"]] == [("unreachable", None, None)] * 3


# the optional flags each command reads; --scenario and --out-dir go with every command
TAKES = {
    "run": {"--delay", "--planner", "--lookahead", "--seed"},
    "sweep-delay": {"--planner", "--lookahead", "--delays", "--seeds"},
    "compare-lookahead": {"--delay", "--planner", "--seed", "--values"},
    "multi": {"--delay", "--planner", "--lookahead", "--seed", "--agents", "--awareness"},
    "render": {"--planner"},
}


def test_each_command_takes_only_the_flags_it_reads(tmp_path, capsys):
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    taken = {name: {flag for a in sp._actions for flag in a.option_strings} for name, sp in commands.items()}
    assert taken == {name: flags | {"-h", "--help", "--scenario", "--out-dir"} for name, flags in TAKES.items()}
    assert sum(len(flags) + 2 for flags in TAKES.values()) == 29
    for command, flags in TAKES.items():
        # --delay and --seed must not pass for --delays and --seeds either
        for flag in set().union(*TAKES.values()) - flags:
            with pytest.raises(SystemExit) as exc:
                main([command, "--scenario", "x.json", "--out-dir", str(tmp_path / "x"), flag, "1"])
            assert exc.value.code == EXIT_USAGE
            err = capsys.readouterr().err.splitlines()
            assert err[0].startswith("usage: hpfnav ")
            assert err[-1] == "hpfnav: error: unrecognized arguments: %s 1" % flag
    assert not (tmp_path / "x").exists()


def test_multi_requires_enough_agents(tmp_path, scenario_dir, capsys):
    code = main(["multi", "--scenario", str(scenario_dir / "multi_star.json"),
                 "--agents", "1", "--out-dir", str(tmp_path / "m")])
    assert code == EXIT_USAGE
    assert "agents" in capsys.readouterr().err

    code = main(["multi", "--scenario", str(scenario_dir / "open.json"),
                 "--out-dir", str(tmp_path / "m2")])
    assert code == EXIT_USAGE  # scenario defines no agents


def test_multi_rejects_the_fm_planner(tmp_path, scenario_dir, capsys):
    """Multi-agent runs plan with hpf only, whether fm comes from --planner or from the file."""
    message = "error: planner: run_multi plans with hpf only, got 'fm'"
    code = main(["multi", "--scenario", str(scenario_dir / "multi_star.json"), "--planner", "fm",
                 "--agents", "2", "--out-dir", str(tmp_path / "m")])
    assert code == EXIT_USAGE
    assert message in capsys.readouterr().err
    doc = json.loads((scenario_dir / "multi_star.json").read_text())
    doc["planner"] = "fm"
    path = tmp_path / "fm_star.json"
    path.write_text(json.dumps(doc))
    code = main(["multi", "--scenario", str(path), "--agents", "2", "--out-dir", str(tmp_path / "m2")])
    assert code == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not (tmp_path / "m" / "summary.json").exists() and not (tmp_path / "m2" / "summary.json").exists()


@pytest.mark.parametrize("edit, message", [
    (lambda agents: agents[1].update(target=agents[0]["target"]),
     "error: agents[1].target: agents 0 and 1 share a target cell"),
    (lambda agents: agents[2].update(start=dict(agents[0]["start"], x=agents[0]["start"]["x"] + 0.1)),
     "error: agents[2].start: agents 0 and 2 start overlapping"),
], ids=["shared-target", "overlapping-starts"])
def test_multi_names_the_field_of_conflicting_agents(tmp_path, scenario_dir, capsys, edit, message):
    doc = json.loads((scenario_dir / "multi_star.json").read_text())
    edit(doc["agents"])
    path = tmp_path / "clash.json"
    path.write_text(json.dumps(doc))
    code = main(["multi", "--scenario", str(path), "--out-dir", str(tmp_path / "m")])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.splitlines() == [message]
    assert not (tmp_path / "m").exists()


def test_multi_rasterizes_its_scene_once(tmp_path, scenario_dir, monkeypatch):
    """trajectory.svg is drawn on the image run_multi built, not on a second rasterization."""
    calls = []
    rasterize = workspace.rasterize
    monkeypatch.setattr(workspace, "rasterize", lambda *args: calls.append(args) or rasterize(*args))
    out = tmp_path / "m"
    code = main(["multi", "--scenario", str(scenario_dir / "multi_star.json"), "--agents", "2",
                 "--out-dir", str(out)])
    assert code == EXIT_OK and (out / "trajectory.svg").exists()
    assert len(calls) == 1


def test_render_writes_scene(tmp_path, scenario_dir):
    out = tmp_path / "r"
    code = main(["render", "--scenario", str(scenario_dir / "robust.json"),
                 "--out-dir", str(out)])
    assert code == EXIT_OK
    svg = (out / "scene.svg").read_text()
    assert svg.startswith("<?xml") and "</svg>" in svg


def test_console_script_entry_point(tmp_path, scenario_dir, child_env):
    proc = subprocess.run(
        [sys.executable, "-m", "hpfnav.cli", "run",
         "--scenario", str(scenario_dir / "open.json"),
         "--out-dir", str(tmp_path / "sub")],
        capture_output=True, text=True, env=child_env,
    )
    assert proc.returncode == 0
    assert (tmp_path / "sub" / "summary.json").exists()


_LOADED_BY_IMPORT = """
import importlib, pkgutil, sys
before = set(sys.modules)
import hpfnav
for mod in pkgutil.iter_modules(hpfnav.__path__):
    importlib.import_module("hpfnav." + mod.name)
print(" ".join(sorted({name.partition(".")[0] for name in set(sys.modules) - before})))
"""


def test_package_imports_only_stdlib_and_numpy(child_env):
    # scipy costs 0.25-0.38 s and ~30 MB of peak RSS to import, so src/ stays numpy-only;
    # the package root imports no module, so every module is imported by name
    proc = subprocess.run([sys.executable, "-c", _LOADED_BY_IMPORT],
                          capture_output=True, text=True, env=child_env, check=True)
    loaded = proc.stdout.split()
    assert "hpfnav" in loaded
    assert [m for m in loaded if m not in sys.stdlib_module_names and m not in ("numpy", "hpfnav")] == []

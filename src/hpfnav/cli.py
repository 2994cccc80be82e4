"""Command line front end for runs, sweeps and rendering.

Each command takes --scenario and --out-dir plus only the flags it reads
(`hpfnav <command> -h` lists them), spelled in full; every one of them changes
the output, and summary.json echoes the effective scenario.

Exit codes: 0 run reached the goal (or the command completed), 1 usage or
scenario validation error, 2 run timed out, 3 target unreachable (for
compare-lookahead: from every look-ahead value).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

from . import analysis, netloop, render
from .workspace import LookaheadConfig, Scenario, load_scenario, pixel_to_world

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_TIMEOUT = 2
EXIT_UNREACHABLE = 3

_OUTCOME_EXIT = {"reached": EXIT_OK, "timeout": EXIT_TIMEOUT, "unreachable": EXIT_UNREACHABLE}

SUMMARY_SCHEMA_VERSION = 3


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 on usage errors instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, "%s: error: %s\n" % (self.prog, message))


def _apply_overrides(sc: Scenario, args) -> Scenario:
    if getattr(args, "delay", None) is not None:
        sc = replace(sc, delay=replace(sc.delay, constant_s=args.delay))
    if getattr(args, "planner", None) is not None:
        sc = replace(sc, planner=args.planner)
    if getattr(args, "lookahead", None) is not None:
        sc = replace(sc, lookahead=_parse_lookahead(args.lookahead))
    if getattr(args, "seed", None) is not None:
        sc = replace(sc, seed=args.seed)
    if getattr(args, "awareness", None) is not None:
        sc = replace(sc, awareness=args.awareness)
    return sc


def _parse_lookahead(text: str) -> LookaheadConfig:
    if text == "dynamic":
        return LookaheadConfig(mode="dynamic")
    try:
        return LookaheadConfig(mode="fixed", delta_l=int(text))
    except ValueError:
        raise ValueError("lookahead: expected 'dynamic' or an integer, got %r" % text)


def _parse_delays(text: str) -> list:
    """The --delays list: each entry a finite, non-negative number of seconds."""
    delays = []
    for item in text.split(","):
        if item == "":
            continue
        try:
            d = float(item)
        except ValueError:
            raise ValueError("--delays: %r is not a number" % item) from None
        if not (math.isfinite(d) and d >= 0):
            raise ValueError("--delays: %r must be finite and non-negative" % item)
        delays.append(d)
    return delays


def _metric(x: float):
    """A metric for summary.json: an undefined one (nan) is written as null, which strict JSON reads."""
    return None if math.isnan(x) else x


def _write_summary(out_dir: Path, payload: dict) -> Path:
    payload = {"schema_version": SUMMARY_SCHEMA_VERSION, **payload}
    p = out_dir / "summary.json"
    p.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return p


def _ensure_out(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _prepare(args):
    """The scenario with the command's overrides, the artifact directory, the
    prepared planner state and the ideal path (None when the target is unreachable)."""
    sc = _apply_overrides(load_scenario(args.scenario), args)
    out = _ensure_out(args)
    state = netloop.prepare(sc)
    try:
        ideal = analysis.ideal_path(sc, state)
    except ValueError:
        ideal = None
    return sc, out, state, ideal


def _errors(log: netloop.RunLog, ideal):
    """(per-record series or None, mean, max) of the run's distance to the ideal path; nan without one."""
    if ideal is None or not len(log.records):
        return None, math.nan, math.nan
    es = analysis.distance_error(log, ideal)
    return es.err, es.mean, es.max


def _render_scene(path: Path, sc: Scenario, state: netloop.PlannerState, ideal, trajectories=()) -> None:
    """The scene, the boundary, the field, the ideal path and any trajectories, with start and target marked."""
    tw = pixel_to_world(sc.target, sc.gd, sc.width, sc.height)
    render.render_svg(path, sc, image=state.scene.image, boundary=state.boundary, grad=state.grad, ideal=ideal,
                      trajectories=trajectories, markers=[(sc.start.x, sc.start.y, "start"), (tw[0], tw[1], "target")])


def cmd_run(args) -> int:
    sc, out, state, ideal = _prepare(args)
    log = netloop.run_loop(sc, state)
    dist_err, mean_err, max_err = _errors(log, ideal)
    log.to_csv(out / "runlog.csv", dist_err)
    _render_scene(out / "trajectory.svg", sc, state, ideal, [log.trace[:, 1:3]])
    _write_summary(out, {
        "command": "run",
        "scenario": sc.to_dict(),
        "outcome": log.outcome,
        "total_time": log.total_time,
        "mean_error": _metric(mean_err),
        "max_error": _metric(max_err),
        "collision": log.any_collision,
        "samples": len(log.records),
    })
    print("outcome=%s time=%.2fs records=%d out=%s" % (log.outcome, log.total_time, len(log.records), out))
    return _OUTCOME_EXIT[log.outcome]


def cmd_sweep_delay(args) -> int:
    sc = _apply_overrides(load_scenario(args.scenario), args)
    delays = _parse_delays(args.delays)
    if not delays or args.seeds < 1:
        raise ValueError("sweep-delay: empty grid (--delays %r, --seeds %d)" % (args.delays, args.seeds))
    seeds = list(range(args.seeds))
    out = _ensure_out(args)
    result = analysis.sweep(sc, delays, seeds, planners=(sc.planner,))
    result.to_csv(out / "sweep.csv")
    medians = {repr(d): _metric(result.median_max_err(sc.planner, d)) for d in delays}
    _write_summary(out, {
        "command": "sweep-delay",
        "scenario": sc.to_dict(),
        "delays": delays,
        "seeds": args.seeds,
        "median_max_err": medians,
    })
    for d in delays:
        print("delay=%.2fs median_max_err=%.4fm" % (d, result.median_max_err(sc.planner, d)))
    return EXIT_OK


def cmd_compare_lookahead(args) -> int:
    """Every look-ahead value runs, even toward an unreachable target; that exits 3 when every run ends so."""
    sc, out, state, ideal = _prepare(args)
    rows = []
    for value in args.values.split(","):
        mode = _parse_lookahead(value.strip())
        log = netloop.run_loop(replace(sc, lookahead=mode), state)
        _, mean_err, max_err = _errors(log, ideal)
        rows.append((value.strip(), log.outcome, log.total_time, mean_err, max_err))
    lines = ["lookahead,outcome,total_time,mean_err,max_err"]
    for v, outc, tt, me, mx in rows:
        lines.append("%s,%s,%s,%s,%s" % (v, outc, repr(float(tt)), repr(float(me)), repr(float(mx))))
    (out / "lookahead.csv").write_text("\n".join(lines) + "\n")
    _write_summary(out, {
        "command": "compare-lookahead",
        "scenario": sc.to_dict(),
        "rows": [
            {"lookahead": v, "outcome": outc, "total_time": tt,
             "mean_err": _metric(me), "max_err": _metric(mx)}
            for v, outc, tt, me, mx in rows
        ],
    })
    for v, outc, tt, me, mx in rows:
        print("lookahead=%s outcome=%s time=%.2fs mean_err=%.4fm" % (v, outc, tt, me))
    return EXIT_UNREACHABLE if all(row[1] == "unreachable" for row in rows) else EXIT_OK


def cmd_multi(args) -> int:
    sc = _apply_overrides(load_scenario(args.scenario), args)
    if not sc.agents:
        raise ValueError("scenario has no agents; multi mode needs an agents list")
    if args.agents is not None:
        if not 2 <= args.agents <= len(sc.agents):
            raise ValueError("agents: need 2..%d (one vehicle is a plain run)" % len(sc.agents))
        sc = replace(sc, agents=sc.agents[: args.agents])
    out = _ensure_out(args)
    result = netloop.run_multi(sc)
    for i, log in enumerate(result.agent_logs):
        log.to_csv(out / ("agent_%d.csv" % i))
    dm_lines = ["t,dm"] + ["%s,%s" % (repr(t), repr(v)) for t, v in zip(result.dm_times, result.dm_values)]
    (out / "dm.csv").write_text("\n".join(dm_lines) + "\n")
    markers = []
    for spec in sc.agents:
        tw = pixel_to_world(spec.target, sc.gd, sc.width, sc.height)
        markers.append((spec.start.x, spec.start.y, "start"))
        markers.append((tw[0], tw[1], "target"))
    render.render_svg(
        out / "trajectory.svg",
        sc,
        image=result.scene.image,
        trajectories=[log.trace[:, 1:3] for log in result.agent_logs],
        markers=markers,
    )
    _write_summary(out, {
        "command": "multi",
        "scenario": sc.to_dict(),
        "outcome": result.outcome,
        "total_time": result.total_time,
        "outcomes": [log.outcome for log in result.agent_logs],
        "min_dm": result.min_dm() if result.dm_values else None,
    })
    print("outcome=%s time=%.2fs min_dm=%.3fm out=%s"
          % (result.outcome, result.total_time, result.min_dm(), out))
    return EXIT_OK if result.outcome == "reached" else EXIT_TIMEOUT


def cmd_render(args) -> int:
    sc, out, state, ideal = _prepare(args)
    _render_scene(out / "scene.svg", sc, state, ideal)
    print("wrote %s" % (out / "scene.svg"))
    return EXIT_OK


# one definition per optional flag; each command names the ones it reads
_FLAGS = {
    "--delay": dict(type=float, help="override total constant delay, s"),
    "--planner": dict(help="override planner"),
    "--lookahead": dict(help="'dynamic' or a fixed hop count"),
    "--seed": dict(type=int, help="override run seed"),
    "--delays": dict(default="0,0.1,0.3,0.6,0.9,1.2", help="comma list of delays, s"),
    "--seeds": dict(type=int, default=10, help="seeds per grid point"),
    "--values": dict(default="1,8,dynamic", help="comma list of modes"),
    "--agents": dict(type=int, help="use only the first N agents"),
    "--awareness": dict(help="override awareness"),
}

_COMMANDS = (
    ("run", cmd_run, "single networked run", ("--delay", "--planner", "--lookahead", "--seed")),
    ("sweep-delay", cmd_sweep_delay, "grid of runs over delays and seeds",
     ("--planner", "--lookahead", "--delays", "--seeds")),
    ("compare-lookahead", cmd_compare_lookahead, "same run under different look-ahead modes",
     ("--delay", "--planner", "--seed", "--values")),
    ("multi", cmd_multi, "decentralized multi-agent run",
     ("--delay", "--planner", "--lookahead", "--seed", "--agents", "--awareness")),
    ("render", cmd_render, "render the static scene and field", ("--planner",)),
)


def build_parser() -> _Parser:
    p = _Parser(prog="hpfnav", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    for name, func, summary, flags in _COMMANDS:
        # no abbreviations: `sweep-delay --delay` must not pass for `--delays`
        sp = sub.add_parser(name, help=summary, allow_abbrev=False)
        sp.add_argument("--scenario", required=True, help="scenario JSON file")
        sp.add_argument("--out-dir", default="out", help="artifact directory")
        for flag in flags:
            sp.add_argument(flag, **_FLAGS[flag])
        sp.set_defaults(func=func)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

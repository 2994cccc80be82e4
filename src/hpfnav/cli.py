"""Command line front end for runs, sweeps and rendering.

Exit codes: 0 run reached the goal (or the command completed), 1 usage or
scenario validation error, 2 run timed out, 3 target unreachable.
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


def cmd_run(args) -> int:
    sc = _apply_overrides(load_scenario(args.scenario), args)
    out = _ensure_out(args)
    state = netloop.prepare(sc)
    log = netloop.run_loop(sc, state)

    dist_err = None
    mean_err = max_err = math.nan
    ideal = None
    try:
        ideal = analysis.ideal_path(sc, state)
    except ValueError:
        pass
    if ideal is not None and log.records:
        es = analysis.distance_error(log, ideal)
        dist_err = es.err
        mean_err, max_err = es.mean, es.max

    log.to_csv(out / "runlog.csv", dist_err)
    tw = pixel_to_world(sc.target, sc.gd, sc.width, sc.height)
    render.render_svg(
        out / "trajectory.svg",
        sc,
        image=state.scene.image,
        boundary=state.boundary,
        grad=state.grad,
        ideal=ideal,
        trajectories=[log.trace_array()[:, 1:3]] if log.trace else [],
        markers=[(sc.start.x, sc.start.y, "start"), (tw[0], tw[1], "target")],
    )
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
    sc = _apply_overrides(load_scenario(args.scenario), args)
    out = _ensure_out(args)
    rows = []
    state = netloop.prepare(sc)
    ideal = analysis.ideal_path(sc, state)
    for value in args.values.split(","):
        mode = _parse_lookahead(value.strip())
        sc_i = replace(sc, lookahead=mode)
        log = netloop.run_loop(sc_i, state)
        es = analysis.distance_error(log, ideal)
        rows.append((value.strip(), log.outcome, log.total_time, es.mean, es.max))
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
    return EXIT_OK


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
        image=sc.build_image(),
        trajectories=[log.trace_array()[:, 1:3] for log in result.agent_logs],
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
    sc = _apply_overrides(load_scenario(args.scenario), args)
    out = _ensure_out(args)
    state = netloop.prepare(sc)
    ideal = None
    try:
        ideal = analysis.ideal_path(sc, state)
    except ValueError:
        pass
    tw = pixel_to_world(sc.target, sc.gd, sc.width, sc.height)
    render.render_svg(
        out / "scene.svg",
        sc,
        image=state.scene.image,
        boundary=state.boundary,
        grad=state.grad,
        ideal=ideal,
        markers=[(sc.start.x, sc.start.y, "start"), (tw[0], tw[1], "target")],
    )
    print("wrote %s" % (out / "scene.svg"))
    return EXIT_OK


def build_parser() -> _Parser:
    p = _Parser(prog="hpfnav", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, seeds=False, agents=False):
        sp.add_argument("--scenario", required=True, help="scenario JSON file")
        sp.add_argument("--delay", type=float, help="override total constant delay, s")
        sp.add_argument("--planner", help="override planner")
        sp.add_argument("--lookahead", help="'dynamic' or a fixed hop count")
        sp.add_argument("--seed", type=int, help="override run seed")
        sp.add_argument("--out-dir", default="out", help="artifact directory")
        if seeds:
            sp.add_argument("--seeds", type=int, default=10, help="seeds per grid point")
        if agents:
            sp.add_argument("--agents", type=int, help="use only the first N agents")
            sp.add_argument("--awareness", help="override awareness")

    sp = sub.add_parser("run", help="single networked run")
    common(sp)
    sp.set_defaults(func=cmd_run)

    sp = sub.add_parser("sweep-delay", help="grid of runs over delays and seeds")
    common(sp, seeds=True)
    sp.add_argument("--delays", default="0,0.1,0.3,0.6,0.9,1.2", help="comma list of delays, s")
    sp.set_defaults(func=cmd_sweep_delay)

    sp = sub.add_parser("compare-lookahead", help="same run under different look-ahead modes")
    common(sp)
    sp.add_argument("--values", default="1,8,dynamic", help="comma list of modes")
    sp.set_defaults(func=cmd_compare_lookahead)

    sp = sub.add_parser("multi", help="decentralized multi-agent run")
    common(sp, agents=True)
    sp.set_defaults(func=cmd_multi)

    sp = sub.add_parser("render", help="render the static scene and field")
    common(sp)
    sp.set_defaults(func=cmd_render)
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

"""Replay digests: SHA-256 of hpfnav's deterministic outputs on a fixed case list.

    python3 tools/digest.py            # write DIGESTS.json at the repo root
    python3 tools/digest.py --check    # same/differs per entry; exit 1 on any difference
    python3 tools/digest.py --check run/comparison sweep   # only the cases under these names

The cases:

- ``scenario/<name>``: ``to_dict`` of every committed scenario;
- ``scene/<name>``: ``build_scene``'s obstacle mask and edge cells on every
  committed scenario;
- ``fm_arrival/<name>``: the arrival-time array on each single-vehicle boundary;
- ``field/<name>``: the hpf potential of each single-vehicle scenario, as
  ``prepare`` solves it: the bytes of phi, the iteration count and the residual;
  ``field/fullres-vga`` is the same for fullres with its scene doubled to
  640 x 480, so the two-level solve of ``hpf.relax`` is pinned at a second size;
- ``grad/<name>``: the hpf gradient of each single-vehicle scenario, as
  ``prepare`` takes it: the bytes of vx, vy and flat;
- ``run/<name>/<planner>/<channel>/seed<k>``: ``run_loop`` for both planners on
  the six single-vehicle scenarios, over four channels and two seeds;
- ``sweep/comparison``: the ``analysis.sweep`` rows on comparison;
- ``multi/<awareness>``: ``run_multi(multi_star)`` with ``all`` and ``nearest``,
  with the number of ``hpf.relax`` calls the run makes (``solves``);
- ``cli/<command>/<scenario>``: every artifact file one ``hpfnav`` command
  writes, plus its exit code: ``run`` and ``render`` on the six single-vehicle
  scenarios, ``sweep-delay`` and ``compare-lookahead`` on comparison, and
  ``multi --agents 2`` on multi_star.

A run is hashed as four entries, so a diff tells what moved: ``trace`` (the
shape and bytes of the (N, 6) trace array, every row of it), ``csv`` (the
runlog, collision column included), ``outcome`` (outcome and total time) and
``collision`` (``any_collision``).

The hashes depend on libm and the numpy build, so DIGESTS.json pins one
machine; replay on any machine is what acceptance criterion 12 checks.  A
change that keeps output runs ``--check``.  A change that moves output on
purpose rewrites the file, and the diff of DIGESTS.json shows which entries
moved.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from hpfnav import analysis, cli, fm, hpf, netloop  # noqa: E402
from hpfnav.workspace import DelayConfig, Disc, load_scenario  # noqa: E402

SCENARIOS = ROOT / "scenarios"
DIGESTS = ROOT / "DIGESTS.json"

SINGLE = ("barrier", "comparison", "fullres", "open", "reversal", "robust")
PLANNERS = ("hpf", "fm")
CHANNELS = {
    "ideal": DelayConfig(),
    "delay0.6": DelayConfig(constant_s=0.6),
    "delay0.8": DelayConfig(constant_s=0.8),   # 0.4 s each way: a packet lands on a 5 Hz frame time
    "lossy": DelayConfig(constant_s=0.3, jitter_s=0.1, drop_prob=0.1),
}
RUN_SEEDS = (0, 1)
SWEEP_DELAYS = (0.0, 0.3, 0.6, 0.9)
SWEEP_SEEDS = (0, 1)
AWARENESS = ("all", "nearest")
# command -> (scenarios, extra arguments) for the cli/ cases
COMMANDS = {
    "run": (SINGLE, ()),
    "render": (SINGLE, ()),
    "sweep-delay": (("comparison",), ()),
    "compare-lookahead": (("comparison",), ()),
    "multi": (("multi_star",), ("--agents", "2")),
}


@functools.cache
def scenario(name: str):
    return load_scenario(SCENARIOS / (name + ".json"))


@functools.cache
def prepared(name: str, planner: str):
    return netloop.prepare(replace(scenario(name), planner=planner))


def _log_entries(prefix: str, log: netloop.RunLog) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "runlog.csv"
        log.to_csv(path)
        csv = path.read_bytes()
    return {prefix + "/trace": repr(log.trace.shape).encode() + log.trace.tobytes(),
            prefix + "/csv": csv,
            prefix + "/outcome": repr((log.outcome, log.total_time)).encode(),
            prefix + "/collision": repr(log.any_collision).encode()}


def _scenario(name: str) -> dict:
    return {"scenario/" + name: json.dumps(scenario(name).to_dict(), sort_keys=True).encode()}


def _scene(name: str) -> dict:
    scene = netloop.build_scene(scenario(name))
    return {"scene/" + name: scene.obstacle.tobytes() + scene.edges.tobytes()}


def _arrival(name: str) -> dict:
    return {"fm_arrival/" + name: fm.fm_arrival(prepared(name, "fm").boundary).tobytes()}


def _field(name: str) -> dict:
    pot = prepared(name, "hpf").potential
    return {"field/" + name: pot.phi.tobytes() + repr((pot.sweeps, pot.residual)).encode()}


def _field_vga() -> dict:
    sc = scenario("fullres")
    shapes = [replace(s, cx=2 * s.cx, cy=2 * s.cy, r=2 * s.r) if isinstance(s, Disc)
              else replace(s, x0=2 * s.x0, y0=2 * s.y0, x1=2 * s.x1, y1=2 * s.y1) for s in sc.shapes]
    tx, ty = sc.target
    vga = replace(sc, width=2 * sc.width, height=2 * sc.height, shapes=shapes, target=(2 * tx, 2 * ty))
    pot = netloop.prepare(vga).potential
    return {"field/fullres-vga": pot.phi.tobytes() + repr((pot.sweeps, pot.residual)).encode()}


def _grad(name: str) -> dict:
    grad = prepared(name, "hpf").grad
    return {"grad/" + name: grad.vx.tobytes() + grad.vy.tobytes() + grad.flat.tobytes()}


def _run(name: str, planner: str, channel: str, seed: int) -> dict:
    sc = replace(scenario(name), planner=planner, delay=CHANNELS[channel], seed=seed)
    log = netloop.run_loop(sc, prepared(name, planner))
    return _log_entries("run/%s/%s/%s/seed%d" % (name, planner, channel, seed), log)


def _sweep() -> dict:
    result = analysis.sweep(scenario("comparison"), SWEEP_DELAYS, SWEEP_SEEDS, PLANNERS)
    return {"sweep/comparison": repr([dataclasses.astuple(r) for r in result.rows]).encode()}


def _multi(awareness: str) -> dict:
    solve, solves = hpf.relax, []

    def counted(*args, **kwargs):
        solves.append(None)
        return solve(*args, **kwargs)

    hpf.relax = counted
    try:
        log = netloop.run_multi(replace(scenario("multi_star"), awareness=awareness))
    finally:
        hpf.relax = solve
    prefix = "multi/" + awareness
    out = {prefix + "/dm": repr((log.dm_times, log.dm_values, log.outcome, log.total_time)).encode(),
           prefix + "/solves": repr(len(solves)).encode()}
    for i, agent in enumerate(log.agent_logs):
        out.update(_log_entries("%s/agent%d" % (prefix, i), agent))
    return out


def _cli(command: str, name: str) -> dict:
    prefix = "cli/%s/%s" % (command, name)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        argv = [command, "--scenario", str(SCENARIOS / (name + ".json")), "--out-dir", str(out),
                *COMMANDS[command][1]]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        entries = {prefix + "/exit": repr(code).encode()}
        entries.update((prefix + "/" + p.name, p.read_bytes()) for p in sorted(out.iterdir()))
    return entries


def cases() -> dict:
    """Case name -> thunk returning {entry name: bytes}; every entry name starts with its case's."""
    committed = [p.stem for p in sorted(SCENARIOS.glob("*.json"))]
    table = {"scenario/" + name: functools.partial(_scenario, name) for name in committed}
    table.update(("scene/" + name, functools.partial(_scene, name)) for name in committed)
    for name in SINGLE:
        table["fm_arrival/" + name] = functools.partial(_arrival, name)
        table["field/" + name] = functools.partial(_field, name)
        table["grad/" + name] = functools.partial(_grad, name)
    table["field/fullres-vga"] = _field_vga
    for name in SINGLE:
        for planner in PLANNERS:
            for channel in CHANNELS:
                for seed in RUN_SEEDS:
                    key = "run/%s/%s/%s/seed%d" % (name, planner, channel, seed)
                    table[key] = functools.partial(_run, name, planner, channel, seed)
    table["sweep/comparison"] = _sweep
    for awareness in AWARENESS:
        table["multi/" + awareness] = functools.partial(_multi, awareness)
    for command, (names, _) in COMMANDS.items():
        for name in names:
            table["cli/%s/%s" % (command, name)] = functools.partial(_cli, command, name)
    return table


def _under(name: str, prefix: str) -> bool:
    """Whether a case or entry name is the prefix or lies under it ("run/open" covers "run/open/hpf")."""
    return name == prefix or name.startswith(prefix.rstrip("/") + "/")


def compute(names=None) -> dict:
    """{entry name: SHA-256 hex} for the named cases (default: all of them)."""
    table = cases()
    digests = {}
    for name in table if names is None else names:
        for entry, data in table[name]().items():
            digests[entry] = hashlib.sha256(data).hexdigest()
    return digests


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", nargs="*", metavar="CASE",
                    help="compare with DIGESTS.json instead of writing it, only the cases named or "
                         "under the given prefixes if any; exit 1 on any difference")
    args = ap.parse_args(argv)
    if args.check is None:
        digests = compute()
        DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
        print("wrote %d digests to %s" % (len(digests), DIGESTS))
        return 0
    names = None
    if args.check:
        table = cases()
        missing = [p for p in args.check if not any(_under(name, p) for name in table)]
        if missing:
            ap.error("no case named or under: %s" % ", ".join(missing))
        names = [name for name in table if any(_under(name, p) for p in args.check)]
    digests = compute(names)
    committed = json.loads(DIGESTS.read_text())
    if names is not None:
        committed = {e: h for e, h in committed.items() if any(_under(e, name) for name in names)}
    moved = 0
    for entry in sorted(set(committed) | set(digests)):
        same = committed.get(entry) == digests.get(entry)
        moved += not same
        print("%-7s %s" % ("same" if same else "differs", entry))
    print("%d of %d entries differ" % (moved, len(set(committed) | set(digests))))
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())

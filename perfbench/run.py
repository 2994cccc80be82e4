"""Benchmark entry point: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload sweep-comparison --seed 1 --seconds 32 --trace 0

Every iteration runs in a fresh process (perfbench/worker.py), one after the
other.  With ``--trace 0`` the run first starts a few processes that only
set up, for more ``setup_s`` samples, then makes iterations until
``--seconds`` have passed, and reports the median of each end-to-end
metric.  With ``--trace 1`` the run makes one untraced and two traced
iterations and reports the per-layer metrics, the tracing overhead, and
whether the deterministic counts of the two traced iterations agree.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  The
metric names and units come from BENCHMARK.json at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep-comparison", "multi-star", "plan-fullres")
TRACED_ITERATIONS = 2    # the counts of two traced iterations must agree
SETUP_ONLY = 5           # set-up-only processes before the untraced iterations
BUDGET_S = 170.0         # a run must end within 180 s
# Deterministic counts measured on the seed commit; a solver change moves them.
BASELINE = {
    "plan-fullres": {"hpf.relax.sweeps": 3466},
    "multi-star": {"hpf.relax.calls": 694, "hpf.relax.unconverged": 192},
}
# Printed with the end-to-end metrics on plan-fullres only, so they cannot be
# in BENCHMARK.json, which asks for every metric on every workload.  wall_s
# of plan-fullres carries the planning cost.
UNGATED = [{"name": "plan_hpf_s", "unit": "s", "better": "lower"},
           {"name": "plan_fm_s", "unit": "s", "better": "lower"}]
# Single-threaded numerics: each iteration uses one core.
CHILD_ENV = {"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1",
             "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def spawn(workload: str, seed: int, mode: str, deadline: float) -> dict:
    """Run one worker process to completion and return its report."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget spent before a %s iteration" % mode)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    try:
        proc = subprocess.run(cmd + ["--t0", repr(time.monotonic())], cwd=ROOT,
                              env=dict(os.environ, **CHILD_ENV), capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError("%s iteration did not end within the time budget" % mode) from exc
    if proc.returncode != 0:
        raise BenchError("%s iteration exited with %d:\n%s" % (mode, proc.returncode, proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit(root: Path) -> str:
    """HEAD commit read from .git, or "unknown" outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "absent"

    return {"nproc": os.cpu_count(), "cpu": cpu_model(), "python": sys.version.split()[0],
            "numpy": version("numpy"), "scipy": version("scipy"),
            "commit": git_commit(ROOT), "seed": seed}


def merged(reports: list, key: str) -> dict:
    """Sum the [failed, total] tallies of one kind over the reports."""
    out = {}
    for r in reports:
        for name, (failed, total) in r[key].items():
            tally = out.setdefault(name, [0, 0])
            tally[0] += failed
            tally[1] += total
    return out


def end_to_end(setups: list, iterations: list) -> tuple[dict, dict]:
    """Median of each end-to-end metric, and the sample count behind it."""
    samples = {
        "setup_s": [r["setup_s"] for r in setups + iterations],
        "wall_s": [it["wall_s"] for it in iterations],
        "sim_rate": [it["sim_s"] / it["wall_s"] for it in iterations],
    }
    for key in ("peak_rss_mb", "max_err_m_p50", "min_dm_m"):
        samples[key] = [it[key] for it in iterations]
    for key in ("plan_hpf_s", "plan_fm_s"):
        if iterations[0][key] is not None:
            samples[key] = [it[key] for it in iterations]
    return ({k: statistics.median(v) for k, v in samples.items()},
            {k: len(v) for k, v in samples.items()})


def layers(plain: list, traced: list) -> tuple[dict, dict]:
    """Median of each per-layer metric over the traced iterations, plus the overhead."""
    values = {name: statistics.median(it["layers"][name] for it in traced)
              for name in traced[0]["layers"]}
    values["trace.overhead_s"] = (statistics.median(it["wall_s"] for it in traced)
                                  - statistics.median(it["wall_s"] for it in plain))
    return values, {name: len(traced) for name in values}


def iterate(args) -> tuple[list, list, list]:
    """Reports of the set-up-only, untraced and traced processes of one run."""
    deadline = time.monotonic() + BUDGET_S

    def run(mode):
        return spawn(args.workload, args.seed, mode, deadline)

    if args.trace:
        return [], [run("plain")], [run("traced") for _ in range(TRACED_ITERATIONS)]
    setups = [run("setup") for _ in range(SETUP_ONLY)]
    plain, start = [], time.monotonic()
    while not plain or time.monotonic() - start < args.seconds:
        plain.append(run("plain"))
    return setups, plain, []


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="hpfnav benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "hpfnav" / "__init__.py").is_file():
        print("no hpfnav sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # a terminated run still kills and waits for the worker it is running
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        setups, plain, traced = iterate(args)
    except BenchError as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 1
    iterations = plain + traced

    print("# workload %s seed %d trace %d: %d set-up-only processes, %d untraced and"
          " %d traced iterations" % (args.workload, args.seed, args.trace, len(setups),
                                     len(plain), len(traced)))
    print("# env %s" % json.dumps(environment(args.seed)))
    outcomes, checks = merged(iterations, "outcomes"), merged(iterations, "checks")
    for name, (failed, attempted) in outcomes.items():
        print("outcome %s: %d of %d failed" % (name, failed, attempted))
    for name, (failed, made) in checks.items():
        print("check %s: %d of %d failed" % (name, failed, made))
    print("info pad_contacts: %d runs or agents entered the planner's padded obstacle cells"
          % sum(it["pad_contacts"] for it in iterations))
    failed = sum(f for f, _ in outcomes.values())
    attempted = sum(a for _, a in outcomes.values())
    correct = not any(f for f, _ in checks.values())

    if args.trace:
        same = all(it["counts"] == traced[0]["counts"] for it in traced)
        print("check trace.counts_repeat: %s" % ("counts agree" if same else "COUNTS DIFFER"))
        correct = correct and same
        values, samples = layers(plain, traced)
        for name, expected in BASELINE.get(args.workload, {}).items():
            got = values[name]
            print("baseline %s = %d, seed commit measured %d: %s"
                  % (name, got, expected, "same" if got == expected else "differs"))
        wanted = spec["per_layer"]
    else:
        values, samples = end_to_end(setups, plain)
        wanted = spec["end_to_end"]

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for m in wanted + [m for m in UNGATED if m["name"] in values]:
        v = values[m["name"]]
        layer, stat = m["name"].rsplit(".", 1) if "." in m["name"] else ("", "")
        basis = "median of %d" % samples[m["name"]]
        if stat[:1] == "p" and stat[1:3].isdigit():
            basis = "over %d calls, %s" % (values[layer + ".calls"], basis)
        if m in UNGATED:
            basis += ", not gated"
        print("%s %.6g %s (%s is better, %s)" % (m["name"], v, m["unit"], m["better"], basis))
    print("fail_frac %.6g ratio (%d of %d runs, agents and plans failed)"
          % (failed / attempted, failed, attempted))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

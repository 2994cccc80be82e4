"""Paired benchmark runs of two checkouts, judged by the rule for claiming a gain.

    python3 tools/pairs.py --parent DIR --change DIR --workload sweep-comparison --pairs 10

Each pair runs ``python3 perfbench/run.py --workload W --seed S --seconds N
--trace 0`` once in each checkout, with the same seed; pair i uses seed
``--seed + i``, and the checkout that runs first alternates from pair to
pair.  ``--seconds`` defaults to ``run_seconds`` of BENCHMARK.json.  The
runs are sequential, and byte-code writing is off in them, so nothing is
written into either checkout.

For every end-to-end metric of BENCHMARK.json the script prints each
side's median and quartiles, how many pairs the change won (ties count for
neither side), and whether a gain may be claimed: the change wins at least
nine tenths of the pairs, and its median is better than the parent's by
more than the parent's interquartile distance.  The last line of standard
output is one JSON object with the same figures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WIN_SHARE = 0.9


def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method; one value is all three."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def wins(parent, change, better: str) -> int:
    """Pairs in which the change is strictly better; ties count for neither side."""
    sign = 1.0 if better == "higher" else -1.0
    return sum(sign * (c - p) > 0 for p, c in zip(parent, change, strict=True))


def judge(parent, change, better: str) -> dict:
    """Both sides' quartiles, the wins, and whether the rule for claiming a gain is met."""
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    won = wins(parent, change, better)
    gain = (cm - pm) if better == "higher" else (pm - cm)
    return {"parent": [p1, pm, p3], "change": [c1, cm, c3], "wins": won, "pairs": len(parent),
            "gain": gain, "parent_iqr": p3 - p1,
            "claim": won >= math.ceil(WIN_SHARE * len(parent)) and gain > p3 - p1}


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in a checkout: its final JSON line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True,
                          env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    ap.add_argument("--seconds", type=float, help="run length (default: run_seconds of BENCHMARK.json)")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    sides = {"parent": args.parent, "change": args.change}
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            report = run_once(sides[side], args.workload, args.seed + i, seconds)
            runs[side].append(report)
            print("pair %d seed %d %-6s correct=%s failed=%d of %d" % (
                i, args.seed + i, side, report["correct"], report["failed"], report["attempted"]), flush=True)
    results = {}
    for m in spec["end_to_end"]:
        name = m["name"]
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
        res = results[name] = dict(judge(values["parent"], values["change"], m["better"]), runs=values)
        print("%-14s parent %.6g [%.6g, %.6g]  change %.6g [%.6g, %.6g] %s  wins %d of %d  claim %s" % (
            name, res["parent"][1], res["parent"][0], res["parent"][2], res["change"][1], res["change"][0],
            res["change"][2], m["unit"], res["wins"], res["pairs"], "met" if res["claim"] else "not met"))
    print(json.dumps({"workload": args.workload, "pairs": args.pairs, "seconds": seconds,
                      "correct": all(r["correct"] for side in runs.values() for r in side),
                      "failed": {side: sum(r["failed"] for r in reps) for side, reps in runs.items()},
                      "metrics": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

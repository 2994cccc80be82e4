"""One benchmark iteration in a fresh process; prints one JSON object.

    python3 perfbench/worker.py --workload NAME --seed N --mode setup|plain|traced --t0 T

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process, so ``setup_s`` covers interpreter start, importing hpfnav and
loading the scenarios.  After set-up, ``setup`` stops, ``plain`` runs the
body untraced, and ``traced`` runs it with every layer hook installed.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "plain", "traced"), required=True)
    ap.add_argument("--t0", type=float, required=True)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import hpfnav
    import spans
    import workloads

    if not Path(hpfnav.__file__).resolve().is_relative_to(ROOT / "src"):
        print("hpfnav imported from %s, not from this checkout" % hpfnav.__file__, file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]()
    wl.load(args.seed)
    setup_s = time.monotonic() - args.t0
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = spans.Tracer()
    hooks = spans.layer_hooks() if args.mode == "traced" else []
    with spans.installed(tracer, hooks):
        out, wall_s = workloads.timed(wl.body)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = wl.measure(out, wall_s)
    report = asdict(result)
    report.update(setup_s=setup_s, peak_rss_mb=peak_rss_mb)
    if args.mode == "traced":
        names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
        report["layers"] = {n: spans.layer_metric(tracer.stats, n)
                            for n in names if not n.startswith("trace.")}
        report["counts"] = {name: [st.calls, st.extra] for name, st in sorted(tracer.stats.items())}
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

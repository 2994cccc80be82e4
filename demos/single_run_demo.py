"""One closed-loop run with a configurable network delay.

Usage: python single_run_demo.py [delay_seconds]
"""

import dataclasses
import pathlib
import sys

from hpfnav import analysis, netloop
from hpfnav.render import render_svg
from hpfnav.workspace import load_scenario

OUT = pathlib.Path(__file__).parent / "out"


def main(delay: float = 0.3):
    sc = load_scenario(pathlib.Path(__file__).parents[1] / "scenarios" / "comparison.json")
    sc = dataclasses.replace(sc, delay=dataclasses.replace(sc.delay, constant_s=delay))

    state = netloop.prepare(sc)
    log = netloop.run_loop(sc, state)
    ideal = analysis.ideal_path(sc, state)
    es = analysis.distance_error(log, ideal)

    print("delay %.2fs -> %s in %.1fs (sim time)" % (delay, log.outcome, log.total_time))
    print("controller samples: %d" % len(log.records))
    print("distance error: mean %.4f m, max %.4f m" % (es.mean, es.max))
    print("collisions: %s" % ("yes" if log.any_collision else "none"))

    OUT.mkdir(exist_ok=True)
    log.to_csv(OUT / "runlog.csv", dist_err=es.err)
    render_svg(OUT / "trajectory.svg", sc, image=state.scene.image, boundary=state.boundary,
               ideal=ideal, trajectories=[log.trace[:, 1:3]],
               markers=[(sc.start.x, sc.start.y, "start"),
                        ((sc.target[0] + 0.5) * sc.gd, (sc.target[1] + 0.5) * sc.gd, "target")])
    print("wrote %s and %s" % (OUT / "runlog.csv", OUT / "trajectory.svg"))


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 0.3)

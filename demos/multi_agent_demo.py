"""Five vehicles trade places across a circle, avoiding each other.

Runs the decentralized loop twice: once with every agent aware of all the
others, once with awareness limited to the nearest neighbor.
"""

import dataclasses
import pathlib

from hpfnav import netloop
from hpfnav.render import render_svg
from hpfnav.workspace import load_scenario

OUT = pathlib.Path(__file__).parent / "out"


def main():
    sc = load_scenario(pathlib.Path(__file__).parents[1] / "scenarios" / "multi_star.json")
    OUT.mkdir(exist_ok=True)
    for mode in ("all", "nearest"):
        run_sc = dataclasses.replace(sc, awareness=mode)
        log = netloop.run_multi(run_sc)
        print("awareness=%s: %s in %.1fs, closest approach %.3f m"
              % (mode, log.outcome, log.total_time, log.min_dm()))
        for i, alog in enumerate(log.agent_logs):
            print("  agent %d: %s at %.1fs" % (i, alog.outcome, alog.total_time))
        name = OUT / ("star_%s.svg" % mode)
        render_svg(name, run_sc, image=log.scene.image,
                   trajectories=[a.trace[:, 1:3] for a in log.agent_logs],
                   markers=[(a.start.x, a.start.y, "start") for a in run_sc.agents])
        print("  wrote %s" % name)


if __name__ == "__main__":
    main()

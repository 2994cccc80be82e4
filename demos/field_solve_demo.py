"""Solve the guidance potential for a scene and render descent directions.

Prints solver diagnostics and drops an SVG with the obstacle boundary, the gradient arrows and
the descent path from the start.  The solver eliminates the red cells of the checkerboard and runs
conjugate gradients on the black cells only, so its iteration count is that of the reduced system.
"""

import pathlib

import numpy as np

from hpfnav import hpf, netloop
from hpfnav.render import render_svg
from hpfnav.workspace import load_scenario

OUT = pathlib.Path(__file__).parent / "out"


def main():
    sc = load_scenario(pathlib.Path(__file__).parents[1] / "scenarios" / "comparison.json")
    state = netloop.prepare(sc)
    pot = state.potential
    free = state.boundary.labels == hpf.FREE
    print("grid %dx%d, %d free cells, %d conjugate-gradient iterations on the black-cell reduced"
          " system, residual %.2e, converged=%s"
          % (sc.width, sc.height, free.sum(), pot.sweeps, pot.residual, pot.converged))

    print("potential range on free cells: [%.3e, %.3f]"
          % (pot.phi[free].min(), pot.phi[free].max()))

    start_cell = (int(sc.start.x / sc.gd), int(sc.start.y / sc.gd))
    points, reason = hpf.descend(state.grad, start_cell)
    print("descent from start: %d hops, ended %s" % (len(points) - 1, reason))

    OUT.mkdir(exist_ok=True)
    ideal = np.asarray(points) * sc.gd
    render_svg(OUT / "field.svg", sc, image=state.scene.image, boundary=state.boundary,
               grad=state.grad, ideal=ideal,
               markers=[(sc.start.x, sc.start.y, "start"),
                        ((sc.target[0] + 0.5) * sc.gd, (sc.target[1] + 0.5) * sc.gd, "target")])
    print("wrote %s" % (OUT / "field.svg"))


if __name__ == "__main__":
    main()

"""Show the two-branch edge detector on a synthetic scene.

Runs the second-derivative zero-crossing stage and the first-derivative
contrast gate separately, prints how many candidates each stage keeps, and
renders the surviving edge cells over the input image.
"""

import pathlib

import numpy as np

from hpfnav import vision
from hpfnav.render import render_svg
from hpfnav.workspace import load_scenario

OUT = pathlib.Path(__file__).parent / "out"


def main():
    sc = load_scenario(pathlib.Path(__file__).parents[1] / "scenarios" / "robust.json")
    img = sc.build_image()

    # uneven lighting: the second-derivative stage fires all over such noise,
    # the contrast gate keeps only the true object boundary
    rng = np.random.default_rng(7)
    pixels = img.pixels.astype(float) + rng.normal(0.0, 2.0, img.pixels.shape)

    log_k = vision.make_log(sc.vision.sigma)
    response = vision.convolve(pixels, log_k)
    candidates = vision.zero_cross(response)

    gx, gy = vision.make_gog(sc.vision.sigma)
    grads = (vision.convolve(pixels, gx), vision.convolve(pixels, gy))
    edges = vision.contrast_filter(candidates, grads, sc.vision.zeta)

    mag = np.hypot(*grads)
    print("scene %s: %dx%d pixels, noisy lighting" % (sc.name, img.width, img.height))
    print("zero crossings:        %4d cells" % candidates.sum())
    print("above contrast %.0f:    %4d cells" % (sc.vision.zeta, edges.sum()))
    print("strongest gradient:   %.1f intensity/pixel" % mag.max())

    OUT.mkdir(exist_ok=True)
    render_svg(OUT / "edges.svg", sc, image=img, edges=edges)
    print("wrote %s" % (OUT / "edges.svg"))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""The density families, their windows, volumes, and neighbourhood shapes.

Renders one SVG per family showing the neighbourhood silhouette around a
horizontal segment (the region swept by rotating the density).  Outputs land
in demos/output/.

Run:  python demos/02_profile_gallery.py
"""

import math
from pathlib import Path

import numpy as np

from lineclust import (
    ClusterLabels,
    Profile,
    effective_window,
    neighbourhood_volume,
    scaling_factor,
    segment,
)
from lineclust.data_io import write_svg

GALLERY = [
    Profile.uniform(0.0, 1.0),
    Profile.normal(0.5, 0.01),
    Profile.ellipsoidal(0.6, 1.0),
    Profile.gamma(2.0, 6.0),
    Profile.beta(2.0, 4.0),
    Profile.exponential(4.0),
]


def main():
    out_dir = Path(__file__).parent / "output"
    out_dir.mkdir(exist_ok=True)
    unit = segment((0.0, 0.0), (1.0, 0.0))
    unit3 = segment((0.0, 0.0, 0.0), (1.0, 0.0, 0.0))

    print(f"{'family':<28}{'window':<28}{'area (2-d)':<14}{'volume (3-d)':<14}alpha for V=2")
    for p in GALLERY:
        lo, hi = effective_window(p)
        a2 = neighbourhood_volume(p, unit, 2)
        v3 = neighbourhood_volume(p, unit3, 3)
        alpha = scaling_factor(2.0, p, unit, 2)
        name = f"{p.family}{p.params}"
        print(f"{name:<28}[{lo:7.3f}, {hi:7.3f}]        {a2:<14.5f}{v3:<14.5f}{alpha:.4f}")

    for p in GALLERY:
        lo, hi = effective_window(p)
        ts = np.linspace(lo, hi, 161)
        ys = p.pdf(ts)
        upper = [segment((ts[i], ys[i]), (ts[i + 1], ys[i + 1])) for i in range(len(ts) - 1)]
        lower = [segment((ts[i], -ys[i]), (ts[i + 1], -ys[i + 1])) for i in range(len(ts) - 1)]
        axis = [segment((lo, 0.0), (hi, 0.0))]
        U = upper + lower + axis
        memberships = [[1]] * len(upper) + [[2]] * len(lower) + [[]]
        labels = ClusterLabels(
            mode="expand", rng_seed=0, memberships=memberships,
            clusters=[list(range(len(upper))),
                      list(range(len(upper), len(upper) + len(lower)))],
            clusters_may_overlap=False, eval_count=0,
            trace=[], peak_aux=0, core_flags=[],
        )
        path = out_dir / f"profile_{p.family}.svg"
        write_svg(U, labels, path)
        print(f"wrote {path}")

    print("\n(2-d sanity: uniform(0,1) sweeps the 1x2 box, area "
          f"{neighbourhood_volume(Profile.uniform(0, 1), unit, 2):.6f}; "
          f"the 3-d uniform cylinder has volume pi = {math.pi:.6f})")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Integrate the two population gradient flows and compare their speed.

Starting from the same weight vector inside the basin, the flow that
also matches derivatives contracts toward the target strictly faster;
this script prints both distance curves and saves the overlay.
"""

import math
import os

import numpy as np

from soblab.cli.svg import line_plot
from soblab.convlab import integrate_flow_batch

OUT = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(OUT, exist_ok=True)

w_star = np.array([1.0, 0.0, 0.0])
theta0, ratio0 = 1.1, 0.9
w0 = ratio0 * np.array([math.cos(theta0), math.sin(theta0), 0.0])
print(f"start: angle {theta0} rad, norm ratio {ratio0}, distance {np.linalg.norm(w0 - w_star):.4f}")

curves = []
for mode in ("L2", "Sob"):
    # a single start runs on Python floats: one call per mode
    traj = integrate_flow_batch(w0, w_star, dt=0.02, t_final=60.0, mode=mode, record_every=25)
    dist2, ddt = traj.dist2[0], traj.ddt_dist2[0]
    curves.append((mode, traj.times, np.sqrt(dist2)))
    print(f"\nmode {mode}:")
    for i in range(0, len(traj.times), len(traj.times) // 6):
        print(f"  t={traj.times[i]:7.2f}  |w-w*|={math.sqrt(dist2[i]):.3e}  "
              f"d/dt|w-w*|^2={ddt[i]:+.3e}")
    print(f"  final distance {math.sqrt(dist2[-1]):.3e}")

path = os.path.join(OUT, "gradient_flow.svg")
with open(path, "w") as fh:
    fh.write(line_plot(curves, title="distance to target under both flows",
                       xlabel="t", ylabel="|w - w*|", logy=True))
print(f"\nwrote {path}")

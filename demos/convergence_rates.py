#!/usr/bin/env python3
"""Error-vs-spacing study for the meshfree derivative estimator.

Refines random clouds for u = sin(x) cos(y), tabulates the mean squared
error of each derivative order against the spacing h (the largest
nearest-neighbour distance of the cloud), and saves a log-log plot with
the fitted slopes.
"""

import os

from soblab.cli.svg import line_plot
from soblab.mls import MlsConfig, convergence_study, sin_cos_2d

OUT = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(OUT, exist_ok=True)

study = convergence_study(
    sin_cos_2d(),
    resolutions=[500, 1000, 2000, 4000, 8000],
    cfg=MlsConfig(k=20, m=2),
    seed=0,
    orders=[0, 1, 2],
)

print(f"{'points':>8s} {'h':>12s} {'order':>6s} {'mse':>12s}")
for res, h, order, mse in zip(study.resolution, study.h, study.order, study.mse):
    print(f"{res:8d} {h:12.3e} {order:6d} {mse:12.3e}")
print()
for order, slope in sorted(study.slopes.items()):
    print(f"order {order}: fitted log-log slope {slope:.2f}")

series = []
for order in (0, 1, 2):
    _, hs, errs = study.mse_series(order)
    series.append((f"order {order} (slope {study.slopes[order]:.2f})", hs, errs))
path = os.path.join(OUT, "convergence_rates.svg")
with open(path, "w") as fh:
    fh.write(line_plot(series, title="derivative MSE vs spacing", xlabel="h",
                       ylabel="mse", logx=True, logy=True))
print(f"\nwrote {path}")

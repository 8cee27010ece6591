"""Helpers shared by the test modules."""

import numpy as np

from soblab.cli.io import write_csv


def save_cloud_csv(cloud, path) -> None:
    """Write a point cloud in the format load_cloud_csv reads."""
    header = [f"x{d + 1}" for d in range(cloud.dim)] + ["u"]
    write_csv(path, header, [cloud.points, cloud.values])


def strand_points(count, seed):
    """count 2-D points: the first count - count // 4 uniform in the unit
    square, the rest a collinear strand on y = 0.5, 0.002 apart from
    x = 1.03 on.  At K = 20 the strand's stencils lie on it but for a few
    near the square, and a few stencils of the square reach the strand."""
    xs = 1.03 + 0.002 * np.arange(count // 4)
    uniform = np.random.default_rng(seed).random((count - len(xs), 2))
    return np.vstack([uniform, np.column_stack([xs, np.full_like(xs, 0.5)])])

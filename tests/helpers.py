"""Helpers shared by the test modules."""

from soblab.cli.io import array_rows, write_csv


def save_cloud_csv(cloud, path) -> None:
    """Write a point cloud in the format load_cloud_csv reads."""
    header = [f"x{d + 1}" for d in range(cloud.dim)] + ["u"]
    write_csv(path, header, array_rows(cloud.points, cloud.values))

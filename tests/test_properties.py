"""Property tests: `derivs` and the MLS derivative targets on hostile clouds.

Clouds of 1-300 points in 1-3 dimensions, with coordinates and values
from 1e-310 to 1e308, points 1 ulp apart, collinear strands and grids.
Under warnings as errors, each run ends in a documented outcome: exit 0
with finite jets, or exit 2, 3 or 4 with one stderr line and no out-dir.
The examples are derandomized, so every run draws the same ones.
"""

import contextlib
import io
import math
import os
import tempfile
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from soblab.cli.main import main
from soblab.errors import SoblabError
from soblab.training.datasets import mls_derivative_targets

# magnitudes weighted toward both ends of the range, and log-uniform
MAGNITUDES = st.floats(1e-310, 1e308) | st.integers(-310, 308).map(lambda e: 10.0 ** e)
SIGNED = st.tuples(st.sampled_from([-1.0, 1.0]), MAGNITUDES).map(lambda p: p[0] * p[1])


@st.composite
def clouds(draw, sizes, dims):
    """(points (J, n), unit, rng): one drawn layout in the unit box (uniform,
    a grid or a collinear strand), scaled and offset into points, some rows
    of which are then moved to 1 ulp from another row."""
    count, dim = draw(sizes), draw(dims)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layout = draw(st.sampled_from(["uniform", "grid", "strand"]))
    if layout == "grid":
        side = math.ceil(count ** (1.0 / dim))
        axes = np.meshgrid(*[np.arange(side, dtype=float)] * dim, indexing="ij")
        unit = np.column_stack([a.ravel() for a in axes])[:count] / max(side - 1, 1)
    elif layout == "strand":
        direction = rng.standard_normal(dim)
        unit = rng.random(count)[:, None] * direction / np.abs(direction).max()
    else:
        unit = rng.random((count, dim))
    offset = draw(st.sampled_from([0.0, -1.0, 1e3, 1e12]))  # in units of the scale
    with np.errstate(all="ignore"):  # an offset cloud may overflow: an inf coordinate, exit 2
        points = draw(MAGNITUDES) * (offset + unit)
    moved = np.flatnonzero(rng.random(count) < draw(st.sampled_from([0.0, 0.1, 0.5])))
    if count > 1:  # row i becomes row i + 1 moved 1 ulp up along one axis
        source = points[(moved + 1) % count]
        axis = rng.integers(0, dim, moved.size)
        source[np.arange(moved.size), axis] = np.nextafter(
            source[np.arange(moved.size), axis], np.inf)
        points[moved] = source
    return points, unit, rng


@st.composite
def values(draw, rng, shape, unit):
    """Values of a drawn kind, at most a drawn magnitude: noise, a smooth
    function of the unit-box layout or alternating signs."""
    kind = draw(st.sampled_from(["noise", "smooth", "alternating"]))
    if kind == "noise":
        base = rng.uniform(-1.0, 1.0, shape)
    elif kind == "smooth":
        base = np.broadcast_to(np.sin(3.0 * unit.sum(axis=1)), shape)
    else:
        base = np.broadcast_to((-1.0) ** np.arange(shape[-1]), shape)
    return draw(SIGNED) * base


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data(), clouds(st.integers(1, 300), st.integers(1, 3)),
       st.integers(1, 40), st.integers(0, 3))
def test_derivs_exits_documented_on_hostile_clouds(data, cloud, k, m):
    points, unit, rng = cloud
    u = data.draw(values(rng, points.shape[:1], unit))
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "cloud.csv"), os.path.join(tmp, "out")
        header = ",".join([f"x{d + 1}" for d in range(points.shape[1])] + ["u"])
        np.savetxt(path, np.column_stack([points, u]), delimiter=",", header=header,
                   comments="", fmt="%.17g")
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = main(["--out-dir", out, "derivs", "--input", path, "--k", str(k),
                         "--m", str(m)])
        assert code in (0, 2, 3, 4)
        if code:
            assert err.getvalue().count("\n") == 1 and err.getvalue().startswith("soblab: ")
            assert not os.path.exists(out)
        else:
            jets = np.loadtxt(os.path.join(out, "jets.csv"), delimiter=",", skiprows=1,
                              ndmin=2)
            assert jets.shape[0] == len(points) and np.isfinite(jets).all()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data(), clouds(st.integers(1, 96), st.integers(1, 2)),
       st.integers(1, 64), st.integers(1, 30), st.integers(1, 3))
def test_mls_targets_end_documented_on_hostile_clouds(data, cloud, samples, k, m):
    """The Sobolev targets at train's sizes (up to 64 samples on 96 query
    points in 1-D or 2-D): finite derivatives, or an error of exit 2, 3 or 4."""
    points, unit, rng = cloud
    targets = data.draw(values(rng, (samples, len(points)), unit))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            d = mls_derivative_targets(points, targets, k, m)
        except SoblabError as exc:
            assert exc.exit_code in (2, 3, 4)
            return
    assert d.shape == (samples, *points.shape) and np.isfinite(d).all()

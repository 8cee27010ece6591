"""The flow RHS with its target constants computed once equals, bit for
bit, the RHS that recomputed them on every call, and a single start run
on Python floats equals its row inside an array bundle.

The oracle below is the population-gradient RHS and the RK4 loop as they
were before the target constants moved out of the RHS, with w . w_star
summed per row (np.add.reduce) instead of by a matmul (matmul=True keeps
the earlier form); every comparison is np.array_equal, not a tolerance.
"""

import math

import numpy as np
import pytest

from soblab import convlab
from soblab.convlab import (
    derivative_flow_gradient,
    descent_landscape,
    integrate_flow_batch,
    sample_basin,
    value_flow_gradient,
)
from soblab.errors import StepTooLargeError

TWO_PI = 2.0 * math.pi


def _norm(w, keepdims=False):
    return np.linalg.norm(np.asarray(w, dtype=float), axis=-1, keepdims=keepdims)


def _coeffs_of_angle(theta):
    p0 = ((math.pi - theta) * np.cos(theta) + np.sin(theta)) / TWO_PI
    p1 = (math.pi - theta) / TWO_PI
    p2 = np.sin(theta) / TWO_PI
    return p0, p1, p2


def _population_gradients(w, w_star, mu_fac, theta_clamp=0.0, der=True, matmul=False):
    nw = _norm(w, keepdims=True)
    nws = float(_norm(w_star))
    dot = w @ w_star if matmul else np.add.reduce(w * w_star, axis=-1)
    cos = dot / (nw[..., 0] * nws)
    t = np.arccos(np.clip(cos, -1.0, 1.0))
    if theta_clamp > 0.0:
        t = np.clip(t, theta_clamp, math.pi - theta_clamp)
    p0, p1, p2 = _coeffs_of_angle(t)
    amp = nw[..., 0] * nws * p0
    amp_star = 0.5 * nws * nws
    w_hat = w / nw
    corr_star = p1[..., None] * w_star + (nws * p2)[..., None] * w_hat
    inner = amp[..., None] * (0.5 * w) - amp_star * corr_star
    g_val = amp[..., None] * inner + corr_star * np.sum(w * inner, axis=-1, keepdims=True)
    if not der:
        return mu_fac * g_val, None
    cw = np.sum(corr_star * w, axis=-1)
    cws = np.sum(corr_star * w_star, axis=-1)
    g_der = (
        (0.5 * amp * amp + 0.5 * amp * cw - amp * p1 * cws)[..., None] * w
        - (amp * amp_star * p1)[..., None] * w_star
    )
    return mu_fac * g_val, mu_fac * g_der


def _rk4_flow(w, w_star, sob, mu_fac, dt, t_final, record_every, theta_clamp, matmul=False):
    der = bool(np.any(sob))
    sob = sob[:, None]

    def rhs(u):
        g_val, g_der = _population_gradients(u, w_star, mu_fac, theta_clamp, der, matmul)
        return -(g_val if g_der is None else np.where(sob, g_val + g_der, g_val))

    n_steps = max(0, int(round(t_final / dt)))
    stride = max(1, int(record_every))
    floor = (1e-9 * float(_norm(w_star))) ** 2
    d2 = np.sum((w - w_star) ** 2, axis=-1)
    k1 = rhs(w)
    steps, weights, slopes = [0], [w], [k1]
    for step in range(1, n_steps + 1):
        k2 = rhs(w + 0.5 * dt * k1)
        k3 = rhs(w + 0.5 * dt * k2)
        k4 = rhs(w + dt * k3)
        increment = (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        w = w + increment
        d2_new = np.sum((w - w_star) ** 2, axis=-1)
        euler = dt * k1
        departs = np.sum((increment - euler) ** 2, axis=-1) > 0.25 * np.sum(euler**2, axis=-1)
        if np.any((d2 > floor) & ((d2_new > 1.21 * d2) | departs)):
            raise StepTooLargeError(f"step {step} too large", step_index=step)
        d2 = d2_new
        k1 = rhs(w)
        if step % stride == 0 or step == n_steps:
            steps.append(step)
            weights.append(w)
            slopes.append(k1)
    weights = np.stack(weights, axis=1)
    diff = weights - w_star
    ddt = 2.0 * np.sum(diff * np.stack(slopes, axis=1), axis=-1)
    return np.asarray(steps) * dt, weights, np.sum(diff * diff, axis=-1), ddt


ROWS = {"L2": [False] * 3, "Sob": [True] * 3, "mixed": [False, True, True, False, True, False]}


def _starts(n, count, on_axis=False):
    rng = np.random.default_rng(70 + n)
    w_star = rng.standard_normal(n)
    w_star /= np.linalg.norm(w_star)
    if on_axis:
        # the CLI's target: w @ w_star is exact, so a row's arithmetic does
        # not depend on the batch it runs in
        w_star = np.eye(n)[0]
    return sample_basin(w_star, count, rng, theta_range=(0.3, 2.5)), w_star


def _assert_same(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("record_every", [1, 7])
@pytest.mark.parametrize("theta_clamp", [0.0, 1e-8])
@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("rows", sorted(ROWS))
def test_rk4_flow_is_bit_identical_to_the_oracle(rows, n, theta_clamp, record_every):
    sob = np.array(ROWS[rows])
    w0, w_star = _starts(n, len(sob))
    mu_fac = convlab._mu_factor((0.5, 1.5))  # a factor != 1 keeps the scaling in play
    dt, t_final = 0.05, 3.0
    got = convlab._rk4_flow(
        w0, convlab._target(w_star, mu_fac, theta_clamp), sob, dt, t_final, record_every
    )
    want = _rk4_flow(w0, w_star, sob, mu_fac, dt, t_final, record_every, theta_clamp)
    _assert_same(got, want)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_public_flows_are_bit_identical_to_the_oracle(n):
    starts, w_star = _starts(n, 3)
    kw = dict(dt=0.05, t_final=3.0, record_every=7)
    modes = ["L2", "Sob", "L2"]
    sob = np.array([m == "Sob" for m in modes])
    traj = integrate_flow_batch(starts, w_star, mode=modes, **kw)
    assert traj.modes == tuple(modes)
    _assert_same(
        (traj.times, traj.weights, traj.dist2, traj.ddt_dist2),
        _rk4_flow(starts, w_star, sob, 1.0, theta_clamp=1e-8, **kw),
    )
    for i, mode in enumerate(modes):
        traj = integrate_flow_batch(starts[i], w_star, mode=mode, **kw)
        _assert_same(
            (traj.times, traj.weights, traj.dist2, traj.ddt_dist2),
            _rk4_flow(starts[i : i + 1], w_star, sob[i : i + 1], 1.0, theta_clamp=1e-8, **kw),
        )


@pytest.mark.parametrize("on_axis", [True, False])
def test_two_mode_call_rows_equal_one_mode_runs(on_axis):
    # the flow command's --mode both: one start repeated once per mode
    starts, w_star = _starts(3, 1, on_axis)
    both = integrate_flow_batch(
        [starts[0]] * 2, w_star, dt=0.05, t_final=3.0, mode=["L2", "Sob"], record_every=7
    )
    assert both.modes == ("L2", "Sob")
    for i, mode in enumerate(both.modes):
        times, weights, dist2, ddt = _rk4_flow(
            starts, w_star, np.array([mode == "Sob"]), 1.0, 0.05, 3.0, 7, 1e-8
        )
        got = (both.times, both.weights[i], both.dist2[i], both.ddt_dist2[i])
        _assert_same(got, (times, weights[0], dist2[0], ddt[0]))


@pytest.mark.parametrize("n", [2, 3, 5])
def test_on_axis_flows_keep_the_bits_of_the_matmul_form(n):
    # with w_star on an axis, w @ w_star and the per-row sum are both exact,
    # so the CLI's flows keep the bits they had before the sum changed
    w0, w_star = _starts(n, 6, on_axis=True)
    sob = np.array(ROWS["mixed"])
    target = convlab._target(w_star, 1.0, 1e-8)
    for rows in (slice(None), slice(1, 2)):  # the bundle, and one start on floats
        _assert_same(
            convlab._rk4_flow(w0[rows], target, sob[rows], 0.05, 3.0, 7),
            _rk4_flow(w0[rows], w_star, sob[rows], 1.0, 0.05, 3.0, 7, 1e-8, matmul=True),
        )


def _rows_of(flow, i):
    times, weights, dist2, ddt = flow
    return times, weights[i : i + 1], dist2[i : i + 1], ddt[i : i + 1]


@pytest.mark.parametrize("record_every", [1, 7])
@pytest.mark.parametrize("theta_clamp", [0.0, 1e-8])
@pytest.mark.parametrize("on_axis", [True, False])
@pytest.mark.parametrize("n", [2, 3, 5, 7])
def test_single_start_on_floats_equals_its_bundle_row(n, on_axis, theta_clamp, record_every):
    sob = np.array(ROWS["mixed"])
    w0, w_star = _starts(n, len(sob), on_axis)
    target = convlab._target(w_star, convlab._mu_factor((0.5, 1.5)), theta_clamp)
    bundle = convlab._rk4_flow(w0, target, sob, 0.05, 3.0, record_every)
    for i in range(len(sob)):  # L2 and Sob rows
        single = convlab._rk4_flow(w0[i : i + 1], target, sob[i : i + 1], 0.05, 3.0, record_every)
        _assert_same(single, _rows_of(bundle, i))


@pytest.mark.parametrize("n", [8, 9, 16])
def test_single_start_from_n_8_stays_on_arrays_and_equals_its_bundle_row(n):
    """From 8 terms on numpy's add.reduce sums pairwise while the float
    backend sums left to right, so a single start with n >= 8 runs on
    arrays; it then equals its bundle row bit for bit, off-axis too."""
    sob = np.array(ROWS["mixed"])
    w0, w_star = _starts(n, len(sob))
    target = convlab._target(w_star, 1.0, 1e-8)
    bundle = convlab._rk4_flow(w0, target, sob, 0.05, 3.0, 7)
    for i in range(len(sob)):
        single = convlab._rk4_flow(w0[i : i + 1], target, sob[i : i + 1], 0.05, 3.0, 7)
        _assert_same(single, _rows_of(bundle, i))


def test_gradients_and_landscape_are_bit_identical_to_the_oracle():
    rng = np.random.default_rng(5)
    w_star = rng.standard_normal(4)
    w = rng.standard_normal((6, 4))
    mu = (0.5, 2.0)
    mu_fac = convlab._mu_factor(mu)
    g_val, g_der = _population_gradients(w, w_star, mu_fac)
    assert np.array_equal(value_flow_gradient(w, w_star, mu), g_val)
    assert np.array_equal(derivative_flow_gradient(w, w_star, mu), g_der)
    assert np.array_equal(
        value_flow_gradient(w[0], w_star, mu), _population_gradients(w[0], w_star, mu_fac)[0]
    )

    thetas, ratios = np.linspace(0.1, 3.0, 7), np.linspace(0.2, 2.5, 5)
    table = descent_landscape(thetas, ratios, dim=3)
    tt, xx = np.meshgrid(thetas, ratios, indexing="ij")
    w_grid = np.zeros(tt.shape + (3,))
    w_grid[..., 0] = xx * np.cos(tt)
    w_grid[..., 1] = xx * np.sin(tt)
    e1 = np.array([1.0, 0.0, 0.0])
    g_val, g_der = _population_gradients(w_grid, e1, 1.0)
    ddt_l2 = -2.0 * np.sum((w_grid - e1) * g_val, axis=-1)
    ddt_sob = ddt_l2 - 2.0 * np.sum((w_grid - e1) * g_der, axis=-1)
    norm = 2.0 * _coeffs_of_angle(tt)[0] * xx
    assert np.array_equal(table.v_l2, ddt_l2 / norm)
    assert np.array_equal(table.v_sob, ddt_sob / norm)


def test_step_guard_still_names_step_3():
    # the rows of test_flow_batch_step_guard_names_the_step: at dt = 4 the
    # start [1.314, -0.034] trips the guard at step 3, in the bundle and
    # alone on floats
    w_star = np.array([1.0, 0.0])
    rows = np.array([[0.915, -0.486], [0.907, 0.479], [1.314, -0.034], [0.855, 0.653]])
    for starts in (rows, rows[2:3]):
        sob = np.zeros(len(starts), dtype=bool)
        with pytest.raises(StepTooLargeError) as want:
            _rk4_flow(starts, w_star, sob, 1.0, 4.0, 120.0, 1, 1e-8)
        with pytest.raises(StepTooLargeError) as got:
            integrate_flow_batch(starts, w_star, dt=4.0, t_final=120.0)
        assert got.value.step_index == want.value.step_index == 3

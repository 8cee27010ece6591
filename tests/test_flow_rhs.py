"""The planar flow against the n-D formulas it replaced.

Every row of a flow stays in the plane of its start and the target, and
convlab integrates it on its two coordinates there.  The oracle below is
the n-D population-gradient RHS and RK4 loop as they were before, with
w . w_star summed per row (np.add.reduce; matmul=True keeps the earlier
matmul form).

Where a start lies in a coordinate plane and the target on an axis of it
(as in the flow command and the landscape), the planar arithmetic is the
n-D arithmetic on the two in-plane components, and the comparison is
np.array_equal.  Elsewhere the projection onto the plane and the n-D sums
round differently, and the comparison is an equivalence at RTOL: each
evaluation differs by a few eps in the rows' coordinates, the angle
amplifies a perturbation of its cosine by 1/sin(theta), and the RK4 steps
of a contracting flow do not compound it, so a few hundred eps over the
smallest sin(theta) of the starts, theta in (0.3, 2.5), bounds the
difference relative to the scale |w_star| of the problem.  A single start
(on Python floats) equals its row of a bundle (on arrays) bit for bit.
"""

import math

import numpy as np
import pytest

from soblab import convlab
from soblab.convlab import descent_landscape, flow_gradients, integrate_flow_batch, sample_basin
from soblab.errors import StepTooLargeError

TWO_PI = 2.0 * math.pi
RTOL = 300 * np.finfo(float).eps / math.sin(0.3)


def _norm(w, keepdims=False):
    return np.linalg.norm(np.asarray(w, dtype=float), axis=-1, keepdims=keepdims)


def _coeffs_of_angle(theta):
    p0 = ((math.pi - theta) * np.cos(theta) + np.sin(theta)) / TWO_PI
    p1 = (math.pi - theta) / TWO_PI
    p2 = np.sin(theta) / TWO_PI
    return p0, p1, p2


def _population_gradients(w, w_star, theta_clamp=0.0, der=True, matmul=False):
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
        return g_val, None
    cw = np.sum(corr_star * w, axis=-1)
    cws = np.sum(corr_star * w_star, axis=-1)
    g_der = (
        (0.5 * amp * amp + 0.5 * amp * cw - amp * p1 * cws)[..., None] * w
        - (amp * amp_star * p1)[..., None] * w_star
    )
    return g_val, g_der


def _rk4_flow(w, w_star, sob, dt, t_final, record_every, theta_clamp, matmul=False):
    der = bool(np.any(sob))
    sob = sob[:, None]

    def rhs(u):
        g_val, g_der = _population_gradients(u, w_star, theta_clamp, der, matmul)
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


def _target(w_star, theta_clamp):
    """convlab's target of w_star with the angle clamped to
    [theta_clamp, pi - theta_clamp], or unclamped for 0."""
    return convlab._target(w_star, (theta_clamp, math.pi - theta_clamp) if theta_clamp else None)


def _starts(n, count, on_axis=False):
    rng = np.random.default_rng(70 + n)
    w_star = rng.standard_normal(n)
    w_star /= np.linalg.norm(w_star)
    if on_axis:
        w_star = np.eye(n)[0]
    return sample_basin(w_star, count, rng, theta_range=(0.3, 2.5)), w_star


def _in_plane(w, w_star):
    """The same rows in the coordinate plane of the first two axes, with
    the target on the first: (|w| cos t, |w| sin t, 0, ...) and
    (|w*|, 0, ...), t the angle of each row to w*."""
    nws = np.linalg.norm(w_star)
    a = w @ w_star / nws
    b = np.linalg.norm(w - a[..., None] * (w_star / nws), axis=-1)
    rows = np.zeros_like(w)
    rows[..., 0], rows[..., 1] = a, b
    return rows, nws * np.eye(len(w_star))[0]


def _assert_same(got, want):
    # np.array_equal, and the same sign on every zero
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
        assert np.array_equal(np.signbit(a), np.signbit(b))


def _assert_close(got, want, w_star):
    """times equal; weights, dist2 and ddt_dist2 within RTOL, relative to
    each entry and to the problem's scale |w*| (|w*|^2 for the last two)."""
    scale = float(np.linalg.norm(w_star))
    times, *rest = got
    assert np.array_equal(times, want[0])
    for a, b, power in zip(rest, want[1:], (1, 2, 2)):
        np.testing.assert_allclose(a, b, rtol=RTOL, atol=RTOL * scale**power)


def _cases(w, w_star):
    """(rows, target, check): the rows moved into a coordinate plane with
    the target on its first axis, checked bit for bit, and the rows as they
    are, checked at RTOL."""
    return (
        (*_in_plane(w, w_star), _assert_same),
        (w, w_star, lambda got, want: _assert_close(got, want, w_star)),
    )


@pytest.mark.parametrize("record_every", [1, 7])
@pytest.mark.parametrize("theta_clamp", [0.0, 1e-8])
@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("rows", sorted(ROWS))
def test_rk4_flow_is_bit_identical_to_the_oracle(rows, n, theta_clamp, record_every):
    """Bit-identical in a coordinate plane; off-axis, equivalent at RTOL."""
    sob = np.array(ROWS[rows])
    w0, w_star = _starts(n, len(sob))
    for starts, target, check in _cases(w0, w_star):
        got = convlab._rk4_flow(starts, _target(target, theta_clamp), sob, 0.05, 3.0, record_every)
        check(got, _rk4_flow(starts, target, sob, 0.05, 3.0, record_every, theta_clamp))


@pytest.mark.parametrize("n", [2, 3, 5])
def test_public_flows_are_bit_identical_to_the_oracle(n):
    """Bit-identical in a coordinate plane; off-axis, equivalent at RTOL."""
    w0, w_star = _starts(n, 3)
    kw = dict(dt=0.05, t_final=3.0, record_every=7)
    modes = ["L2", "Sob", "L2"]
    sob = np.array([m == "Sob" for m in modes])
    for starts, target, check in _cases(w0, w_star):
        traj = integrate_flow_batch(starts, target, mode=modes, **kw)
        assert traj.modes == tuple(modes)
        check(
            (traj.times, traj.weights, traj.dist2, traj.ddt_dist2),
            _rk4_flow(starts, target, sob, theta_clamp=1e-8, **kw),
        )
        for i, mode in enumerate(modes):
            traj = integrate_flow_batch(starts[i], target, mode=mode, **kw)
            check(
                (traj.times, traj.weights, traj.dist2, traj.ddt_dist2),
                _rk4_flow(starts[i : i + 1], target, sob[i : i + 1], theta_clamp=1e-8, **kw),
            )


@pytest.mark.parametrize("on_axis", [True, False])
def test_two_mode_call_rows_equal_one_mode_runs(on_axis):
    # the flow command's --mode both: one start repeated once per mode
    starts, w_star = _starts(3, 1, on_axis)
    kw = dict(dt=0.05, t_final=3.0, record_every=7)
    both = integrate_flow_batch([starts[0]] * 2, w_star, mode=["L2", "Sob"], **kw)
    assert both.modes == ("L2", "Sob")
    for i, mode in enumerate(both.modes):
        got = (both.times, both.weights[i : i + 1], both.dist2[i : i + 1], both.ddt_dist2[i : i + 1])
        one = integrate_flow_batch(starts[0], w_star, mode=mode, **kw)
        _assert_same(got, (one.times, one.weights, one.dist2, one.ddt_dist2))
        sob = np.array([mode == "Sob"])
        _assert_close(got, _rk4_flow(starts, w_star, sob, theta_clamp=1e-8, **kw), w_star)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_on_axis_flows_keep_the_bits_of_the_matmul_form(n):
    # with w_star on an axis and the starts in a coordinate plane, as in the
    # flow command, the flows keep the bits of the n-D matmul form; starts
    # outside that plane agree with it at RTOL
    w0, w_star = _starts(n, 6, on_axis=True)
    sob = np.array(ROWS["mixed"])
    target = _target(w_star, 1e-8)
    for starts, _, check in _cases(w0, w_star):
        for rows in (slice(None), slice(1, 2)):  # the bundle, and one start on floats
            check(
                convlab._rk4_flow(starts[rows], target, sob[rows], 0.05, 3.0, 7),
                _rk4_flow(starts[rows], w_star, sob[rows], 0.05, 3.0, 7, 1e-8, matmul=True),
            )


def _rows_of(flow, i):
    times, weights, dist2, ddt = flow
    return times, weights[i : i + 1], dist2[i : i + 1], ddt[i : i + 1]


@pytest.mark.parametrize("record_every", [1, 7])
@pytest.mark.parametrize("theta_clamp", [0.0, 1e-8])
@pytest.mark.parametrize("on_axis", [True, False])
@pytest.mark.parametrize("n", [2, 3, 5, 7, 8, 9, 16])
def test_single_start_on_floats_equals_its_bundle_row(n, on_axis, theta_clamp, record_every):
    # at every n: the projection sums each row on its own (np.add.reduce)
    sob = np.array(ROWS["mixed"])
    w0, w_star = _starts(n, len(sob), on_axis)
    target = _target(w_star, theta_clamp)
    bundle = convlab._rk4_flow(w0, target, sob, 0.05, 3.0, record_every)
    for i in range(len(sob)):  # L2 and Sob rows
        single = convlab._rk4_flow(w0[i : i + 1], target, sob[i : i + 1], 0.05, 3.0, record_every)
        _assert_same(single, _rows_of(bundle, i))


@pytest.mark.parametrize("on_axis", [True, False])
def test_weights_start_at_the_given_starts(on_axis):
    w0, w_star = _starts(5, 4, on_axis)
    for starts in (w0, w0[2]):
        mode = ["L2", "Sob"] * 2 if starts.ndim == 2 else "Sob"
        traj = integrate_flow_batch(starts, w_star, dt=0.05, t_final=1.0, mode=mode)
        assert np.array_equal(traj.weights[:, 0], np.atleast_2d(starts))


def test_out_of_plane_components_are_positive_zero():
    # rows with a negative coordinate along w* (outside the basin), one
    # parallel to w*, and one whose gradients point against both axes of
    # its plane: every component off the plane is +0.0, as in the n-D
    # formulas, and the parallel start never leaves the axis of w*
    w_star = np.array([1.0, 0.0, 0.0, 0.0])
    rows = np.array([[-0.2, 0.5, 0.0, 0.0], [0.5, 0.0, 0.0, 0.0], [0.3, 0.2, 0.0, 0.0]])
    zeros = [g[:, 2:] for g in flow_gradients(rows, w_star)]
    for starts in (rows, rows[0], rows[1]):
        weights = integrate_flow_batch(
            starts, w_star, dt=0.05, t_final=1.0, mode="Sob", allow_outside_basin=True
        ).weights
        zeros.append(weights[..., 2:])
    zeros.append(weights[..., 1])
    for out in zeros:
        assert np.array_equal(out, np.zeros_like(out))
        assert not np.signbit(out).any()


def _oracle_landscape(thetas, ratios, nws, dim=3):
    tt, xx = np.meshgrid(thetas, ratios, indexing="ij")
    w_grid = np.zeros(tt.shape + (dim,))
    w_grid[..., 0] = xx * nws * np.cos(tt)
    w_grid[..., 1] = xx * nws * np.sin(tt)
    w_star = nws * np.eye(dim)[0]
    g_val, g_der = _population_gradients(w_grid, w_star)
    ddt_l2 = -2.0 * np.sum((w_grid - w_star) * g_val, axis=-1)
    ddt_sob = ddt_l2 - 2.0 * np.sum((w_grid - w_star) * g_der, axis=-1)
    norm = 2.0 * _coeffs_of_angle(tt)[0] * (xx * nws) * nws**5
    return ddt_l2 / norm, ddt_sob / norm


def test_gradients_and_landscape_are_bit_identical_to_the_oracle():
    """Bit-identical in a coordinate plane; off-axis gradients, at RTOL."""
    rng = np.random.default_rng(5)
    w_star = rng.standard_normal(4)
    w = rng.standard_normal((6, 4))
    # the rows' angles to w_star lie in (0.8, 2.8), where sin(theta) > sin(0.3)
    for rows, target, check in (
        (*_in_plane(w, w_star), np.array_equal),
        (w, w_star, lambda got, want: np.allclose(got, want, RTOL, RTOL * np.abs(want).max())),
    ):
        for w_rows in (rows, rows[0]):
            want = _population_gradients(w_rows, target)
            assert all(map(check, flow_gradients(w_rows, target), want))

    thetas, ratios = np.linspace(0.1, 3.0, 7), np.linspace(0.2, 2.5, 5)
    table = descent_landscape(thetas, ratios)
    v_l2, v_sob = _oracle_landscape(thetas, ratios, 1.0)
    assert np.array_equal(table.v_l2, v_l2)
    assert np.array_equal(table.v_sob, v_sob)


# the landscape is drawn at |w*| = 1, the norm every command uses
@pytest.mark.parametrize("nws", [1.0])
def test_landscape_equals_the_oracle_on_a_181_by_121_grid(nws):
    thetas = np.linspace(0.0, math.pi, 183)[1:-1]
    ratios = np.linspace(0.0, 3.0, 122)[1:]
    table = descent_landscape(thetas, ratios)
    v_l2, v_sob = _oracle_landscape(thetas, ratios, nws, dim=2)
    assert np.array_equal(table.v_l2, v_l2, equal_nan=True)
    assert np.array_equal(table.v_sob, v_sob, equal_nan=True)


def test_step_guard_still_names_step_3():
    # the rows of test_flow_batch_step_guard_names_the_step: at dt = 4 the
    # start [1.314, -0.034] trips the guard at step 3, in the bundle and
    # alone on floats
    w_star = np.array([1.0, 0.0])
    rows = np.array([[0.915, -0.486], [0.907, 0.479], [1.314, -0.034], [0.855, 0.653]])
    for starts in (rows, rows[2:3]):
        sob = np.zeros(len(starts), dtype=bool)
        with pytest.raises(StepTooLargeError) as want:
            _rk4_flow(starts, w_star, sob, 4.0, 120.0, 1, 1e-8)
        with pytest.raises(StepTooLargeError) as got:
            integrate_flow_batch(starts, w_star, dt=4.0, t_final=120.0)
        assert got.value.step_index == want.value.step_index == 3

"""Closed-form half-space geometry, population gradients, inequalities."""

import math

import numpy as np
import pytest

from soblab.convlab import (
    _coeffs_of_angle,
    angle_between,
    cubic_local_min,
    derivative_cubic_coefficients,
    derivative_flow_gradient,
    derivative_flow_margin_scan,
    descent_landscape,
    effective_amplitude,
    finite_sample_derivative_gradient,
    finite_sample_value_gradient,
    gated_correlation,
    gated_correlation_sum,
    integrate_flow_batch,
    mc_gated_correlation,
    mc_quadrant_prob,
    quadrant_prob,
    sample_basin,
    value_flow_angular_term,
    value_flow_gradient,
)
from soblab.errors import (
    ConfigError,
    DimMismatchError,
    NoLocalMinError,
    NotUnitError,
    OutOfDomainError,
    PhiZeroError,
    StepTooLargeError,
    ZeroVectorError,
)

TWO_PI = 2.0 * math.pi


def _coefficients(w1, w2):
    """(mixed, joint, ortho) half-space coefficients of a pair of directions."""
    return _coeffs_of_angle(angle_between(w1, w2))


# -- angles and coefficients ---------------------------------------------------

def test_angle_basics():
    w = np.array([1.0, 1.0])
    assert angle_between(w, w) == pytest.approx(0.0, abs=1e-7)
    assert angle_between([1, 0], [0, 1]) == pytest.approx(math.pi / 2, abs=1e-15)
    assert angle_between(w, -w) == pytest.approx(math.pi, abs=1e-7)


def test_angle_rejects_zero_vector():
    with pytest.raises(ZeroVectorError):
        angle_between([0.0, 0.0], [1.0, 0.0])


def test_coefficients_at_zero_angle():
    mixed, joint, ortho = _coefficients([2.0, 0.0], [3.0, 0.0])
    assert mixed == pytest.approx(0.5, abs=1e-15)
    assert joint == pytest.approx(0.5, abs=1e-15)
    assert ortho == 0.0


def test_coefficients_at_pi():
    mixed, joint, ortho = _coefficients([1.0, 0.0], [-1.0, 0.0])
    assert mixed == pytest.approx(0.0, abs=1e-15)
    assert joint == pytest.approx(0.0, abs=1e-15)
    assert ortho == pytest.approx(0.0, abs=1e-15)


def test_coefficients_at_right_angle():
    # direct evaluation: ((pi/2)*0 + 1)/2pi, (pi/2)/2pi, 1/2pi
    mixed, joint, ortho = _coefficients([1.0, 0.0], [0.0, 1.0])
    assert mixed == pytest.approx(1.0 / TWO_PI, rel=1e-14)
    assert joint == pytest.approx(0.25, rel=1e-14)
    assert ortho == pytest.approx(1.0 / TWO_PI, rel=1e-14)


def test_gated_correlation_along_and_orthogonal():
    w = np.array([0.8, -0.6, 0.0]) * 2.0
    e = w / np.linalg.norm(w)
    np.testing.assert_allclose(gated_correlation(e, w), w / 2.0, atol=1e-15)
    e_perp = np.array([0.6, 0.8, 0.0])
    expected = ((math.pi / 2.0) * w + np.linalg.norm(w) * e_perp) / TWO_PI
    np.testing.assert_allclose(gated_correlation(e_perp, w), expected, atol=1e-14)


def test_gated_correlation_requires_unit_direction():
    with pytest.raises(NotUnitError):
        gated_correlation([2.0, 0.0], [1.0, 1.0])


def test_gated_correlation_decomposition_identity():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = rng.integers(2, 7)
        e = rng.standard_normal(n)
        e /= np.linalg.norm(e)
        w = rng.standard_normal(n)
        _, joint, ortho = _coefficients(e, w)
        expected = joint * w + ortho * np.linalg.norm(w) * e
        np.testing.assert_allclose(gated_correlation(e, w), expected, atol=1e-12)


def test_effective_amplitude_values_and_consistency():
    w = np.array([1.5, 0.0])
    assert effective_amplitude(w, w) == pytest.approx(np.dot(w, w) / 2.0, rel=1e-14)
    assert effective_amplitude(w, -w) == pytest.approx(0.0, abs=1e-15)
    rng = np.random.default_rng(1)
    for _ in range(30):
        w1 = rng.standard_normal(4)
        w2 = rng.standard_normal(4)
        via_corr = float(w1 @ gated_correlation(w1 / np.linalg.norm(w1), w2))
        assert effective_amplitude(w1, w2) == pytest.approx(via_corr, abs=1e-12)


# -- finite-sample pieces --------------------------------------------------------

def test_gated_sum_inactive_halfspace_is_zero():
    x = np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])
    w = np.array([-1.0, -1.0])  # every x.w <= 0
    np.testing.assert_array_equal(gated_correlation_sum(x, np.array([1.0, 0.0]), w), 0.0)


def test_gated_sum_single_aligned_row():
    w = np.array([2.0, 0.0])
    e = w / np.linalg.norm(w)
    x = e[None, :]
    np.testing.assert_allclose(
        gated_correlation_sum(x, e, w), float(x[0] @ w) * x[0], atol=1e-15
    )


def test_gated_sum_dim_guard():
    with pytest.raises(DimMismatchError):
        gated_correlation_sum(np.zeros((3, 2)), np.array([1.0, 0.0, 0.0]), np.ones(3))


def test_gated_correlation_monte_carlo():
    rng = np.random.default_rng(2)
    for n in (2, 5):
        e = rng.standard_normal(n)
        e /= np.linalg.norm(e)
        w = rng.standard_normal(n)
        mean, se = mc_gated_correlation(e, w, draws=200_000, seed=5)
        closed = gated_correlation(e, w)
        assert np.all(np.abs(mean - closed) <= 3.0 * se)


def test_quadrant_prob_values():
    assert quadrant_prob(0.0) == 0.25
    assert quadrant_prob(1.0) == pytest.approx(0.5, rel=1e-15)
    assert quadrant_prob(-1.0) == pytest.approx(0.0, abs=1e-15)
    assert quadrant_prob(0.5) == pytest.approx(0.25 + 1.0 / 12.0, rel=1e-12)
    with pytest.raises(OutOfDomainError):
        quadrant_prob(1.5)


def test_quadrant_prob_monte_carlo():
    for rho in (-0.9, 0.0, 0.5, 0.9):
        assert abs(mc_quadrant_prob(rho, 400_000, seed=3) - quadrant_prob(rho)) < 5e-3


# -- population gradients --------------------------------------------------------

def test_gradients_vanish_at_target():
    w = np.array([0.3, -1.2, 0.8])
    np.testing.assert_allclose(value_flow_gradient(w, w), 0.0, atol=1e-12)
    np.testing.assert_allclose(derivative_flow_gradient(w, w), 0.0, atol=1e-12)


def test_gradients_reject_zero_vectors():
    with pytest.raises(ZeroVectorError):
        value_flow_gradient(np.zeros(2), np.ones(2))


def test_value_gradient_positive_alignment_in_basin():
    rng = np.random.default_rng(4)
    w_star = rng.standard_normal(4)
    starts = sample_basin(w_star, 10_000, rng)
    g = value_flow_gradient(starts, w_star)
    dots = np.sum((starts - w_star) * g, axis=-1)
    assert dots.min() >= -1e-12


def test_derivative_gradient_positive_alignment_in_basin():
    rng = np.random.default_rng(5)
    w_star = rng.standard_normal(3)
    starts = sample_basin(w_star, 10_000, rng)
    g = derivative_flow_gradient(starts, w_star)
    dots = np.sum((starts - w_star) * g, axis=-1)
    assert dots.min() >= -1e-12


def test_value_gradient_matches_monte_carlo():
    rng = np.random.default_rng(6)
    w_star = rng.standard_normal(3)
    w = sample_basin(w_star, 1, rng)[0]
    acc = np.zeros(3)
    draws = 100
    for _ in range(draws):
        acc += finite_sample_value_gradient(rng.standard_normal((10_000, 3)), w, w_star)
    closed = value_flow_gradient(w, w_star)
    rel = np.linalg.norm(acc / draws - closed) / np.linalg.norm(closed)
    assert rel < 0.02


def test_derivative_gradient_matches_monte_carlo():
    rng = np.random.default_rng(7)
    w_star = rng.standard_normal(3)
    w = sample_basin(w_star, 1, rng)[0]
    acc = np.zeros(3)
    draws = 100
    for _ in range(draws):
        acc += finite_sample_derivative_gradient(rng.standard_normal((10_000, 3)), w, w_star)
    closed = derivative_flow_gradient(w, w_star)
    rel = np.linalg.norm(acc / draws - closed) / np.linalg.norm(closed)
    assert rel < 0.02


def test_amplitudes_scale_gradients():
    w_star = np.array([1.0, 0.2])
    w = np.array([0.7, 0.5])
    g1 = value_flow_gradient(w, w_star, mu=(1.0,))
    g2 = value_flow_gradient(w, w_star, mu=(2.0, 2.0))
    np.testing.assert_allclose(g2, 4.0 * g1, rtol=1e-14)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_unit_amplitude_skips_only_an_exact_product(n):
    # mu = (1.0,) forms no mu product; mu = (2.0,) multiplies by 4.0, which
    # scales every float exactly, so the two paths agree bit for bit
    rng = np.random.default_rng(40 + n)
    w_star = rng.standard_normal(n)
    w = rng.standard_normal((4, n))
    for grad in (value_flow_gradient, derivative_flow_gradient):
        assert np.array_equal(grad(w, w_star, mu=(2.0,)), 4.0 * grad(w, w_star))


# -- scalar inequalities -----------------------------------------------------------

def test_angular_term_endpoints_and_midpoint():
    assert value_flow_angular_term(0.0) == 0.0
    assert value_flow_angular_term(math.pi) == pytest.approx(0.0, abs=1e-15)
    # (-1)((pi/2)(-1) + 2) = pi/2 - 2
    assert value_flow_angular_term(math.pi / 2) == pytest.approx(math.pi / 2 - 2.0, rel=1e-14)


def test_angular_term_nonpositive_on_grid():
    grid = np.linspace(0.0, math.pi, 10_000)
    assert np.max(value_flow_angular_term(grid)) <= 1e-12


def test_mixed_coefficient_nonnegative_on_grid():
    grid = np.linspace(0.0, math.pi, 10_000)
    vals = _coeffs_of_angle(grid)[0]
    assert vals.min() >= -1e-12
    # vanishes only at the antipodal angle (cubically, hence the window)
    assert np.all(grid[vals < 1e-9] > math.pi - 0.05)


def test_margin_zero_at_zero_angle():
    vals, defined = derivative_flow_margin_scan([0.0])
    assert defined[0]
    assert vals[0] == pytest.approx(0.0, abs=1e-12)


def test_margin_undefined_region_exists():
    grid = np.linspace(0.0, math.pi, 10_000)
    vals, defined = derivative_flow_margin_scan(grid)
    assert (~defined).sum() > 0
    val, defined_one = derivative_flow_margin_scan([2.5])
    assert not defined_one[0] and np.isnan(val[0])
    # one-angle scans agree with the grid scan: undefined exactly where it has NaN
    singles = [derivative_flow_margin_scan([t]) for t in grid]
    assert [bool(d[0]) for _, d in singles] == defined.tolist()
    assert np.isnan(vals[~defined]).all()
    defined_vals = [v[0] for v, d in singles if d[0]]
    np.testing.assert_allclose(defined_vals, vals[defined], rtol=0.0, atol=1e-12)


def test_margin_nonnegative_where_defined():
    grid = np.linspace(0.0, math.pi, 10_000)
    vals, defined = derivative_flow_margin_scan(grid)
    assert np.nanmin(vals) >= -1e-10
    near_zero = np.abs(vals[defined]) < 1e-8
    assert np.all(grid[defined][near_zero] < 1e-3)


def test_margin_out_of_domain():
    with pytest.raises(OutOfDomainError):
        derivative_flow_margin_scan([-0.5])


# -- cubic local minimum -------------------------------------------------------------

def test_cubic_known_minimum():
    # f(t) = t^3 - 3t: minimum at t=1 with f(1) = -2
    t0, f0 = cubic_local_min(1.0, 0.0, 3.0, 0.0)
    assert t0 == pytest.approx(1.0, rel=1e-15)
    assert f0 == pytest.approx(-2.0, rel=1e-15)


def test_cubic_discriminant_boundary():
    t0, f0 = cubic_local_min(1.0, 0.0, 0.0, 5.0)
    assert t0 == 0.0
    assert f0 == pytest.approx(5.0, rel=1e-15)


def test_cubic_rejects_bad_inputs():
    with pytest.raises(NoLocalMinError):
        cubic_local_min(-1.0, 0.0, 1.0, 0.0)
    with pytest.raises(NoLocalMinError):
        cubic_local_min(1.0, 0.0, -1.0, 0.0)


def test_cubic_closed_form_equals_direct_random():
    from soblab.convlab import random_admissible_cubic

    rng = np.random.default_rng(8)
    for _ in range(10_000):
        a, b, c, d = random_admissible_cubic(rng)
        t0, f0 = cubic_local_min(a, b, c, d)
        direct = a * t0**3 - b * t0**2 - c * t0 + d
        assert abs(f0 - direct) <= 1e-10


def test_derivative_cubic_matches_gradient_projection():
    # a x^3 - b x^2 - c x + d times mixed |w| |w*|^5 must reproduce
    # (w - w*) . derivative gradient for concrete realizations
    rng = np.random.default_rng(9)
    for _ in range(20):
        w_star = rng.standard_normal(3)
        w = rng.standard_normal(3)
        t = angle_between(w, w_star)
        a, b, c, d = derivative_cubic_coefficients(t)
        nw, nws = np.linalg.norm(w), np.linalg.norm(w_star)
        x = nw / nws
        lhs = float((w - w_star) @ derivative_flow_gradient(w, w_star))
        p0 = _coefficients(w, w_star)[0]
        rhs = p0 * nw * nws**5 * (a * x**3 - b * x**2 - c * x + d)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


# -- flows ------------------------------------------------------------------------------

def test_flow_constant_at_target():
    w_star = np.array([1.0, 0.5])
    traj = integrate_flow_batch(w_star, w_star, dt=1e-2, t_final=0.5)
    np.testing.assert_allclose(traj.dist2, 0.0, atol=1e-20)
    np.testing.assert_allclose(traj.weights[0, -1], w_star, atol=1e-14)


def test_flow_zero_horizon_single_row():
    w_star = np.array([1.0, 0.0])
    traj = integrate_flow_batch([0.8, 0.3], w_star, dt=1e-2, t_final=0.0)
    assert traj.times.shape == (1,)
    assert traj.weights.shape == (1, 1, 2)
    assert traj.modes == ("L2",)


@pytest.mark.parametrize("theta_range", [(1.6, 3.0), (1.53, 1.6), (1.0, 1.0), (1.2, 0.5)])
def test_sample_basin_rejects_an_angle_range_it_cannot_reach(theta_range):
    # a start within 0.999 |w*| of w* makes an angle below asin(0.999) ~ 1.526
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ConfigError, match="theta_range"):
        sample_basin(np.array([1.0, 0.0, 0.0]), 1, rng, theta_range=theta_range)
    assert rng.bit_generator.state == state  # nothing drawn


def test_sample_basin_reaches_angles_just_below_its_limit():
    rng = np.random.default_rng(0)
    w_star = np.array([1.0, 0.0])
    w = sample_basin(w_star, 2, rng, theta_range=(1.4, 3.0))
    assert np.all(angle_between(w, w_star) > 1.4)


def test_flow_converges_and_is_monotone():
    rng = np.random.default_rng(10)
    w_star = np.array([1.0, 0.0, 0.0])
    w0 = sample_basin(w_star, 1, rng, theta_range=(0.3, 1.2))[0]
    traj = integrate_flow_batch(w0, w_star, dt=0.02, t_final=80.0, mode="L2", record_every=10)
    assert np.all(np.diff(traj.dist2) <= 1e-12)
    assert math.sqrt(traj.dist2[0, -1]) < 1e-3
    assert np.all(traj.ddt_dist2 <= 1e-12)


def test_flow_derivative_mode_dominates():
    rng = np.random.default_rng(11)
    w_star = np.array([0.0, 1.0])
    w0 = sample_basin(w_star, 1, rng, theta_range=(0.4, 1.0))[0]
    kw = dict(dt=0.02, t_final=40.0, record_every=5)
    t_l2 = integrate_flow_batch(w0, w_star, mode="L2", **kw)
    t_sob = integrate_flow_batch(w0, w_star, mode="Sob", **kw)
    assert np.all(t_sob.dist2 <= t_l2.dist2 + 1e-12)
    assert t_sob.dist2[0, -1] < t_l2.dist2[0, -1]


def _reference_flow(w0, w_star, mode, dt, t_final, record_every):
    """The scalar RK4 loop the one-start flow used before it shared the
    batched loop, kept as the oracle: (times, weights, dist2, ddt_dist2)."""
    def rhs(u):
        g = value_flow_gradient(u, w_star)
        return -(g + derivative_flow_gradient(u, w_star) if mode == "Sob" else g)

    w, n_steps = np.asarray(w0, dtype=float), int(round(t_final / dt))
    rec = [(0.0, w, 2.0 * float((w - w_star) @ rhs(w)))]
    for step in range(1, n_steps + 1):
        k1 = rhs(w)
        k2 = rhs(w + 0.5 * dt * k1)
        k3 = rhs(w + 0.5 * dt * k2)
        k4 = rhs(w + dt * k3)
        w = w + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if step % record_every == 0 or step == n_steps:
            rec.append((step * dt, w, 2.0 * float((w - w_star) @ rhs(w))))
    times, weights, ddt = (np.array(col) for col in zip(*rec))
    return times, weights, np.sum((weights - w_star) ** 2, axis=1), ddt


@pytest.mark.parametrize("record_every", [1, 7])
@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("mode", ["L2", "Sob"])
def test_flow_matches_reference_loop(mode, n, record_every):
    rng = np.random.default_rng(13 + n)
    w_star = rng.standard_normal(n)
    w_star /= np.linalg.norm(w_star)  # keeps dist2 far above round-off over the horizon
    w0 = sample_basin(w_star, 1, rng, theta_range=(0.3, 2.5))[0]
    # 60 steps: with record_every=7 the last record falls off the stride
    dt, t_final = 0.05, 3.0
    traj = integrate_flow_batch(
        w0, w_star, dt=dt, t_final=t_final, mode=mode, record_every=record_every
    )
    times, weights, dist2, ddt = _reference_flow(w0, w_star, mode, dt, t_final, record_every)
    np.testing.assert_array_equal(traj.times, times)
    np.testing.assert_allclose(traj.weights[0], weights, rtol=1e-12)
    np.testing.assert_allclose(traj.dist2[0], dist2, rtol=1e-12)
    np.testing.assert_allclose(traj.ddt_dist2[0], ddt, rtol=1e-12)


def test_flow_batch_matches_single():
    rng = np.random.default_rng(12)
    w_star = np.array([1.0, 0.0])
    starts = sample_basin(w_star, 3, rng)
    kw = dict(dt=0.05, t_final=2.0, record_every=4)
    bundles = {}
    for mode in ("L2", "Sob"):
        bundle = integrate_flow_batch(starts, w_star, mode=mode, **kw)
        for i in range(3):
            traj = integrate_flow_batch(starts[i], w_star, mode=mode, **kw)
            np.testing.assert_allclose(bundle.dist2[i], traj.dist2[0], rtol=1e-12)
            np.testing.assert_allclose(bundle.weights[i], traj.weights[0], rtol=1e-12)
            np.testing.assert_allclose(bundle.ddt_dist2[i], traj.ddt_dist2[0], rtol=1e-12)
        bundles[mode] = bundle
    # a per-row mode sequence: one mixed bundle equals the two single-mode bundles
    mixed = integrate_flow_batch(
        np.concatenate([starts, starts]), w_star, mode=["L2"] * 3 + ["Sob"] * 3, **kw
    )
    assert mixed.modes == ("L2",) * 3 + ("Sob",) * 3
    for rows, mode in ((slice(0, 3), "L2"), (slice(3, 6), "Sob")):
        np.testing.assert_allclose(mixed.dist2[rows], bundles[mode].dist2, rtol=1e-12)
        np.testing.assert_allclose(mixed.weights[rows], bundles[mode].weights, rtol=1e-12)
    with pytest.raises(DimMismatchError):
        integrate_flow_batch(starts, w_star, mode=["L2", "Sob"], **kw)
    with pytest.raises(DimMismatchError):
        integrate_flow_batch(starts, [1.0, 0.0, 0.0], **kw)


def test_flow_batch_step_guard_names_the_step():
    # at dt = 4 the three stable starts converge to dist2 < 1e-12 within the
    # guard, while the start [1.314, -0.034] trips it at step 3
    w_star = np.array([1.0, 0.0])
    stable = [[0.915, -0.486], [0.907, 0.479], [0.855, 0.653]]
    kw = dict(dt=4.0, t_final=120.0)
    assert np.all(integrate_flow_batch(stable, w_star, **kw).dist2[:, -1] < 1e-12)
    with pytest.raises(StepTooLargeError) as single:
        integrate_flow_batch([1.314, -0.034], w_star, **kw)
    with pytest.raises(StepTooLargeError) as bundle:
        integrate_flow_batch(stable[:2] + [[1.314, -0.034]] + stable[2:], w_star, **kw)
    assert bundle.value.step_index == single.value.step_index == 3


def test_flow_step_guard_growth_bound_alone():
    # one step of dt = 7 from this start grows the squared distance by x1.36
    # while its RK4 increment stays close to dt * k1 (departure ratio 0.03,
    # limit 0.25), so only the 21% growth bound can trip it
    w0 = 1.25 * np.array([math.cos(0.5), math.sin(0.5)])
    for starts in (w0, [w0, w0]):
        with pytest.raises(StepTooLargeError) as guard:
            integrate_flow_batch(starts, [1.0, 0.0], dt=7.0, t_final=7.0, mode="L2")
        assert guard.value.step_index == 1


def test_flow_step_guard_catches_a_spurious_fixed_point():
    # at dt = 6.5 this start settles at w = [0.7512, 0], a fixed point of the
    # RK4 map but not of the flow, so the distance never grows; at dt = 0.05
    # the same start reaches dist2 ~ 4e-6 by t = 50
    args = ([0.41, -0.439], [1.0, 0.0])
    with pytest.raises(StepTooLargeError):
        integrate_flow_batch(*args, dt=6.5, t_final=6500.0)
    assert integrate_flow_batch(*args, dt=0.05, t_final=50.0).dist2[0, -1] < 1e-5


def test_flow_basin_guard_and_step_guard():
    w_star = np.array([1.0, 0.0])
    # a single start outside the basin, and a bundle with one row outside
    for starts in ([-1.5, 0.0], [[0.8, 0.3], [-1.5, 0.0]]):
        with pytest.raises(ConfigError):
            integrate_flow_batch(starts, w_star, t_final=1.0)
        traj = integrate_flow_batch(
            starts, w_star, dt=0.01, t_final=0.1, allow_outside_basin=True
        )
        assert np.all(np.isfinite(traj.dist2))
    with pytest.raises(StepTooLargeError):
        integrate_flow_batch([0.5, 0.45], w_star, dt=400.0, t_final=4000.0)


_BAD_GRIDS = {
    "dt_zero": dict(dt=0.0),
    "dt_negative": dict(dt=-0.01),
    "dt_nan": dict(dt=math.nan),
    "dt_inf": dict(dt=math.inf),
    "t_final_negative": dict(t_final=-5.0),
    "t_final_nan": dict(t_final=math.nan),
    "t_final_inf": dict(t_final=math.inf),
    "steps_overflow": dict(dt=1e-300, t_final=1e300),
    "record_every_zero": dict(record_every=0),
    "record_every_negative": dict(record_every=-3),
    "record_every_fraction": dict(record_every=2.5),
}


@pytest.mark.parametrize("case", sorted(_BAD_GRIDS))
def test_flow_grid_rejected_by_every_entry(case):
    # the one entry point, for a single start and for a two-mode bundle
    w_star = np.array([1.0, 0.0])
    grid = {"dt": 0.01, "t_final": 1.0, "record_every": 1, **_BAD_GRIDS[case]}
    with pytest.raises(ConfigError):
        integrate_flow_batch([0.8, 0.3], w_star, **grid)
    with pytest.raises(ConfigError):
        integrate_flow_batch([[0.8, 0.3]] * 2, w_star, mode=["L2", "Sob"], **grid)


def test_flow_two_modes_need_a_mode():
    for starts in ([0.8, 0.3], [[0.8, 0.3], [0.6, -0.2]]):
        with pytest.raises(ConfigError):
            integrate_flow_batch(starts, [1.0, 0.0], mode=[])
    with pytest.raises(ConfigError):
        integrate_flow_batch(np.empty((0, 2)), [1.0, 0.0])


def test_flow_rejects_a_zero_target_or_start():
    kw = dict(dt=0.1, t_final=0.3)
    with pytest.raises(ZeroVectorError):
        integrate_flow_batch([[0.5, 0.5]], [0.0, 0.0], **kw)
    with pytest.raises(ZeroVectorError):
        integrate_flow_batch([[0.0, 0.0]], [1.0, 0.0], **kw)
    with pytest.raises(ZeroVectorError):
        integrate_flow_batch([[0.8, 0.3], [0.0, 0.0], [0.6, -0.2]], [1.0, 0.0], **kw)


def test_flow_rejects_a_non_finite_target_or_start():
    kw = dict(dt=0.1, t_final=0.3)
    for starts, w_star in (
        ([math.nan, 0.5], [1.0, 0.0]),
        ([[0.8, 0.3], [0.6, math.inf]], [1.0, 0.0]),
        ([0.8, 0.3], [1.0, math.nan]),
    ):
        with pytest.raises(ConfigError):
            integrate_flow_batch(starts, w_star, allow_outside_basin=True, **kw)


@pytest.mark.parametrize("amplitude", [math.nan, math.inf, -math.inf])
def test_non_finite_amplitude_is_rejected(amplitude):
    w_star = np.array([1.0, 0.0])
    mu = (1.0, amplitude)
    for grad in (value_flow_gradient, derivative_flow_gradient):
        with pytest.raises(ConfigError):
            grad(np.array([0.8, 0.3]), w_star, mu)
    for starts in ([0.8, 0.3], [[0.8, 0.3], [0.6, -0.2]]):
        with pytest.raises(ConfigError):
            integrate_flow_batch(starts, w_star, mu=mu, dt=0.1, t_final=0.3)


@pytest.mark.parametrize("theta_clamp", [-1e-8, math.nan, math.pi / 2, 2.0, math.inf])
def test_theta_clamp_outside_its_range_is_rejected(theta_clamp):
    # a clamp of pi/2 or more makes the clip bounds meet or cross, and a
    # negative or NaN one would silently drop the clamp
    for starts in ([0.8, 0.3], [[0.8, 0.3], [0.6, -0.2]]):
        with pytest.raises(ConfigError):
            integrate_flow_batch(starts, [1.0, 0.0], dt=0.1, t_final=0.3, theta_clamp=theta_clamp)
    integrate_flow_batch([0.8, 0.3], [1.0, 0.0], dt=0.1, t_final=0.3, theta_clamp=0.0)
    integrate_flow_batch([0.8, 0.3], [1.0, 0.0], dt=0.1, t_final=0.3, theta_clamp=1.5)


# -- landscape ----------------------------------------------------------------------------

def test_landscape_near_fixed_point_small():
    table = descent_landscape(np.array([1e-4]), np.array([1.0]))
    assert abs(table.v_l2[0, 0]) < 1e-6
    assert abs(table.v_sob[0, 0]) < 1e-6


def test_landscape_derivative_never_hurts():
    thetas = np.linspace(0.05, math.pi - 0.05, 40)
    ratios = np.linspace(0.1, 3.0, 30)
    table = descent_landscape(thetas, ratios)
    assert table.defined.all()
    assert np.all(table.v_sob <= table.v_l2 + 1e-12)


def test_landscape_dimension_independent():
    # the planar landscape against its realization in 2 and 5 dimensions
    thetas = np.linspace(0.2, 2.8, 12)
    ratios = np.linspace(0.2, 2.0, 9)
    table = descent_landscape(thetas, ratios)
    tt, xx = np.meshgrid(thetas, ratios, indexing="ij")
    for dim in (2, 5):
        w_star = np.eye(dim)[dim - 1]
        w = np.zeros(tt.shape + (dim,))
        w[..., dim - 1] = xx * np.cos(tt)
        w[..., 0] = xx * np.sin(tt)
        diff = w - w_star
        v_l2 = -2.0 * np.sum(diff * value_flow_gradient(w, w_star), axis=-1)
        v_sob = v_l2 - 2.0 * np.sum(diff * derivative_flow_gradient(w, w_star), axis=-1)
        norm = 2.0 * _coefficients(w, w_star)[0] * xx
        np.testing.assert_allclose(table.v_l2, v_l2 / norm, atol=1e-10)
        np.testing.assert_allclose(table.v_sob, v_sob / norm, atol=1e-10)


def test_landscape_rejects_pi():
    with pytest.raises(PhiZeroError):
        descent_landscape(np.array([math.pi]), np.array([1.0]))
    with pytest.raises(OutOfDomainError):
        descent_landscape(np.array([-0.1]), np.array([1.0]))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_landscape_rejects_non_finite_grids(bad):
    with pytest.raises(OutOfDomainError):
        descent_landscape(np.array([1.0, bad]), np.array([1.0]))
    with pytest.raises(OutOfDomainError):
        descent_landscape(np.array([1.0]), np.array([bad, 1.0]))


def test_landscape_rejects_a_target_norm_that_is_not_positive():
    for nws in (0.0, -1.0, math.nan):
        with pytest.raises(OutOfDomainError):
            descent_landscape(np.array([1.0]), np.array([1.0]), w_star_norm=nws)

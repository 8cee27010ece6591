"""Closed-form half-space geometry, population gradients, inequalities."""

import math
import tracemalloc

import numpy as np
import pytest

from soblab import convlab
from soblab.convlab import (
    _coeffs_of_angle,
    _draw_terms,
    angle_between,
    cubic_local_min,
    derivative_cubic_coefficients,
    derivative_flow_margin_scan,
    descent_landscape,
    effective_amplitude,
    finite_sample_derivative_gradient,
    finite_sample_value_gradient,
    flow_gradients,
    gated_correlation,
    gated_correlation_sum,
    integrate_flow_batch,
    mc_gated_correlation,
    mc_quadrant_prob,
    quadrant_prob,
    sample_basin,
    validation_suite,
    value_flow_angular_term,
)
from soblab.errors import ConfigError, NumericalError, StepTooLargeError

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
    with pytest.raises(ConfigError, match="zero vector"):
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
    with pytest.raises(ConfigError, match="must be a unit vector"):
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
    with pytest.raises(ConfigError, match="incompatible with directions"):
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
    with pytest.raises(ConfigError, match="correlation must lie in"):
        quadrant_prob(1.5)


def test_quadrant_prob_monte_carlo():
    for rho in (-0.9, 0.0, 0.5, 0.9):
        assert abs(mc_quadrant_prob(rho, 400_000, seed=3) - quadrant_prob(rho)) < 5e-3


def _one_shot_gated_correlation(e, w, draws, seed):
    """The Monte Carlo that each draw group of 200,000 rows held whole."""
    n = e.shape[0]
    rng = np.random.default_rng(seed)
    total, total_sq, done = np.zeros(n), np.zeros(n), 0
    while done < draws:
        m = min(200_000, draws - done)
        x = rng.standard_normal((m, n))
        xw = x @ w
        rows = (((x @ e > 0) & (xw > 0)) * xw)[:, None] * x
        total += rows.sum(axis=0)
        total_sq += (rows * rows).sum(axis=0)
        done += m
    mean = total / draws
    return mean, np.sqrt(np.maximum(total_sq / draws - mean * mean, 0.0) / draws)


def _one_shot_quadrant_prob(rho, draws, seed):
    rng = np.random.default_rng(seed)
    z1 = rng.standard_normal(draws)
    z2 = rng.standard_normal(draws)
    y = rho * z1 + math.sqrt(max(0.0, 1.0 - rho * rho)) * z2
    return float(np.mean((z1 > 0) & (y > 0)))


# one draw, a partial block, one whole group, and two groups and a partial one
@pytest.mark.parametrize("draws", [1, 16_385, 200_000, 450_001])
@pytest.mark.parametrize("n", [1, 2, 5, 10])
def test_blocked_gated_correlation_equals_the_one_shot_sums(n, draws):
    rng = np.random.default_rng(n)
    e = rng.standard_normal(n)
    e /= np.linalg.norm(e)
    w = rng.standard_normal(n)
    mean, se = mc_gated_correlation(e, w, draws, seed=draws)
    one_mean, one_se = _one_shot_gated_correlation(e, w, draws, seed=draws)
    assert np.array_equal(mean, one_mean) and np.array_equal(se, one_se)


@pytest.mark.parametrize("draws", [400_000, 1_000_001])
@pytest.mark.parametrize("rho", [-0.9, 0.0, 0.5, 0.9])
def test_blocked_quadrant_prob_equals_the_one_shot_mean(rho, draws):
    got = mc_quadrant_prob(rho, draws, seed=7)
    assert type(got) is float and got == _one_shot_quadrant_prob(rho, draws, seed=7)


@pytest.mark.parametrize("draws", [0, -3, 2.5, True])
def test_a_bad_draw_count_is_refused(draws):
    e = np.array([1.0, 0.0])
    with pytest.raises(ConfigError, match="draws must be an integer >= 1"):
        mc_gated_correlation(e, np.array([0.5, 0.5]), draws)
    with pytest.raises(ConfigError, match="draws must be an integer >= 1"):
        mc_quadrant_prob(0.5, draws)


def test_validation_suite_holds_blocks_not_draw_tables():
    tracemalloc.start()
    try:
        validation_suite(seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # whole 200,000 x 10 draw tables and whole flow-record temporaries peak at 47.5 MiB
    assert peak < 16 * 2**20


def _sequential_suite(seed):
    """validation_suite as it ran before its checks became jobs: one check
    after another, each drawing its inputs from the generator in turn."""
    rng = np.random.default_rng(seed)
    verdicts = []

    def add(name, statistic, bound, lower=False):
        statistic, bound = float(statistic), float(bound)
        ok = statistic >= bound if lower else statistic <= bound
        verdicts.append({"name": name, "statistic": statistic, "bound": bound, "pass": ok})

    worst = 0.0
    for i in range(6):
        n = (2, 5, 10)[i % 3]
        e = rng.standard_normal(n)
        e /= np.linalg.norm(e)
        w = rng.standard_normal(n)
        mean, se = mc_gated_correlation(e, w, 200_000, seed=int(rng.integers(2**63)))
        ratio = np.abs(mean - gated_correlation(e, w)) / np.maximum(se, 1e-300)
        worst = max(worst, float(ratio.max()))
    add("gated_correlation_mc_3se", worst, 3.0)
    worst = 0.0
    for rho in (-0.9, 0.0, 0.5, 0.9):
        emp = mc_quadrant_prob(rho, 400_000, seed=int(rng.integers(2**63)))
        worst = max(worst, abs(emp - quadrant_prob(rho)))
    add("quadrant_prob_mc_absdiff", worst, 5e-3)
    grid = np.linspace(0.0, math.pi, 10_000)
    add("value_angular_term_max", np.max(value_flow_angular_term(grid)), 1e-12)
    add("mixed_coefficient_min", np.min(_coeffs_of_angle(grid)[0]), -1e-12, lower=True)
    margins, defined = derivative_flow_margin_scan(grid)
    add("derivative_margin_min", np.nanmin(margins), -1e-10, lower=True)
    add("derivative_margin_zero_only_at_0",
        np.all(grid[defined][margins[defined] < 1e-8] < 1e-3), 1.0, lower=True)
    worst = 0.0
    for _ in range(2_000):
        a, b, c, d = convlab.random_admissible_cubic(rng)
        t0, f0 = cubic_local_min(a, b, c, d)
        worst = max(worst, abs(f0 - (a * t0**3 - b * t0**2 - c * t0 + d)))
    add("cubic_min_closed_vs_direct", worst, 1e-10)
    worst = 0.0
    for n in (3, 5):
        w_star = rng.standard_normal(n)
        w = sample_basin(w_star, 1, rng)[0]
        acc_v, acc_d = np.zeros(n), np.zeros(n)
        terms = _draw_terms(w, w_star)
        for _ in range(60):
            x = rng.standard_normal((2_000, n))
            acc_v += finite_sample_value_gradient(x, terms)
            acc_d += finite_sample_derivative_gradient(x, terms)
        for acc, closed in zip((acc_v, acc_d), flow_gradients(w, w_star)):
            worst = max(worst, float(np.linalg.norm(acc / 60 - closed) / np.linalg.norm(closed)))
    add("population_gradient_mc_rel", worst, 0.02)
    w_star = np.array([1.0, 0.0, 0.0])
    starts = sample_basin(w_star, 16, rng, theta_range=(0.05, math.pi - 0.05))
    d2 = integrate_flow_batch(np.concatenate([starts, starts]), w_star, dt=0.02, t_final=80.0,
                              mode=["L2"] * 16 + ["Sob"] * 16).dist2
    d_l2, d_sob = d2[:16], d2[16:]
    add("flow_l2_monotone_max_increase", np.max(np.diff(d_l2, axis=-1)), 1e-12)
    add("flow_l2_final_distance", np.max(np.sqrt(d_l2[:, -1])), 1e-3)
    add("flow_sob_dominance_max_excess", np.max(d_sob - d_l2), 1e-12)
    return verdicts


def test_validation_suite_on_workers_equals_the_sequential_suite():
    # seed 2 fails its gated-correlation verdict: the failure is the same too
    verdicts = validation_suite(seed=2, threads=2)
    assert verdicts == _sequential_suite(2)
    assert [v["name"] for v in verdicts if not v["pass"]] == ["gated_correlation_mc_3se"]


# -- population gradients --------------------------------------------------------

def test_gradients_vanish_at_target():
    w = np.array([0.3, -1.2, 0.8])
    for g in flow_gradients(w, w):
        np.testing.assert_allclose(g, 0.0, atol=1e-12)


def test_gradients_reject_zero_vectors():
    with pytest.raises(ConfigError, match="zero vector"):
        flow_gradients(np.zeros(2), np.ones(2))


def test_value_gradient_positive_alignment_in_basin():
    rng = np.random.default_rng(4)
    w_star = rng.standard_normal(4)
    starts = sample_basin(w_star, 10_000, rng)
    g = flow_gradients(starts, w_star)[0]
    dots = np.sum((starts - w_star) * g, axis=-1)
    assert dots.min() >= -1e-12


def test_derivative_gradient_positive_alignment_in_basin():
    rng = np.random.default_rng(5)
    w_star = rng.standard_normal(3)
    starts = sample_basin(w_star, 10_000, rng)
    g = flow_gradients(starts, w_star)[1]
    dots = np.sum((starts - w_star) * g, axis=-1)
    assert dots.min() >= -1e-12


def test_value_gradient_matches_monte_carlo():
    rng = np.random.default_rng(6)
    w_star = rng.standard_normal(3)
    w = sample_basin(w_star, 1, rng)[0]
    acc = np.zeros(3)
    draws = 100
    terms = _draw_terms(w, w_star)
    for _ in range(draws):
        acc += finite_sample_value_gradient(rng.standard_normal((10_000, 3)), terms)
    closed = flow_gradients(w, w_star)[0]
    rel = np.linalg.norm(acc / draws - closed) / np.linalg.norm(closed)
    assert rel < 0.02


def test_derivative_gradient_matches_monte_carlo():
    rng = np.random.default_rng(7)
    w_star = rng.standard_normal(3)
    w = sample_basin(w_star, 1, rng)[0]
    acc = np.zeros(3)
    draws = 100
    terms = _draw_terms(w, w_star)
    for _ in range(draws):
        acc += finite_sample_derivative_gradient(rng.standard_normal((10_000, 3)), terms)
    closed = flow_gradients(w, w_star)[1]
    rel = np.linalg.norm(acc / draws - closed) / np.linalg.norm(closed)
    assert rel < 0.02


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
    with pytest.raises(ConfigError, match="angle must lie in"):
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
    with pytest.raises(ConfigError, match="leading coefficient must be positive"):
        cubic_local_min(-1.0, 0.0, 1.0, 0.0)
    with pytest.raises(ConfigError, match="discriminant"):
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
        lhs = float((w - w_star) @ flow_gradients(w, w_star)[1])
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
        g_value, g_der = flow_gradients(u, w_star)
        return -(g_value + g_der if mode == "Sob" else g_value)

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
    with pytest.raises(ConfigError, match="modes disagree"):
        integrate_flow_batch(starts, w_star, mode=["L2", "Sob"], **kw)
    with pytest.raises(ConfigError, match="modes disagree"):
        integrate_flow_batch(starts, [1.0, 0.0, 0.0], **kw)


@pytest.mark.parametrize("mode", ["L2", "Sob"])
def test_a_zero_padded_start_keeps_the_bits_of_its_planar_flow(mode):
    # the flow command's default start, in the plane and zero-padded to n = 10
    w0, w_star = np.array([math.cos(0.8), math.sin(0.8)]), np.array([1.0, 0.0])
    kw = dict(dt=0.01, t_final=5.0, mode=mode, record_every=10)
    planar = integrate_flow_batch(w0, w_star, **kw)
    padded = integrate_flow_batch(np.pad(w0, (0, 8)), np.pad(w_star, (0, 8)), **kw)
    for name in ("times", "dist2", "ddt_dist2"):
        assert getattr(padded, name).tobytes() == getattr(planar, name).tobytes(), name
    assert padded.weights[..., :2].tobytes() == planar.weights.tobytes()
    assert padded.weights[..., 2:].tobytes() == np.zeros(padded.weights[..., 2:].shape).tobytes()


def test_flow_records_in_column_blocks_equal_one_block(monkeypatch):
    rng = np.random.default_rng(4)
    w_star = np.array([1.0, 0.0, 0.0])
    starts = sample_basin(w_star, 3, rng)
    kw = dict(dt=0.05, t_final=2.0, mode=["L2", "Sob", "Sob"], record_every=3)
    whole = integrate_flow_batch(starts, w_star, **kw)
    # 14 records of 3 rows x 3 coordinates, two records a block
    monkeypatch.setattr(convlab, "_BLOCK_ELEMENTS", 4 * 2 * 9)
    blocked = integrate_flow_batch(starts, w_star, **kw)
    for name in ("times", "weights", "dist2", "ddt_dist2"):
        assert np.array_equal(getattr(blocked, name), getattr(whole, name)), name


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


# the starts of `flow --ratio0 R --allow-outside`: |w| = R at angle 0.8 to w* = e1
def _far_start(ratio):
    return [ratio * math.cos(0.8), ratio * math.sin(0.8)]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mode", ["L2", "Sob"])
def test_flow_step_guard_trips_on_a_non_finite_distance(mode):
    # the first RK4 step from |w| = 1e30 overflows to NaN, which no
    # comparison with the growth bound catches; a bundle that also holds
    # an ordinary start fails at the same step as the single start
    kw = dict(dt=0.01, t_final=1.0, mode=mode, allow_outside_basin=True)
    for starts in (_far_start(1e30), [_far_start(1e30)] * 2, [[0.8, 0.3], _far_start(1e30)]):
        with pytest.raises(StepTooLargeError, match="step 1 too large") as guard:
            integrate_flow_batch(starts, [1.0, 0.0], **kw)
        assert guard.value.step_index == 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mode", ["L2", "Sob"])
def test_flow_with_a_non_finite_record_is_a_numerical_error(mode):
    # with no step, the recorded rate at |w| = 1e100 overflows, not a step
    kw = dict(dt=0.01, t_final=0.0, mode=mode, allow_outside_basin=True)
    for starts in (_far_start(1e100), [[0.8, 0.3], _far_start(1e100)]):
        with pytest.raises(NumericalError, match="recorded distance or rate is not finite"):
            integrate_flow_batch(starts, [1.0, 0.0], **kw)
    assert np.isfinite(integrate_flow_batch(_far_start(1e20), [1.0, 0.0], **kw).ddt_dist2).all()


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
    "record_every_bool": dict(record_every=True),
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
    with pytest.raises(ConfigError, match="zero vector"):
        integrate_flow_batch([[0.5, 0.5]], [0.0, 0.0], **kw)
    with pytest.raises(ConfigError, match="zero vector"):
        integrate_flow_batch([[0.0, 0.0]], [1.0, 0.0], **kw)
    with pytest.raises(ConfigError, match="zero vector"):
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
        g_value, g_der = flow_gradients(w, w_star)
        v_l2 = -2.0 * np.sum(diff * g_value, axis=-1)
        v_sob = v_l2 - 2.0 * np.sum(diff * g_der, axis=-1)
        norm = 2.0 * _coefficients(w, w_star)[0] * xx
        np.testing.assert_allclose(table.v_l2, v_l2 / norm, atol=1e-10)
        np.testing.assert_allclose(table.v_sob, v_sob / norm, atol=1e-10)


def test_landscape_rejects_pi():
    with pytest.raises(ConfigError, match="theta = pi is excluded"):
        descent_landscape(np.array([math.pi]), np.array([1.0]))
    with pytest.raises(ConfigError, match="grids must lie in"):
        descent_landscape(np.array([-0.1]), np.array([1.0]))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_landscape_rejects_non_finite_grids(bad):
    with pytest.raises(ConfigError, match="grids must be finite"):
        descent_landscape(np.array([1.0, bad]), np.array([1.0]))
    with pytest.raises(ConfigError, match="grids must be finite"):
        descent_landscape(np.array([1.0]), np.array([bad, 1.0]))

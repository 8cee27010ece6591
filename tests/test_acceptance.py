"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Training-based criteria use the adaptive-moment
optimizer option and take a couple of minutes; everything else is fast.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from helpers import save_cloud_csv

from soblab import convlab, mls, parallel
from soblab.cli.main import main as cli_main
from soblab.geometry import PointCloud
from soblab.training import (
    DatasetSizes,
    TrainConfig,
    forward_state,
    make_operator_net,
    pcgrad_merge,
    synth_dataset,
    train,
)
from soblab.training.operator_net import evaluate_losses, loss_gradients


def report(number, name, passed, detail, started):
    elapsed = time.time() - started
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {number:02d} {name}: {status} ({detail}; {elapsed:.1f}s)")
    assert passed, f"criterion {number} {name}: {detail}"


def test_c01_mls_polynomial_exactness():
    started = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    combos = [(n, m) for n in (1, 2, 3) for m in (1, 2, 3)]
    for trial in range(50):
        n, m = combos[trial % len(combos)]
        indices = mls.enumerate_multi_indices(n, m)
        coeff = {alpha: float(rng.uniform(-1.0, 1.0)) for alpha in indices}
        fn = mls.polynomial_function(coeff, n)
        # density matched to dimension: third derivatives on an overly fine
        # 1-D stencil hit the float64 information floor, not a method limit
        count = int(rng.integers(40, 100)) if n == 1 else int(rng.integers(120, 240))
        pts = rng.random((count, n))
        cloud = PointCloud(points=pts, values=fn.value(pts))
        k = min(count, max(2 * len(indices), 16))
        jet = mls.estimate_derivatives(cloud, mls.MlsConfig(k=k, m=m))
        for alpha in indices:
            err = np.abs(
                mls.derivative_field(jet, alpha) - fn.derivative(alpha, pts)
            ).max()
            worst = max(worst, float(err))
    report(1, "mls-exactness", worst <= 1e-8, f"max derivative error {worst:.2e}", started)


def test_c02_mls_convergence_rate():
    started = time.time()
    fn = mls.sin_cos_2d()
    cfg = mls.MlsConfig(k=20, m=2)
    slopes = []
    ok = True
    for seed in range(5):
        study = mls.convergence_study(fn, [500, 2000, 8000], cfg, seed=seed)
        _, _, errs = study.mse_series(1)
        ok &= bool(np.all(np.diff(errs) < 0))
        slopes.append(study.slopes[1])
        ok &= study.slopes[1] > 0.8
    report(
        2,
        "mls-rate",
        ok,
        f"slopes {['%.2f' % s for s in slopes]}, errors strictly decreasing",
        started,
    )


def _on_every_cpu(fn, jobs):
    """[fn(job) for job in jobs], the jobs run in shares on every usable CPU
    (parallel.fork_map): each result has the bits of a sequential run."""
    shares = parallel.split(jobs, parallel.usable_cpus())
    with parallel.fork_map(fn, shares) as results:
        return list(results)


def _gated_ratio(pair):
    e, w, seed = pair
    mean, se = convlab.mc_gated_correlation(e, w, draws=1_000_000, seed=seed)
    closed = convlab.gated_correlation(e, w)
    return float(np.max(np.abs(mean - closed) / se))


def test_c03_gated_correlation_monte_carlo():
    started = time.time()
    rng = np.random.default_rng(103)
    dims = (2, 5, 10)
    pairs = []
    for pair in range(20):
        n = dims[pair % 3]
        e = rng.standard_normal(n)
        e /= np.linalg.norm(e)
        pairs.append((e, rng.standard_normal(n), int(rng.integers(2**63))))
    worst_ratio = 0.0
    for ratio in _on_every_cpu(_gated_ratio, pairs):
        worst_ratio = max(worst_ratio, ratio)
    report(
        3,
        "gated-correlation-mc",
        worst_ratio <= 3.0,
        f"worst deviation {worst_ratio:.2f} standard errors",
        started,
    )


def test_c04_quadrant_probability_monte_carlo():
    started = time.time()
    worst = 0.0
    for i, rho in enumerate((-0.9, 0.0, 0.5, 0.9)):
        emp = convlab.mc_quadrant_prob(rho, 1_000_000, seed=104 + i)
        worst = max(worst, abs(emp - convlab.quadrant_prob(rho)))
    report(4, "quadrant-probability-mc", worst < 5e-3, f"max |diff| {worst:.2e}", started)


def test_c05_inequality_scans():
    started = time.time()
    grid = np.linspace(0.0, math.pi, 10_000)
    g_max = float(np.max(convlab.value_flow_angular_term(grid)))
    from soblab.convlab import _coeffs_of_angle

    p0_min = float(np.min(_coeffs_of_angle(grid)[0]))
    margins, defined = convlab.derivative_flow_margin_scan(grid)
    m_min = float(np.nanmin(margins))
    near_zero = np.abs(margins[defined]) < 1e-8
    zero_locus_ok = bool(np.all(grid[defined][near_zero] < 1e-3))
    ok = g_max <= 1e-12 and p0_min >= -1e-12 and m_min >= -1e-10 and zero_locus_ok
    report(
        5,
        "inequality-scans",
        ok,
        f"g_max {g_max:.1e}, p0_min {p0_min:.1e}, margin_min {m_min:.1e}, "
        f"zero only at origin {zero_locus_ok}",
        started,
    )


def test_c06_gradient_flow_convergence_and_dominance():
    started = time.time()
    rng = np.random.default_rng(106)
    ok = True
    details = []
    for dim in (2, 5):
        w_star = np.zeros(dim)
        w_star[0] = 1.0
        starts = convlab.sample_basin(
            w_star, 50, rng, theta_range=(0.05, math.pi - 0.05)
        )
        d_l2, d_sob = (
            convlab.integrate_flow_batch(
                starts, w_star, dt=0.02, t_final=80.0, mode=mode, record_every=5
            ).dist2
            for mode in ("L2", "Sob")
        )
        monotone = float(np.max(np.diff(d_l2, axis=-1)))
        final = float(np.max(np.sqrt(d_l2[:, -1])))
        excess = float(np.max(d_sob - d_l2))
        strict = bool(np.all(d_sob[:, -1] < d_l2[:, -1]))
        ok &= monotone <= 1e-12 and final < 1e-3 and excess <= 1e-12 and strict
        details.append(
            f"n={dim}: max increase {monotone:.1e}, final {final:.1e}, "
            f"dominance excess {excess:.1e}, strict-at-T {strict}"
        )
    report(6, "gradient-flow", ok, "; ".join(details), started)


def test_c07_cubic_closed_form():
    started = time.time()
    rng = np.random.default_rng(107)
    worst = 0.0
    for _ in range(10_000):
        a, b, c, d = convlab.random_admissible_cubic(rng)
        t0, f0 = convlab.cubic_local_min(a, b, c, d)
        direct = a * t0**3 - b * t0**2 - c * t0 + d
        worst = max(worst, abs(f0 - direct))
    report(7, "cubic-local-min", worst <= 1e-10, f"max |closed - direct| {worst:.1e}", started)


def test_c08_backprop_vs_finite_differences():
    started = time.time()
    rng = np.random.default_rng(108)
    sensor_points = rng.random((10, 1))
    net = make_operator_net(2, sensor_points, rank=3, hidden=(10, 10), seed=108)
    inputs, queries = rng.normal(size=(4, 10)), rng.normal(size=(6, 2))
    targets, d_targets = rng.normal(size=(4, 6)), rng.normal(size=(4, 6, 2))
    worst = 0.0
    params = net.params.copy()
    step = 1e-6

    # the two calls of a training step: evaluate_losses, then loss_gradients
    def loss(kind):
        l2, der = evaluate_losses(forward_state(net, queries), inputs, targets, d_targets)[3:]
        return l2 if kind == "l2" else der

    for index, kind in enumerate(("l2", "der")):
        state = forward_state(net, queries)
        rows = evaluate_losses(state, inputs, targets, d_targets)[:3]
        grad = loss_gradients(net, state, inputs, *rows)[index]
        coords = rng.choice(net.n_params, size=32, replace=False)
        for c in coords:
            net.params[c] = params[c] + step
            up = loss(kind)
            net.params[c] = params[c] + step - 2 * step
            down = loss(kind)
            net.params[:] = params
            fd = (up - down) / (2 * step)
            denom = max(abs(fd), abs(grad[c]), 1e-8)
            worst = max(worst, abs(grad[c] - fd) / denom)
    report(
        8,
        "backprop-vs-finite-differences",
        worst < 1e-4,
        f"worst relative error {worst:.1e} over 32 coordinates per loss",
        started,
    )


def test_c09_gradient_surgery_contract():
    started = time.time()
    rng = np.random.default_rng(109)
    worst = 0.0
    exact_sum_ok = True
    for _ in range(10_000):
        dim = int(rng.integers(2, 513))
        g1 = rng.standard_normal(dim)
        g2 = rng.standard_normal(dim)
        merged = pcgrad_merge(g1, g2)
        worst = min(worst, float(merged @ g1), float(merged @ g2))
        if g1 @ g2 >= 0:
            exact_sum_ok &= bool(np.array_equal(merged, g1 + g2))
    ok = worst >= -1e-12 and exact_sum_ok
    report(
        9,
        "gradient-surgery",
        ok,
        f"min inner product {worst:.1e}, no-conflict merges exact {exact_sum_ok}",
        started,
    )


BENCH_SIZES = DatasetSizes(train=64, val=8, test=16, sensors=32, queries=96)


def _bench_run(mode, seed, epochs, noise=0.0):
    ds = synth_dataset(
        "antiderivative1d", sizes=BENCH_SIZES, noise=noise, seed=seed, derivative_source="mls"
    )
    cfg = TrainConfig(epochs=epochs, learning_rate=3e-3, optimizer="adam", seed=seed)
    return train(cfg, ds, mode).final_test_rel_l2


def test_c10_sobolev_benefit_direction():
    started = time.time()
    finals = {m: [] for m in ("ordinary", "sobolev", "sobolev+pcgrad")}
    jobs = [(mode, seed) for seed in range(5) for mode in finals]
    runs = _on_every_cpu(lambda job: _bench_run(*job, epochs=600), jobs)
    for (mode, _), final in zip(jobs, runs):
        finals[mode].append(final)
    med = {m: float(np.median(v)) for m, v in finals.items()}
    ok = (
        med["sobolev"] <= 1.05 * med["ordinary"]
        and med["sobolev+pcgrad"] <= 1.05 * med["sobolev"]
    )
    report(
        10,
        "sobolev-benefit",
        ok,
        f"medians: ordinary {med['ordinary']:.4f}, sobolev {med['sobolev']:.4f}, "
        f"sobolev+pcgrad {med['sobolev+pcgrad']:.4f}",
        started,
    )


def test_c11_noise_robustness_direction():
    started = time.time()
    # seed-major, so that each share of the jobs holds both modes
    jobs = [(mode, seed) for seed in range(5) for mode in ("ordinary", "sobolev")]
    finals = _on_every_cpu(
        lambda job: [_bench_run(*job, epochs=2500, noise=noise) for noise in (0.0, 0.03)], jobs)
    ratios = {}
    for mode in ("ordinary", "sobolev"):
        per_seed = [noisy / clean for (m, _), (clean, noisy) in zip(jobs, finals) if m == mode]
        ratios[mode] = float(np.median(per_seed))
    ok = ratios["ordinary"] > ratios["sobolev"]
    report(
        11,
        "noise-robustness",
        ok,
        f"median noisy/clean inflation: ordinary {ratios['ordinary']:.3f} "
        f"vs sobolev {ratios['sobolev']:.3f} at sigma=3%",
        started,
    )


def _snapshot(directory):
    out = {}
    for p in sorted(Path(directory).rglob("*")):
        if p.is_file() and p.name != "manifest.json":
            out[str(p.relative_to(directory))] = p.read_bytes()
    return out


def test_c12_cli_rerun_byte_identical(tmp_path):
    started = time.time()
    xs = np.linspace(0.0, 1.0, 6)
    pts = np.array([[a, b] for a in xs for b in xs])
    cloud_path = tmp_path / "cloud.csv"
    save_cloud_csv(PointCloud(points=pts, values=pts[:, 0] * pts[:, 1]), cloud_path)
    fast_train = [
        "--epochs", "3", "--train-size", "6", "--val-size", "3", "--test-size", "3",
        "--sensors", "12", "--queries", "24", "--k", "8", "--rank", "3", "--hidden", "8",
    ]
    commands = {
        "derivs": ["derivs", "--input", str(cloud_path), "--k", "8", "--m", "2"],
        "rates": ["rates", "--function", "sincos", "--resolutions", "200,400,800"],
        "flow": ["flow", "--theta0", "0.7", "--ratio0", "1.0", "--mode", "both", "--T", "5"],
        "landscape": ["landscape", "--theta-steps", "10", "--x-steps", "8"],
        "train": ["train", "--mode", "sobolev", *fast_train],
        "sweep": [
            "sweep", "--param", "noise", "--values", "0,0.02", "--repeats", "1",
            "--mode", "ordinary", *fast_train,
        ],
        "validate": ["validate"],
    }
    ok = True
    failures = []
    for name, argv in commands.items():
        first = tmp_path / f"{name}-a"
        second = tmp_path / f"{name}-b"
        code = cli_main(["--seed", "1", "--out-dir", str(first), *argv])
        ok &= code == 0
        code = cli_main(["--out-dir", str(second), "--from-manifest", str(first / "manifest.json")])
        ok &= code == 0
        if _snapshot(first) != _snapshot(second):
            ok = False
            failures.append(name)
    detail = "all commands byte-identical on manifest replay" if ok else f"mismatch: {failures}"
    report(12, "cli-reproducibility", ok, detail, started)

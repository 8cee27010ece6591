"""Command-line contract: outputs, exit codes, manifests, reproducibility."""

import csv
import io
import json
import os
from pathlib import Path

import numpy as np
import pytest
from helpers import save_cloud_csv

from soblab import errors, geometry, mls
from soblab.cli import io as cli_io
from soblab.cli import main as cli
from soblab.cli import svg
from soblab.cli.io import atomic_write_text, write_csv
from soblab.cli.main import DEFAULTS, build_parser, main
from soblab.cli.manifest import file_digest
from soblab.convlab import (
    angle_between,
    cubic_local_min,
    descent_landscape,
    gated_correlation,
    gated_correlation_sum,
    quadrant_prob,
)
from soblab.errors import InputError
from soblab.geometry import PointCloud, build_index, knn_all, load_cloud_csv
from soblab.mls import weight
from soblab.training import DatasetSizes, TrainConfig, synth_dataset, train
from soblab.training.datasets import mls_derivative_targets
from soblab.training.losses import relative_l2_error, residual


def read_csv(path):
    """Read a CSV written by write_csv: (header, list of row lists).

    Numeric-looking cells come back as float or int, everything else as
    string, so writing the parsed rows again is byte identical.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[_parse_cell(c) for c in row] for row in reader if row]
    return header, rows


def _parse_cell(c: str):
    try:
        return int(c)
    except ValueError:
        pass
    try:
        return float(c)
    except ValueError:
        return c


def run_cli(*argv):
    return main([str(a) for a in argv])


def grid_csv(tmp_path, n=5):
    xs = np.linspace(0.0, 1.0, n)
    pts = np.array([[a, b] for a in xs for b in xs])
    cloud = PointCloud(points=pts, values=pts[:, 0] + pts[:, 1])
    path = tmp_path / "grid.csv"
    save_cloud_csv(cloud, path)
    return path


def read_all_bytes(directory, skip=("manifest.json",)):
    out = {}
    for p in sorted(Path(directory).rglob("*")):
        if p.is_file() and p.name not in skip:
            out[str(p.relative_to(directory))] = p.read_bytes()
    return out


# -- derivs ---------------------------------------------------------------------

def test_derivs_plane_gradients(tmp_path):
    data = grid_csv(tmp_path)
    out = tmp_path / "out"
    assert run_cli("--out-dir", out, "derivs", "--input", data, "--k", 6, "--m", 1) == 0
    header, rows = read_csv(out / "jets.csv")
    assert header[:3] == ["j", "x1", "x2"]
    c10 = header.index("c_1_0")
    c01 = header.index("c_0_1")
    for row in rows:
        assert row[c10] == pytest.approx(1.0, abs=1e-9)
        assert row[c01] == pytest.approx(1.0, abs=1e-9)
    assert (out / "manifest.json").exists()


def test_derivs_flags_every_stencil_of_a_near_line_cloud(tmp_path, capsys):
    # y = x + 1e-9 N(0, 1): the ridge decides the cross-direction terms of
    # every stencil, and the run still exits 0 with an empty stderr
    x = np.random.default_rng(9).random(500)
    pts = np.column_stack([x, x + 1e-9 * np.random.default_rng(10).standard_normal(500)])
    save_cloud_csv(PointCloud(points=pts, values=np.sin(x)), tmp_path / "line.csv")
    for data, flag in ((tmp_path / "line.csv", 1), (grid_csv(tmp_path), 0)):
        out = tmp_path / data.stem
        assert run_cli("--out-dir", out, "derivs", "--input", data) == 0
        assert capsys.readouterr().err == ""
        header, rows = read_csv(out / "jets.csv")
        assert [row[header.index("flagged")] for row in rows] == [flag] * len(rows)


def test_derivs_fits_single_point_stencils(tmp_path):
    # K = 1, m = 0: each jet is its own point's value
    data = grid_csv(tmp_path)
    out = tmp_path / "out"
    assert run_cli("--out-dir", out, "derivs", "--input", data, "--k", 1, "--m", 0) == 0
    header, rows = read_csv(out / "jets.csv")
    assert header == ["j", "x1", "x2", "c_0_0", "flagged"]
    assert all(row[3] == pytest.approx(row[1] + row[2], abs=1e-15) and row[4] == 0 for row in rows)


def test_derivs_k_below_basis_exits_3(tmp_path, capsys):
    data = grid_csv(tmp_path)
    code = run_cli("--out-dir", tmp_path / "o", "derivs", "--input", data, "--k", 3, "--m", 2)
    assert code == 3
    message = capsys.readouterr().err
    assert "K >= I" in message


def test_derivs_bad_csv_exits_2(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("x1,x2,u\n0.0,oops,1.0\n")
    assert run_cli("--out-dir", tmp_path / "o", "derivs", "--input", bad) == 2
    missing = tmp_path / "missing.csv"
    assert run_cli("--out-dir", tmp_path / "o", "derivs", "--input", missing) == 2


def test_derivs_deterministic_rerun(tmp_path):
    data = grid_csv(tmp_path)
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    run_cli("--out-dir", out1, "derivs", "--input", data, "--k", 6, "--m", 1)
    run_cli("--out-dir", out2, "--from-manifest", out1 / "manifest.json")
    assert read_all_bytes(out1) == read_all_bytes(out2)


# -- rates ----------------------------------------------------------------------

def test_rates_polynomial_exact(tmp_path):
    out = tmp_path / "r"
    code = run_cli(
        "--seed", 0, "--out-dir", out, "rates",
        "--function", "plane", "--resolutions", "100,200,400", "--k", 8, "--m", 1,
    )
    assert code == 0
    header, rows = read_csv(out / "rates.csv")
    mse = header.index("mse")
    exact = header.index("exact")
    for row in rows:
        assert row[mse] < 1e-10
        assert row[exact] == 1
    assert (out / "rates.svg").exists()


def test_rates_sincos_positive_slope(tmp_path):
    out = tmp_path / "r"
    run_cli(
        "--seed", 0, "--out-dir", out, "rates",
        "--function", "sincos", "--resolutions", "300,600,1200", "--orders", "1",
    )
    header, rows = read_csv(out / "rates.csv")
    slope = header.index("slope_running")
    assert rows[-1][slope] > 0


def test_rates_seed_beyond_int64_is_written_in_full(tmp_path):
    out = tmp_path / "r"
    seed = 99999999999999999999
    assert run_cli(
        "--seed", seed, "--out-dir", out, "rates",
        "--function", "plane", "--resolutions", "50,100,200", "--k", 8, "--m", 1,
    ) == 0
    header, rows = read_csv(out / "rates.csv")
    assert [row[header.index("seed")] for row in rows] == [seed] * len(rows) and rows


def test_rates_requires_resolutions(tmp_path):
    assert run_cli("--out-dir", tmp_path, "rates", "--function", "sincos") == 3


@pytest.mark.parametrize("orders", ["3", "-1", "0,3"])
def test_rates_order_outside_the_fit_exits_3(tmp_path, capsys, orders):
    # the fitted order is m = 2: an order outside [0, 2] was never fitted
    out = tmp_path / "r"
    code = run_cli(
        "--out-dir", out, "rates", "--function", "sincos", "--resolutions", "100,200,400",
        f"--orders={orders}",
    )
    assert code == 3
    assert "outside [0, m=2]" in capsys.readouterr().err
    assert not (out / "rates.csv").exists()


def test_rates_repeated_order_exits_3(tmp_path, capsys):
    out = tmp_path / "r"
    code = run_cli(
        "--out-dir", out, "rates", "--function", "sin1d", "--resolutions", "100,200,400",
        "--orders", "1,1", "--k", 9,
    )
    assert code == 3
    assert "must not repeat" in capsys.readouterr().err
    assert not (out / "rates.csv").exists()


def test_rates_single_point_stencils_exit_3_before_any_fit(tmp_path, capsys, monkeypatch):
    # the spacing h is the distance to a neighbor besides the point itself
    monkeypatch.setattr(mls, "estimate_derivatives", None)  # no fit is made
    out = tmp_path / "r"
    code = run_cli("--out-dir", out, "rates", "--resolutions", "100,200,400", "--k", 1, "--m", 0)
    assert code == 3
    assert capsys.readouterr().err.count("\n") == 1
    assert not out.exists()


def test_rates_writes_the_same_bytes_at_any_thread_count(tmp_path):
    # 3,000 and 6,000 points: more than one 2,048-row KNN and fit block
    outs = [tmp_path / "t1", tmp_path / "t2"]
    for threads, out in zip((1, 2), outs):
        assert run_cli("--seed", 3, "--threads", threads, "--out-dir", out, "rates",
                       "--resolutions", "500,3000,6000") == 0
    assert sorted(read_all_bytes(outs[0])) == ["rates.csv", "rates.svg"]
    assert read_all_bytes(outs[0]) == read_all_bytes(outs[1])


# -- flow -----------------------------------------------------------------------

def test_flow_both_modes_dominance(tmp_path):
    out = tmp_path / "f"
    code = run_cli(
        "--out-dir", out, "flow",
        "--theta0", 1.0, "--ratio0", 1.2, "--mode", "both",
        "--dt", 0.01, "--T", 20, "--allow-outside",
    )
    assert code == 0
    _, rows_l2 = read_csv(out / "trajectory_l2.csv")
    _, rows_sob = read_csv(out / "trajectory_sob.csv")
    d_l2 = np.array([r[-2] for r in rows_l2])
    d_sob = np.array([r[-2] for r in rows_sob])
    assert np.all(d_sob <= d_l2 + 1e-12)
    assert (out / "flow.svg").exists()


def test_flow_both_modes_match_separate_runs(tmp_path):
    flags = ("--theta0", 1.1, "--ratio0", 0.9, "--dt", 0.02, "--T", 6, "--record-every", 7)
    for mode in ("both", "L2", "Sob"):
        assert run_cli("--out-dir", tmp_path / mode, "flow", "--mode", mode, *flags) == 0
    for mode in ("L2", "Sob"):
        name = f"trajectory_{mode.lower()}.csv"
        assert (tmp_path / "both" / name).read_bytes() == (tmp_path / mode / name).read_bytes()


def test_flow_both_modes_step_guard_writes_no_trajectory(tmp_path, capsys):
    # at dt = 3 the L2 row runs through and the Sob row trips the guard;
    # with both modes the run stops before any trajectory is written
    out = tmp_path / "f"
    assert run_cli("--out-dir", out, "flow", "--mode", "both", "--dt", 3) == 4
    assert "step 6 too large" in capsys.readouterr().err
    assert not list(out.glob("trajectory_*.csv"))


def test_flow_both_modes_name_the_earliest_guard_step(tmp_path, capsys):
    # at dt = 5 the Sob run trips the guard at step 2 and the L2 run at
    # step 8; with both modes the run names step 2 and writes nothing
    flags = ("--theta0", 0.8, "--ratio0", 1.0, "--dt", 5)
    for mode, step in (("L2", 8), ("Sob", 2), ("both", 2)):
        out = tmp_path / mode
        assert run_cli("--out-dir", out, "flow", "--mode", mode, *flags) == 4
        assert f"step {step} too large" in capsys.readouterr().err
        assert not list(out.glob("trajectory_*.csv"))


def test_flow_both_modes_match_separate_runs_in_10_dimensions(tmp_path):
    flags = ("--dim", 10, "--T", 5)
    for mode in ("both", "L2", "Sob"):
        assert run_cli("--out-dir", tmp_path / mode, "flow", "--mode", mode, *flags) == 0
    for mode in ("L2", "Sob"):
        name = f"trajectory_{mode.lower()}.csv"
        assert (tmp_path / "both" / name).read_bytes() == (tmp_path / mode / name).read_bytes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "flags",
    [
        ("--theta0", "nan"), ("--theta0", "inf"), ("--ratio0", "nan"), ("--ratio0", "inf"),
        ("--ratio0", "0"), ("--ratio0", "1e-320"), ("--ratio0", "1e-200"),  # these two square to 0
        ("--ratio0", "1e300"),  # and this one to inf
    ],
)
def test_flow_non_finite_start_exits_3(tmp_path, capsys, flags):
    # a warning would fail this test: the one stderr line is the whole report
    out = tmp_path / "f"
    assert run_cli("--out-dir", out, "flow", *flags) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "configuration error" in err and flags[0] in err
    assert not list(out.glob("trajectory_*.csv"))


@pytest.mark.filterwarnings("error")
def test_flow_too_many_records_exits_3_before_the_first_step(tmp_path, capsys, monkeypatch):
    # 1e302 steps: the record table is refused before any step is taken
    monkeypatch.setattr(cli.convlab, "_planar_gradients", None)  # a step would raise TypeError
    out = tmp_path / "f"
    assert run_cli("--out-dir", out, "flow", "--T", "1e300") == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "too many to record" in err
    assert not list(out.glob("trajectory_*.csv"))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mode", ["L2", "Sob", "both"])
@pytest.mark.parametrize(
    "flags, message",
    [
        # the first step overflows to NaN: the step guard trips
        (("--ratio0", "1e30", "--T", "1"), "step 1 too large"),
        # no step, but the recorded rate at the start overflows
        (("--ratio0", "1e100", "--T", "0"), "recorded distance or rate is not finite"),
    ],
)
def test_flow_that_overflows_exits_4_with_one_line(tmp_path, capsys, mode, flags, message):
    out = tmp_path / "f"
    assert run_cli("--out-dir", out, "flow", "--allow-outside", "--mode", mode, *flags) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("soblab: numerical failure: ") and message in err
    assert not list(out.glob("trajectory_*.csv"))


@pytest.mark.filterwarnings("error")
def test_flow_plot_of_a_constant_beyond_2_to_53(tmp_path):
    # one sample at |w - w*| ~ 1e20: y0 + 1 == y0, so the empty y range is
    # widened by |y0| instead
    out = tmp_path / "f"
    assert run_cli("--out-dir", out, "flow", "--allow-outside", "--ratio0", "1e20", "--T", 0) == 0
    assert "<polyline" in (out / "flow.svg").read_text()


def test_svg_widens_an_empty_range_by_one_where_one_changes_it():
    for value in (0.0, -3.5, 1e15, 2.0**53 - 1):
        x, y = svg._Scale(value, value), svg._Scale(value, value, vertical=True)
        assert (x.lo, x.hi, y.lo, y.hi) == (value, value + 1.0, value, value + 1.0)
    for value in (2.0**53, 1e20, -1e300):
        x, y = svg._Scale(value, value), svg._Scale(value, value, vertical=True)
        wide = value + abs(value)
        assert (x.lo, x.hi, y.lo, y.hi) == (value, wide, value, wide)
        assert y.hi > y.lo and y(value) == svg.HEIGHT - svg.MARGIN_B


@pytest.mark.parametrize(
    "flags",
    [("--T", -5), ("--T", "inf"), ("--record-every", 0), ("--dt", 0), ("--dt", "nan")],
)
def test_flow_bad_grid_exits_3(tmp_path, flags):
    out = tmp_path / "f"
    assert run_cli("--out-dir", out, "flow", *flags) == 3
    assert not list(out.glob("trajectory_*.csv"))


@pytest.mark.parametrize("source", ["flag", "config"])
def test_flow_unknown_mode_exits_3(tmp_path, capsys, source):
    out = tmp_path / "f"
    cfg = tmp_path / "flow.cfg"
    cfg.write_text("mode = xyz\n")
    argv = ["flow", "--mode", "xyz"] if source == "flag" else ["--config", cfg, "flow"]
    assert run_cli("--out-dir", out, *argv) == 3
    assert "unknown flow mode 'xyz'" in capsys.readouterr().err
    assert not list(out.glob("trajectory_*.csv"))


@pytest.mark.parametrize("mode", ["value", "sobolev", " Sob", "Sob ", "Both"])
def test_flow_mode_aliases_exit_3_before_any_integration(tmp_path, capsys, monkeypatch, mode):
    # each once wrote its own file name (trajectory_value.csv, trajectory_ sob.csv)
    integrated = []
    monkeypatch.setattr(cli.convlab, "integrate_flow_batch", lambda *a, **k: integrated.append(a))
    out = tmp_path / "f"
    assert run_cli("--out-dir", out, "flow", "--mode", mode) == 3
    assert capsys.readouterr().err == (
        f"soblab: configuration error: unknown flow mode {mode!r} (expected L2 or Sob)\n")
    assert integrated == [] and not out.exists()


def test_flow_mode_in_any_case_writes_the_canonical_names(tmp_path):
    flags = ("--dt", 0.02, "--T", 2)
    for mode in ("Sob", "sob", "SOB"):
        assert run_cli("--out-dir", tmp_path / mode, "flow", "--mode", mode, *flags) == 0
    assert read_all_bytes(tmp_path / "sob") == read_all_bytes(tmp_path / "Sob")
    assert read_all_bytes(tmp_path / "SOB") == read_all_bytes(tmp_path / "Sob")
    assert sorted(read_all_bytes(tmp_path / "Sob")) == ["flow.svg", "trajectory_sob.csv"]
    assert ">Sob<" in (tmp_path / "sob" / "flow.svg").read_text()


def test_flow_outside_basin_needs_flag(tmp_path):
    code = run_cli(
        "--out-dir", tmp_path / "f", "flow", "--theta0", 1.0, "--ratio0", 1.2,
        "--mode", "L2", "--T", 1,
    )
    assert code == 3


def test_flow_zero_horizon(tmp_path):
    out = tmp_path / "f"
    run_cli("--out-dir", out, "flow", "--theta0", 0.5, "--ratio0", 1.0, "--mode", "L2", "--T", 0)
    _, rows = read_csv(out / "trajectory_l2.csv")
    assert len(rows) == 1


def test_flow_parallel_start_flat(tmp_path):
    out = tmp_path / "f"
    run_cli("--out-dir", out, "flow", "--theta0", 0, "--ratio0", 1.0, "--mode", "L2", "--T", 2)
    _, rows = read_csv(out / "trajectory_l2.csv")
    dist2 = [r[-2] for r in rows]
    assert max(abs(d) for d in dist2) < 1e-24


# -- landscape ---------------------------------------------------------------------

def test_landscape_outputs_and_ordering(tmp_path, capsys):
    out = tmp_path / "l"
    assert run_cli("--out-dir", out, "landscape", "--theta-steps", 16, "--x-steps", 12) == 0
    header, rows = read_csv(out / "landscape.csv")
    v1 = header.index("v_l2")
    v2 = header.index("v_sob")
    flag = header.index("defined")
    for row in rows:
        if row[flag]:
            assert row[v2] <= row[v1] + 1e-12
    for name in ("landscape_l2.svg", "landscape_sob.svg", "margin_curve.svg"):
        assert (out / name).exists()
    assert "undefined" in capsys.readouterr().out


def test_landscape_rows_are_theta_major_with_defined_as_0_or_1(tmp_path):
    out = tmp_path / "l"
    assert run_cli("--out-dir", out, "landscape", "--theta-steps", 3, "--x-steps", 4,
                   "--x-max", 2.0) == 0
    thetas = np.linspace(0.0, np.pi, 5)[1:-1]
    ratios = np.linspace(0.0, 2.0, 5)[1:]
    table = descent_landscape(thetas, ratios)
    header, rows = read_csv(out / "landscape.csv")
    assert header == ["theta", "x", "v_l2", "v_sob", "defined"]
    want = [
        [thetas[i], ratios[j], table.v_l2[i, j], table.v_sob[i, j], int(table.defined[i, j])]
        for i in range(3)
        for j in range(4)
    ]
    assert rows == want
    assert {type(row[4]) for row in rows} == {int}  # written 0 or 1, not False or True


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("x_max", ["nan", "inf"])
def test_landscape_non_finite_grid_exits_3(tmp_path, capsys, x_max):
    # a warning would fail this test: the one stderr line is the whole report
    out = tmp_path / "l"
    assert run_cli("--out-dir", out, "landscape", "--x-max", x_max) == 3
    assert capsys.readouterr().err == "soblab: configuration error: grids must be finite\n"
    assert not (out / "landscape.csv").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("x_max", ["1e-320", "1e300"])
def test_landscape_x_max_whose_rates_are_undefined_exits_3(tmp_path, capsys, x_max):
    # ratios that underflow when squared or overflow the rates would give
    # nan or inf in every row, each marked defined
    out = tmp_path / "l"
    assert run_cli("--out-dir", out, "landscape", "--x-max", x_max) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("soblab: configuration error: --x-max ")
    assert not (out / "landscape.csv").exists()


# -- train and sweep -----------------------------------------------------------------

TRAIN_FAST = [
    "--epochs", 3, "--train-size", 6, "--val-size", 3, "--test-size", 3,
    "--sensors", 12, "--queries", 24, "--k", 8, "--rank", 3, "--hidden", "8",
]


def test_train_writes_report_and_losses(tmp_path, capsys):
    out = tmp_path / "t"
    code = run_cli("--seed", 1, "--out-dir", out, "train", "--mode", "sobolev", *TRAIN_FAST)
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["mode"] == "sobolev"
    assert len(report["epoch_l2"]) == 3
    header, rows = read_csv(out / "losses.csv")
    assert header == ["epoch", "l2", "der", "val_rel_l2"]
    assert len(rows) == 3
    assert "final relative-L2" in capsys.readouterr().out


def test_train_defaults_reach_the_validated_accuracy(tmp_path):
    out = tmp_path / "d"
    assert run_cli("--seed", 0, "--out-dir", out, "train") == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["optimizer"] == "adam"
    assert report["final_test_rel_l2"] < 0.4


def test_train_config_defaults_equal_the_command_defaults():
    d = DEFAULTS["train"]
    cfg = TrainConfig()
    assert (cfg.optimizer, cfg.learning_rate, cfg.epochs) == (
        d["optimizer"], d["learning_rate"], d["epochs"]
    )
    assert (cfg.rank, cfg.der_weight, cfg.batch_size) == (d["rank"], d["der_weight"], None)
    assert ",".join(map(str, cfg.hidden)) == d["hidden"] and d["batch_size"] == 0


def test_train_zero_epochs_reports_initial_only(tmp_path):
    out = tmp_path / "t0"
    run_cli("--out-dir", out, "train", "--mode", "ordinary", "--epochs", 0, *TRAIN_FAST[2:])
    report = json.loads((out / "report.json").read_text())
    assert report["epoch_l2"] == []
    assert report["initial_l2"] > 0
    assert (out / "losses.csv").read_text() == "epoch,l2,der,val_rel_l2\n"


def test_train_nan_exits_4(tmp_path):
    code = run_cli(
        "--out-dir", tmp_path / "t", "train", "--mode", "ordinary", "--optimizer", "gd",
        "--learning-rate", 1e9, *TRAIN_FAST,
    )
    assert code == 4


def test_train_unreliable_derivatives_exits_3(tmp_path, capsys):
    # the jump in discontinuous_inverse leaves its derivative targets meaningless
    for mode in ("sobolev", "sobolev+pcgrad"):
        code = run_cli(
            "--out-dir", tmp_path / mode, "train", "--task", "discontinuous_inverse",
            "--mode", mode, *TRAIN_FAST,
        )
        assert code == 3
    assert "unreliable" in capsys.readouterr().err


def test_train_order_zero_exits_3(tmp_path, capsys):
    # m = 0 fits no first derivatives, so there are no derivative targets
    code = run_cli("--out-dir", tmp_path / "t", "train", *TRAIN_FAST, "--m", 0)
    assert code == 3
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [["--batch-size", -5], ["--noise", -0.5], ["--noise", "nan"], ["--rank", 0], ["--hidden", "0"]],
)
def test_train_settings_that_train_nothing_exit_3(tmp_path, capsys, flags):
    out = tmp_path / "t"
    assert run_cli("--out-dir", out, "train", *TRAIN_FAST, *flags) == 3
    assert "configuration error" in capsys.readouterr().err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize(
    "flag, value",
    [("--learning-rate", v) for v in ("nan", "inf", "0", "-1")]
    + [("--der-weight", v) for v in ("nan", "inf", "-1")],
)
def test_train_bad_rate_or_weight_exits_3_naming_the_flag(tmp_path, capsys, flag, value):
    # a negative --der-weight would ascend the derivative loss; the others
    # ran to a non-finite loss (exit 4) or failed unnamed
    out = tmp_path / "t"
    assert run_cli("--out-dir", out, "train", *TRAIN_FAST, flag, value) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"soblab: configuration error: {flag} ") and err.count("\n") == 1
    assert not (out / "report.json").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mode", ["ordinary", "sobolev"])
def test_train_noise_whose_loss_overflows_exits_4_with_one_line(tmp_path, capsys, mode):
    # noise 1e300 times the targets' spread: the initial loss squares to inf
    out = tmp_path / "t"
    assert run_cli("--out-dir", out, "train", *TRAIN_FAST, "--mode", mode, "--noise", "1e300") == 4
    err = capsys.readouterr().err
    assert err == "soblab: numerical failure: loss became non-finite at the initial parameters\n"
    assert not (out / "report.json").exists()


def test_train_ordinary_on_unreliable_task_runs(tmp_path):
    code = run_cli(
        "--out-dir", tmp_path / "o", "train", "--task", "discontinuous_inverse",
        "--mode", "ordinary", *TRAIN_FAST,
    )
    assert code == 0
    assert json.loads((tmp_path / "o" / "report.json").read_text())["mode"] == "ordinary"


def test_train_rerun_byte_identical(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    run_cli("--seed", 2, "--out-dir", out1, "train", "--mode", "sobolev+pcgrad", *TRAIN_FAST)
    run_cli("--out-dir", out2, "--from-manifest", out1 / "manifest.json")
    assert read_all_bytes(out1) == read_all_bytes(out2)


def test_sweep_m_values_table(tmp_path):
    out = tmp_path / "s"
    code = run_cli(
        "--seed", 0, "--out-dir", out, "sweep", "--param", "m", "--values", "1,2",
        "--repeats", 2, "--mode", "sobolev", *TRAIN_FAST,
    )
    assert code == 0
    header, rows = read_csv(out / "sweep.csv")
    assert header == ["m", "mode", "seed", "final_rel_l2"]
    assert len(rows) == 4  # 2 values x 2 repeats
    assert (out / "sweep.svg").exists()


def test_sweep_noise_all_modes(tmp_path):
    out = tmp_path / "s"
    code = run_cli(
        "--seed", 0, "--out-dir", out, "sweep", "--param", "noise",
        "--values", "0,0.03", "--repeats", 1, *TRAIN_FAST,
    )
    assert code == 0
    _, rows = read_csv(out / "sweep.csv")
    modes = {r[1] for r in rows}
    assert modes == {"ordinary", "sobolev", "sobolev+pcgrad"}
    assert len(rows) == 6


def test_sweep_threads_deterministic(tmp_path):
    args = [
        "sweep", "--param", "noise", "--values", "0,0.02", "--repeats", 1,
        "--mode", "sobolev", *TRAIN_FAST,
    ]
    out1 = tmp_path / "one"
    out2 = tmp_path / "two"
    run_cli("--seed", 3, "--out-dir", out1, "--threads", 1, *args)
    run_cli("--seed", 3, "--out-dir", out2, "--threads", 2, *args)
    assert read_all_bytes(out1) == read_all_bytes(out2)


def test_sweep_validation(tmp_path):
    assert run_cli("--out-dir", tmp_path, "sweep", "--param", "q", "--values", "1,2") == 3
    assert run_cli("--out-dir", tmp_path, "sweep", "--param", "m", "--values", "2") == 3


@pytest.mark.parametrize("param", ["K", "m"])
def test_sweep_stencil_param_with_only_ordinary_exits_3(tmp_path, capsys, param):
    # K and m shape derivative targets only, so ordinary training leaves no job
    out = tmp_path / "s"
    code = run_cli(
        "--out-dir", out, "sweep", "--param", param, "--values", "1,2", "--mode", "ordinary",
        *TRAIN_FAST,
    )
    assert code == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"--param {param}" in err and "--mode ordinary" in err
    assert not (out / "sweep.csv").exists()


@pytest.mark.parametrize(
    "param, values",
    [("K", "20.7,12.2"), ("m", "2,inf"), ("K", "nan,20"), ("m", "1.5,2")],
)
def test_sweep_stencil_values_that_are_not_integers_exit_3_before_training(
    tmp_path, capsys, monkeypatch, param, values
):
    # a fractional K or m would be truncated while sweep.csv records the value
    trained = []
    monkeypatch.setattr(cli, "_train_once", lambda *args: trained.append(args))
    out = tmp_path / "s"
    code = run_cli(
        "--out-dir", out, "sweep", "--param", param, "--values", values, "--repeats", 1,
        *TRAIN_FAST,
    )
    assert code == 3 and trained == []
    err = capsys.readouterr().err
    typed = [float(v) for v in values.split(",")]  # the values as resolve_config types them
    assert err == (
        f"soblab: configuration error: --values for --param {param} must be integers, got {typed!r}\n"
    )
    assert not (out / "sweep.csv").exists()


@pytest.mark.parametrize(
    "param, values", [("noise", "0,0"), ("noise", "0,0.5,-0"), ("K", "12,20,12")]
)
def test_sweep_repeated_value_exits_3_before_training(tmp_path, capsys, monkeypatch, param, values):
    # a repeated value would train the same jobs twice and write their rows twice
    trained = []
    monkeypatch.setattr(cli, "_train_once", lambda *args: trained.append(args))
    out = tmp_path / "s"
    code = run_cli(
        "--out-dir", out, "sweep", "--param", param, "--values", values, "--repeats", 1,
        "--mode", "sobolev", *TRAIN_FAST,
    )
    assert code == 3 and trained == []
    typed = [float(v) for v in values.split(",")]
    assert capsys.readouterr().err == (
        f"soblab: configuration error: --values must not repeat, got {typed!r}\n")
    assert not out.exists()


@pytest.mark.parametrize("values", ["20,4", "4,20"])
def test_sweep_value_its_job_refuses_exits_3_before_any_training(
    tmp_path, capsys, monkeypatch, values
):
    # K = 4 is below smoothing2d's 6-function basis: whichever value comes
    # first, no job trains an epoch, and the refusal is the job's own
    epochs = []

    def counting_train(cfg, dataset, mode):
        epochs.append(cfg.epochs)
        return train(cfg, dataset, mode)

    flags = ["--task", "smoothing2d", "--mode", "sobolev", *TRAIN_FAST]
    assert run_cli("--out-dir", tmp_path / "t", "train", *flags, "--k", 4) == 3
    refusal = capsys.readouterr().err
    monkeypatch.setattr(cli, "train", counting_train)
    out = tmp_path / "s"
    code = run_cli("--out-dir", out, "sweep", "--param", "K", "--values", values, "--repeats", 1,
                   *flags)
    assert code == 3 and all(count == 0 for count in epochs)
    err = capsys.readouterr().err
    assert err == refusal and err.count("\n") == 1 and "K >= I required" in err
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--repeats", 0], ["--repeats", -2]])
def test_sweep_without_repeats_exits_3(tmp_path, flags):
    out = tmp_path / "s"
    code = run_cli(
        "--out-dir", out, "sweep", "--param", "noise", "--values", "0,0.1", *flags, *TRAIN_FAST,
    )
    assert code == 3
    assert not (out / "sweep.csv").exists()


@pytest.mark.parametrize("values", ["0,-0.5", "0,nan"])
def test_sweep_over_a_bad_noise_exits_3(tmp_path, values):
    out = tmp_path / "s"
    code = run_cli(
        "--out-dir", out, "sweep", "--param", "noise", "--values", values,
        "--repeats", 1, "--mode", "ordinary", *TRAIN_FAST,
    )
    assert code == 3
    assert not (out / "sweep.csv").exists()


@pytest.mark.parametrize("threads", [0, -1])
def test_threads_below_one_exits_3(tmp_path, threads):
    out = tmp_path / "s"
    code = run_cli(
        "--out-dir", out, "--threads", threads, "sweep", "--param", "noise",
        "--values", "0,0.1", "--repeats", 1, *TRAIN_FAST,
    )
    assert code == 3
    assert not (out / "sweep.csv").exists()


@pytest.mark.parametrize("source", ["config", "manifest"])
@pytest.mark.parametrize(
    "key, value", [("threads", 1.7), ("threads", True), ("threads", "abc"), ("seed", 1.5),
                   ("seed", False), ("seed", [1])],
    ids=["threads-1.7", "threads-true", "threads-abc", "seed-1.5", "seed-false", "seed-list"])
def test_global_from_a_file_that_is_not_an_integer_exits_3_naming_it(
        tmp_path, capsys, source, key, value):
    if source == "config":
        path = tmp_path / "run.cfg"
        path.write_text(f"{key} = {json.dumps(value)}\n")
        argv = ["--config", path, "landscape", "--theta-steps", 4, "--x-steps", 4]
    else:
        path = tmp_path / "manifest.json"
        record = {**_GOOD_RECORD, "config": {"theta_steps": 4, "x_steps": 4}}
        if key == "seed":
            record["seed"] = value
        else:
            record["config"][key] = value
        path.write_text(json.dumps(record))
        argv = ["--from-manifest", path]
    out = tmp_path / "o"
    assert run_cli("--out-dir", out, *argv) == 3
    assert capsys.readouterr().err == (
        f"soblab: configuration error: {path}: {key} must be an integer, got {value!r}\n")
    assert not out.exists()


@pytest.mark.parametrize("source", ["config", "manifest"])
def test_global_from_a_file_may_be_an_integral_float(tmp_path, source):
    if source == "config":
        path = tmp_path / "run.cfg"
        path.write_text("threads = 2.0\nseed = 3.0\n")
        argv = ["--config", path, "landscape", "--theta-steps", 4, "--x-steps", 4]
    else:
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({**_GOOD_RECORD, "seed": 3.0,
                                    "config": {"theta_steps": 4, "x_steps": 4, "threads": 2.0}}))
        argv = ["--from-manifest", path]
    assert run_cli("--out-dir", tmp_path / "o", *argv) == 0
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert (manifest["seed"], manifest["config"]["threads"]) == (3, 2)
    assert type(manifest["seed"]) is int and type(manifest["config"]["threads"]) is int


def test_derivs_writes_the_same_bytes_at_any_thread_count(tmp_path, monkeypatch):
    pts = np.random.default_rng(7).random((400, 2))
    save_cloud_csv(PointCloud(points=pts, values=np.sin(3 * pts[:, 0]) * pts[:, 1]),
                   tmp_path / "cloud2d.csv")
    pts = np.random.default_rng(8).random((1200, 3))
    save_cloud_csv(PointCloud(points=pts, values=np.sin(3 * pts[:, 0]) * pts[:, 1] * pts[:, 2]),
                   tmp_path / "cloud3d.csv")
    # 2-D: 7 blocks of 64 rows; 3-D at k=40, m=3: 4 fit blocks of 307 rows
    for cloud, block_rows, flags in (("cloud2d", 64, []), ("cloud3d", 2048, ["--k", 40, "--m", 3])):
        monkeypatch.setattr(geometry, "BLOCK_ROWS", block_rows)
        out = tmp_path / cloud
        for threads in (1, 2):
            assert run_cli("--threads", threads, "--out-dir", out / f"t{threads}", "derivs",
                           "--input", tmp_path / f"{cloud}.csv", *flags) == 0
        assert read_all_bytes(out / "t1") == read_all_bytes(out / "t2")
        # a --threads 2 manifest replays to the same bytes at --threads 1
        assert run_cli("--threads", 1, "--out-dir", out / "r", "--from-manifest",
                       out / "t2" / "manifest.json") == 0
        assert read_all_bytes(out / "r") == read_all_bytes(out / "t2")
        assert json.loads((out / "r" / "manifest.json").read_text())["config"]["threads"] == 1


def test_derivs_with_more_threads_than_blocks_exits_0(tmp_path):
    # one block: the fits run inline and no thread starts
    out = tmp_path / "o"
    assert run_cli("--threads", 1000000, "--out-dir", out, "derivs", "--input", grid_csv(tmp_path),
                   "--k", 6, "--m", 1) == 0
    assert json.loads((out / "manifest.json").read_text())["config"]["threads"] == 1000000


# -- validate, config file, misc -------------------------------------------------------

def test_validate_passes_and_writes_verdicts(tmp_path):
    out = tmp_path / "v"
    assert run_cli("--seed", 0, "--out-dir", out, "validate") == 0
    verdicts = json.loads((out / "validate.json").read_text())
    assert all(v["pass"] for v in verdicts)
    names = {v["name"] for v in verdicts}
    assert "gated_correlation_mc_3se" in names


def test_validate_records_a_cubic_minimum_mismatch_as_a_failed_verdict(tmp_path, monkeypatch):
    # a closed form off by 1e-6 fails the cubic verdict; the other verdicts
    # run and validate.json is written before the exit
    scaled = cli.convlab._scaled_cubic_min
    monkeypatch.setattr(cli.convlab, "_scaled_cubic_min",
                        lambda a, b, c, d, disc: scaled(a, b, c, d, disc) + 27e-6 * a * a)
    out = tmp_path / "v"
    assert run_cli("--seed", 0, "--out-dir", out, "validate") == 4
    verdicts = {v["name"]: v for v in json.loads((out / "validate.json").read_text())}
    cubic = verdicts["cubic_min_closed_vs_direct"]
    assert not cubic["pass"] and cubic["statistic"] == pytest.approx(1e-6, rel=1e-3)
    assert "gated_correlation_mc_3se" in verdicts


# the c12 command set and the files each command writes beside manifest.json
C12_OUTPUTS = {
    "derivs": {"jets.csv"},
    "rates": {"rates.csv", "rates.svg"},
    "flow": {"trajectory_l2.csv", "trajectory_sob.csv", "flow.svg"},
    "landscape": {"landscape.csv", "landscape_l2.svg", "landscape_sob.svg", "margin_curve.svg"},
    "train": {"report.json", "losses.csv"},
    "sweep": {"sweep.csv", "sweep.svg"},
    "validate": {"validate.json"},
}


@pytest.mark.parametrize("command", C12_OUTPUTS)
def test_each_command_writes_exactly_its_files(tmp_path, command):
    cloud = grid_csv(tmp_path, n=6)
    argv = {
        "derivs": ["derivs", "--input", cloud, "--k", 8, "--m", 2],
        "rates": ["rates", "--function", "sincos", "--resolutions", "200,400,800"],
        "flow": ["flow", "--theta0", 0.7, "--ratio0", 1.0, "--mode", "both", "--T", 5],
        "landscape": ["landscape", "--theta-steps", 10, "--x-steps", 8],
        "train": ["train", "--mode", "sobolev", *TRAIN_FAST],
        "sweep": ["sweep", "--param", "noise", "--values", "0,0.02", "--repeats", 1,
                  "--mode", "ordinary", *TRAIN_FAST],
        "validate": ["validate"],
    }[command]
    out = tmp_path / "o"
    assert run_cli("--seed", 1, "--out-dir", out, *argv) == 0
    assert set(os.listdir(out)) == C12_OUTPUTS[command] | {"manifest.json"}
    digests = json.loads((out / "manifest.json").read_text())["input_digests"]
    assert digests == ({str(cloud): file_digest(cloud)} if command == "derivs" else {})


def test_failing_validate_leaves_only_its_verdicts(tmp_path):
    out = tmp_path / "v"
    assert run_cli("--seed", 2, "--out-dir", out, "validate") == 4
    assert os.listdir(out) == ["validate.json"]


SEED_RUNS = {
    "train": ["train", *TRAIN_FAST],
    "rates": ["rates", "--resolutions", "30,60"],
    "validate": ["validate"],
    "flow": ["flow", "--T", "1"],
    "landscape": ["landscape", "--theta-steps", 4, "--x-steps", 4],
}


@pytest.mark.parametrize("command", SEED_RUNS)
@pytest.mark.parametrize("source", ["flag", "config", "manifest"])
def test_negative_seed_exits_3_naming_the_flag(tmp_path, capsys, command, source):
    argv = ["--seed", -3, *SEED_RUNS[command]]
    if source == "config":
        (tmp_path / "run.cfg").write_text("seed = -3\n")
        argv = ["--config", tmp_path / "run.cfg", *SEED_RUNS[command]]
    elif source == "manifest":
        record = {"command": command, "config": {}, "seed": -3}
        (tmp_path / "manifest.json").write_text(json.dumps(record))
        argv = ["--from-manifest", tmp_path / "manifest.json"]
    out = tmp_path / "o"
    assert run_cli("--out-dir", out, *argv) == 3
    assert capsys.readouterr().err == "soblab: configuration error: --seed must be >= 0, got -3\n"
    assert not out.exists()


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("k = 6\nm = 5\nseed = 7\n")
    data = grid_csv(tmp_path)
    out = tmp_path / "o"
    # flag --m 1 beats the config file's m = 5; k comes from the file
    code = run_cli("--config", cfg, "--out-dir", out, "derivs", "--input", data, "--m", 1)
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["k"] == 6
    assert manifest["config"]["m"] == 1
    assert manifest["seed"] == 7


def test_config_file_unknown_key_exits_3(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    # sensors is a train setting, accepted by derivs too; epoch is no setting
    cfg.write_text("sensors = 12\nepoch = 5\n")
    out = tmp_path / "o"
    assert run_cli("--config", cfg, "--out-dir", out, "train", *TRAIN_FAST) == 3
    err = capsys.readouterr().err
    assert "'epoch'" in err and str(cfg) in err
    assert not (out / "report.json").exists()
    cfg.write_text("sensors = 12\nk = 6\n")
    assert run_cli("--config", cfg, "--out-dir", out, "derivs", "--input", grid_csv(tmp_path)) == 0


_GOOD_RECORD = {"command": "landscape", "config": {}, "seed": 0}


@pytest.mark.parametrize(
    "record, extra",
    [
        ([_GOOD_RECORD], []),  # not a JSON object
        ({"config": {}, "seed": 0}, []),  # no command
        ({"command": "landscape", "seed": 0}, []),  # no config
        ({**_GOOD_RECORD, "config": ["x_max", 2]}, []),  # config not an object
        ({"command": "landscape", "config": {}}, []),  # no seed
        ({**_GOOD_RECORD, "command": "fly"}, []),  # unknown command
        ({**_GOOD_RECORD, "command": ["train"]}, []),  # unknown command
        (_GOOD_RECORD, ["landscape", "--x-steps", "4"]),  # a command beside the manifest
        ({**_GOOD_RECORD, "config": {"theta_stepz": 4}}, []),  # a misspelt setting
        ({**_GOOD_RECORD, "config": {"seed": 1}}, []),  # the seed is recorded beside the config
    ],
    ids=["list", "no-command", "no-config", "list-config", "no-seed", "unknown-command",
         "list-command", "with-command", "unknown-setting", "seed-in-config"],
)
def test_bad_manifest_exits_3(tmp_path, capsys, record, extra):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(record))
    out = tmp_path / "o"
    assert run_cli("--out-dir", out, "--from-manifest", path, *extra) == 3
    err = capsys.readouterr().err
    assert err.startswith("soblab: configuration error: ") and str(path) in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_manifest_replay_uses_the_config_file_resolution(tmp_path):
    # a recorded setting missing from the manifest falls back to its default
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({**_GOOD_RECORD, "config": {"theta_steps": 4, "x_steps": 3}}))
    assert run_cli("--out-dir", tmp_path / "o", "--from-manifest", path) == 0
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["config"] == {
        **DEFAULTS["landscape"], "theta_steps": 4, "x_steps": 3,
        "out_dir": str(tmp_path / "o"), "threads": cli._usable_cpus(),
    }
    assert manifest["seed"] == 0


def test_manifest_with_a_config_file_exits_3(tmp_path, capsys):
    # the file's x_steps would be silently overridden by the manifest's
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({**_GOOD_RECORD, "config": {"theta_steps": 4, "x_steps": 3}}))
    cfg = tmp_path / "l.cfg"
    cfg.write_text("x_steps = 5\n")
    out = tmp_path / "o"
    assert run_cli("--config", cfg, "--out-dir", out, "--from-manifest", path) == 3
    err = capsys.readouterr().err
    assert err.startswith("soblab: configuration error: ") and str(path) in err
    assert "--config" in err and err.count("\n") == 1
    assert not out.exists()


def test_manifest_that_is_not_json_exits_3_naming_the_file(tmp_path, capsys):
    path = tmp_path / "manifest.json"
    path.write_text('{command: "landscape"}')
    out = tmp_path / "o"
    assert run_cli("--out-dir", out, "--from-manifest", path) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"soblab: configuration error: {path}: ")
    assert "not valid JSON" in err and err.count("\n") == 1
    assert not out.exists()


# manifests as soblab 0.1.0 wrote them before settings were typed once: the
# list setting hidden is the string its flag took; and the flags of each run
FROZEN_MANIFESTS = {
    "train": ("""{
  "command": "train",
  "config": {
    "batch_size": 0,
    "der_weight": 1.0,
    "derivative_source": "mls",
    "epochs": 3,
    "hidden": "8,8",
    "k": 8,
    "learning_rate": 0.003,
    "m": 2,
    "mode": "sobolev+pcgrad",
    "noise": 0.03,
    "optimizer": "adam",
    "out_dir": "fz/train",
    "queries": 24,
    "rank": 3,
    "sensors": 12,
    "task": "antiderivative1d",
    "test_size": 3,
    "threads": 1,
    "train_size": 6,
    "val_size": 3
  },
  "duration_s": 0.7595392200018978,
  "input_digests": {},
  "seed": 1,
  "version": "0.1.0"
}
""", ["train", "--mode", "sobolev+pcgrad", "--noise", 0.03, *TRAIN_FAST[:-1], "8,8"]),
    "landscape": ("""{
  "command": "landscape",
  "config": {
    "out_dir": "fz/landscape",
    "theta_steps": 6,
    "threads": 1,
    "x_max": 2.5,
    "x_steps": 5
  },
  "duration_s": 0.008057412997004576,
  "input_digests": {},
  "seed": 1,
  "version": "0.1.0"
}
""", ["landscape", "--theta-steps", 6, "--x-steps", 5, "--x-max", 2.5]),
}


@pytest.mark.parametrize("command", sorted(FROZEN_MANIFESTS))
def test_a_frozen_manifest_replays_to_the_bytes_of_its_flags(tmp_path, command):
    text, flags = FROZEN_MANIFESTS[command]
    path = tmp_path / "manifest.json"
    path.write_text(text)
    assert run_cli("--out-dir", tmp_path / "replay", "--from-manifest", path) == 0
    assert run_cli("--seed", 1, "--threads", 1, "--out-dir", tmp_path / "flags", *flags) == 0
    assert read_all_bytes(tmp_path / "replay") == read_all_bytes(tmp_path / "flags")
    expected = {**json.loads(text)["config"], "out_dir": str(tmp_path / "replay")}
    if command == "train":
        expected["hidden"] = [8, 8]  # recorded as the list it is typed to
    assert json.loads((tmp_path / "replay" / "manifest.json").read_text())["config"] == expected


def test_a_frozen_manifest_with_a_fractional_step_count_exits_3_naming_key_and_file(
        tmp_path, capsys):
    record = json.loads(FROZEN_MANIFESTS["landscape"][0])
    record["config"]["theta_steps"] = 4.9
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(record))
    out = tmp_path / "o"
    assert run_cli("--out-dir", out, "--from-manifest", path) == 3
    assert capsys.readouterr().err == (
        f"soblab: configuration error: {path}: theta_steps must be an integer, got 4.9\n")
    assert not out.exists()


# file values that a runner once cast to something else: (command, other settings, key, value)
FILE_ESCAPES = [
    ("landscape", {"x_steps": 4}, "theta_steps", 4.9, "an integer"),  # ran 4 angles
    ("flow", {"ratio0": 3.0}, "allow_outside", "no", "true or false"),  # passed the basin check
    ("validate", {}, "full", "false", "true or false"),  # ran the full suite
    ("derivs", {"input": "missing.csv"}, "k", 20.5, "an integer"),  # trained at k = 20
    ("derivs", {"input": "missing.csv"}, "k", "20", "an integer"),
    ("train", {}, "epochs", True, "an integer"),  # trained 1 epoch
    ("flow", {}, "dt", "abc", "a number"),  # named no key
    ("flow", {}, "mode", 5, "a string"),
    ("rates", {}, "resolutions", [500, 1.5], "a list of integers"),
    ("sweep", {"param": "noise"}, "values", [0, True], "a list of numbers"),
]


@pytest.mark.parametrize("source", ["config", "manifest"])
@pytest.mark.parametrize("command, settings, key, value, noun", FILE_ESCAPES,
                         ids=[f"{e[0]}-{e[2]}-{e[3]}" for e in FILE_ESCAPES])
def test_a_file_value_its_flag_could_not_give_exits_3_naming_key_and_file(
        tmp_path, capsys, source, command, settings, key, value, noun):
    if source == "config":
        path = tmp_path / "run.cfg"
        path.write_text("".join(f"{k} = {json.dumps(v)}\n" for k, v in {**settings, key: value}.items()))
        argv = ["--config", path, command]
    else:
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"command": command, "config": {**settings, key: value}, "seed": 0}))
        argv = ["--from-manifest", path]
    out = tmp_path / "o"
    assert run_cli("--out-dir", out, *argv) == 3
    assert capsys.readouterr().err == (
        f"soblab: configuration error: {path}: {key} must be {noun}, got {value!r}\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flags, key, text, expected",
    [
        ("landscape", ["--x-steps", 4], "theta_steps", "4.0", 4),  # an integral float
        ("flow", ["--T", 1], "dt", "1", 1.0),  # an int for a float
        ("flow", ["--T", 1], "dt", "0.25", 0.25),
        ("rates", [], "resolutions", "[30, 60.0, 120]", [30, 60, 120]),  # a JSON list
        ("rates", [], "resolutions", "30,60,120", [30, 60, 120]),  # a comma-separated string
        ("train", TRAIN_FAST[:-2], "hidden", "8", [8]),  # a JSON number
    ],
    ids=["integral-float", "int-for-float", "float", "json-list", "comma-string", "json-number"],
)
def test_a_file_value_is_recorded_typed(tmp_path, command, flags, key, text, expected):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {text}\n")
    out = tmp_path / "o"
    assert run_cli("--config", cfg, "--out-dir", out, command, *flags) == 0
    recorded = json.loads((out / "manifest.json").read_text())["config"][key]
    assert json.dumps(recorded) == json.dumps(expected)  # 4, not 4.0; 1.0, not 1


# every (command, setting) pair: its flag is "--" + key with "_" -> "-", "--T" for t_final
SETTINGS = [(command, key) for command, settings in DEFAULTS.items() for key in settings]


@pytest.mark.parametrize("command, key", SETTINGS, ids=[f"{c}-{k}" for c, k in SETTINGS])
def test_every_setting_flag_parses_back_its_default(command, key):
    default = DEFAULTS[command][key]
    flag = "--T" if key == "t_final" else "--" + key.replace("_", "-")
    if isinstance(default, bool):
        argv, expected = [flag], True
    elif default is None:
        argv, expected = [flag, "1,2"], "1,2"
    else:
        argv, expected = [flag, str(default)], default
    value = getattr(build_parser().parse_args([command, *argv]), key)
    assert value == expected and type(value) is type(expected)
    # an absent flag leaves None, so the config file and the default decide
    assert getattr(build_parser().parse_args([command]), key) is None


@pytest.mark.parametrize("command, key", SETTINGS, ids=[f"{c}-{k}" for c, k in SETTINGS])
def test_resolving_a_flag_keeps_the_value_argparse_typed(command, key):
    default = DEFAULTS[command][key]
    flag = "--T" if key == "t_final" else "--" + key.replace("_", "-")
    argv = [flag] if isinstance(default, bool) else [flag, "1,2" if default is None else str(default)]
    args = vars(build_parser().parse_args([command, *argv]))
    resolved = cli.resolve_config(command, args, {})[key]
    if key in ("hidden", "resolutions", "orders", "values"):  # a list setting is parsed
        kind = float if key == "values" else int
        assert resolved == [kind(v) for v in args[key].split(",")]
    else:
        assert resolved == args[key] and type(resolved) is type(args[key])


ERROR_TABLE = [
    (errors.SoblabError, 4, "soblab: "),
    (errors.InputError, 2, "soblab: input error: "),
    (errors.ConfigError, 3, "soblab: configuration error: "),
    (errors.NumericalError, 4, "soblab: numerical failure: "),
    (errors.StepTooLargeError, 4, "soblab: numerical failure: "),
]


def _error_classes(cls):
    return {cls}.union(*map(_error_classes, cls.__subclasses__()))


def test_error_table_lists_every_error_class():
    assert [row[0] for row in ERROR_TABLE] == [
        errors.SoblabError, errors.InputError, errors.ConfigError, errors.NumericalError,
        errors.StepTooLargeError,
    ]
    assert {row[0] for row in ERROR_TABLE} == _error_classes(errors.SoblabError)


def _raise_boom(cls):
    def trigger():
        raise cls("boom", step_index=1) if cls is errors.StepTooLargeError else cls("boom")

    return trigger


def _diverging_train():
    """A gradient-descent step so large that the loss overflows at epoch 3."""
    sizes = DatasetSizes(train=4, val=2, test=2, sensors=8, queries=12)
    dataset = synth_dataset("antiderivative1d", sizes=sizes, derivative_source="none")
    cfg = TrainConfig(epochs=20, learning_rate=1e6, optimizer="gd", rank=2, hidden=(4,))
    train(cfg, dataset, "ordinary")


# Each condition that had an error class of its own before the classes were
# folded into one per exit code, raised by the library code that checks it.
# The id keeps the old class name; the class is the one it raises now.
FOLDED_CONDITIONS = [
    ("EmptyCloudError", lambda: PointCloud(points=np.empty((0, 2)), values=np.empty(0)), errors.InputError),
    ("DuplicatePointsError", lambda: PointCloud(points=[[1.0, 2.0], [1.0, 2.0]], values=[0.0, 1.0]),
     errors.InputError),
    ("CloudFormatError", lambda: PointCloud(points=[[0.0, np.inf], [1.0, 0.0]], values=[0.0, 1.0]),
     errors.InputError),
    ("KTooLargeError", lambda: knn_all(build_index(PointCloud(points=[[0.0], [1.0]], values=[0.0, 1.0])), 3),
     errors.ConfigError),
    ("NonpositiveSupportError", lambda: weight(0.5, 0.0), errors.ConfigError),
    ("OrderTooHighError", lambda: mls_derivative_targets(np.zeros((3, 1)), np.zeros((1, 3)), k=20, m=0),
     errors.ConfigError),
    ("OutOfDomainError", lambda: quadrant_prob(1.5), errors.ConfigError),
    ("DimMismatchError", lambda: gated_correlation_sum(np.zeros((2, 3)), [1.0, 0.0], [0.0, 1.0]),
     errors.ConfigError),
    ("ShapeMismatchError", lambda: residual(np.zeros((2, 3)), np.zeros((3, 2))), errors.ConfigError),
    ("ZeroVectorError", lambda: angle_between([0.0, 0.0], [1.0, 0.0]), errors.ConfigError),
    ("NotUnitError", lambda: gated_correlation([2.0, 0.0], [1.0, 1.0]), errors.ConfigError),
    ("NoLocalMinError", lambda: cubic_local_min(-1.0, 0.0, 1.0, 0.0), errors.ConfigError),
    ("ZeroTargetNormError", lambda: relative_l2_error(np.ones((1, 2)), np.zeros((1, 2))), errors.ConfigError),
    ("PhiZeroError", lambda: descent_landscape(np.array([np.pi]), np.array([1.0])), errors.ConfigError),
    ("NanLossError", _diverging_train, errors.NumericalError),
]
EXIT_OF = {cls: (code, prefix) for cls, code, prefix in ERROR_TABLE}
ERROR_CASES = [(cls.__name__, _raise_boom(cls), cls) for cls, _, _ in ERROR_TABLE] + FOLDED_CONDITIONS


@pytest.mark.parametrize("trigger, cls", [c[1:] for c in ERROR_CASES], ids=[c[0] for c in ERROR_CASES])
def test_error_class_gives_its_exit_code_and_prefix(tmp_path, capsys, monkeypatch, trigger, cls):
    raised = []

    def fail(config, seed):
        try:
            trigger()
        except errors.SoblabError as exc:
            raised.append(exc)
            raise

    monkeypatch.setitem(cli.RUNNERS, "validate", fail)
    code, prefix = EXIT_OF[cls]
    assert run_cli("--out-dir", tmp_path, "validate") == code
    assert type(raised[0]) is cls
    assert capsys.readouterr().err == prefix + str(raised[0]) + "\n"


def test_memory_error_is_a_one_line_config_error(tmp_path, capsys, monkeypatch):
    # a stub, not a huge grid: an overcommitting host may really allocate one
    message = "Unable to allocate 7.45 GiB for an array with shape (100000000, 10) and data type float64"

    def fail(config, seed):
        raise MemoryError(message)

    monkeypatch.setitem(cli.RUNNERS, "landscape", fail)
    assert run_cli("--out-dir", tmp_path, "landscape") == 3
    assert capsys.readouterr().err == f"soblab: configuration error: {message}\n"


def test_out_dir_naming_a_file_is_a_one_line_config_error(tmp_path, capsys):
    (tmp_path / "taken").write_text("")
    assert run_cli("--out-dir", tmp_path / "taken", "landscape") == 3
    err = capsys.readouterr().err
    assert err.startswith("soblab: configuration error: cannot use --out-dir") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv", [["flow", "--dim", "1"], ["sweep", "--param", "m", "--values", "2,inf"]],
    ids=["flow-dim", "sweep-values"],
)
def test_a_refused_run_removes_only_the_out_dir_it_made(tmp_path, capsys, argv):
    out = tmp_path / "a" / "b"
    assert run_cli("--out-dir", out, *argv) == 3
    assert capsys.readouterr().err.count("\n") == 1
    assert os.listdir(tmp_path) == []  # both directories the run made are gone
    out.mkdir(parents=True)  # an out-dir that existed before the run stays
    assert run_cli("--out-dir", out, *argv) == 3
    assert os.listdir(out) == []


def test_empty_derivs_out_is_a_one_line_config_error(tmp_path, capsys):
    # rejected before the input is read: a missing input would exit 2
    out, missing = tmp_path / "o", tmp_path / "missing.csv"
    for name in ("", "sub/"):
        assert run_cli("--out-dir", out, "derivs", "--input", missing, "--out", name) == 3
        err = capsys.readouterr().err
        assert err == f"soblab: configuration error: --out must name a file, got {name!r}\n"
        assert not out.exists()  # no temporary file is left behind in it


def test_derivs_input_directory_is_a_one_line_input_error(tmp_path, capsys):
    assert run_cli("--out-dir", tmp_path / "o", "derivs", "--input", tmp_path) == 2
    assert capsys.readouterr().err.startswith("soblab: input error: ")


def test_no_command_is_config_error():
    assert run_cli("--seed", 1) == 3


def test_config_file_json_list_accepted(tmp_path):
    cfg = tmp_path / "rates.cfg"
    cfg.write_text("resolutions = [100, 200, 400]\nfunction = plane\nk = 8\nm = 1\n")
    out = tmp_path / "o"
    assert run_cli("--config", cfg, "--out-dir", out, "rates") == 0
    _, rows = read_csv(out / "rates.csv")
    assert {r[0] for r in rows} == {100, 200, 400}


def test_garbage_values_exit_3(tmp_path, capsys):
    code = run_cli(
        "--out-dir", tmp_path, "sweep", "--param", "noise", "--values", "a,b",
        "--repeats", 1, "--mode", "ordinary", *TRAIN_FAST,
    )
    assert code == 3
    assert "Traceback" not in capsys.readouterr().err


def test_csv_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    rows = [[1, 0.1 + 0.2, "x"], [2, 1e-17, "y"]]
    write_csv(path, ["a", "b", "c"], list(zip(*rows)))
    header, back = read_csv(path)
    assert header == ["a", "b", "c"]
    assert back == rows
    write_csv(tmp_path / "t2.csv", ["a", "b", "c"], list(zip(*back)))
    assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "t2.csv").read_bytes()


def _csv_writer_reference(path, header, rows):
    """write_csv as it was: csv.writer over cells formatted one at a time."""

    def cell(c):
        if isinstance(c, bool):
            return int(c)
        if isinstance(c, int):
            return c
        if isinstance(c, str):
            return c
        if isinstance(c, np.integer):
            return int(c)
        return format(float(c), ".17g")

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([cell(c) for c in row])
    atomic_write_text(path, buf.getvalue())


def _column_rows(columns):
    """The rows of columns, each cell as the column holds it: a (J, c)
    array gives c cells a row."""
    cells = [cell for col in columns for cell in (list(col.T) if np.ndim(col) == 2 else [col])]
    return list(zip(*cells))


def test_write_csv_bytes_match_csv_writer(tmp_path):
    columns = [
        [7, -12345678901234567890, 0],  # Python ints, one beyond int64
        [99999999999999999999, 1, 2],  # a seed column of all 20 digits
        np.array([-3, 0, 2**62], dtype=np.int64),
        np.array([200, 0, 255], dtype=np.uint8),
        [True, False, True],
        np.array([True, False, False]),
        np.array([0.1, 2.5, -1.5], dtype=np.float32),
        [np.float64(2.5), 0.0, -0.0],
        np.array([[np.inf, -np.inf], [np.nan, 5e-324], [1e308, 1 / 3]]),  # a (J, 2) column
        ["plain", "a,b", 'say "hi"'],
        ["two\nlines", "", "x"],
    ]
    header = ["j", "a,b", 'q"', "c", "b", "B", "f32", "f", "g1", "g2", "s", "t"]
    write_csv(tmp_path / "new.csv", header, columns)
    _csv_writer_reference(tmp_path / "old.csv", header, _column_rows(columns))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    # tuples of cells, as the rates and sweep commands pass their columns
    write_csv(tmp_path / "tuples.csv", header, [tuple(col) for col in columns])
    assert (tmp_path / "tuples.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_streamed_csv_bytes_match_csv_writer_at_the_chunk_boundaries(tmp_path):
    chunk = cli_io._CHUNK_ROWS
    header = ["j", "a,b", "x"]
    for count in (0, chunk - 1, chunk, chunk + 1):
        columns = [np.arange(count), ['q"' if j % 3 else "a,b" for j in range(count)],
                   np.arange(count) / 7]
        write_csv(tmp_path / "new.csv", header, columns)
        _csv_writer_reference(tmp_path / "old.csv", header, _column_rows(columns))
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes(), count
    assert (tmp_path / "new.csv").read_text().count("\n") == chunk + 2


@pytest.mark.parametrize("extra", [-1, 0, 5])
def test_array_columns_equal_whole_column_rows(tmp_path, extra):
    # the bytes of the rows of whole-column lists, around a chunk boundary
    count = 2 * cli_io._CHUNK_ROWS + extra
    rng = np.random.default_rng(3)
    points, flags = rng.random((count, 3)), rng.random(count) < 0.5
    want = list(zip(range(count), *points.T.tolist(), flags.tolist()))
    header = ["j", "x1", "x2", "x3", "flagged"]
    write_csv(tmp_path / "new.csv", header, [np.arange(count), points, flags])
    _csv_writer_reference(tmp_path / "old.csv", header, want)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_csv_whose_rows_fail_midway_leaves_no_file(tmp_path):
    # chunks are on disk before the row whose cell is no number
    cells = np.arange(3 * cli_io._CHUNK_ROWS) / 7
    cells = cells.astype(object)
    cells[2 * cli_io._CHUNK_ROWS + 5] = None
    columns = [np.arange(cells.size), cells]
    with pytest.raises(TypeError):
        write_csv(tmp_path / "new.csv", ["j", "x"], columns)
    assert list(tmp_path.iterdir()) == []
    (tmp_path / "kept.csv").write_text("kept\n")
    with pytest.raises(TypeError):
        write_csv(tmp_path / "kept.csv", ["j", "x"], columns)
    assert [p.name for p in tmp_path.iterdir()] == ["kept.csv"]
    assert (tmp_path / "kept.csv").read_text() == "kept\n"


def _old_id(text, match, old_class):
    """A case whose id keeps the name of the error class it raised before
    the input-file classes were folded into InputError."""
    return pytest.param(text, match, id=f"{text}-{old_class}")


@pytest.mark.parametrize(
    "text, match",
    [
        _old_id("a1,x2,u\n0.0,0.0,1.0\n", "column 1 named 'a1'", "CloudFormatError"),  # bad header
        _old_id("x1,x2,u\n0.0,0.0,1.0\n1.0,2.0\n", "(?i)number of columns", "CloudFormatError"),  # short row
        # long row
        _old_id("x1,x2,u\n0.0,0.0,1.0\n1.0,2.0,3.0,4.0\n", "(?i)number of columns", "CloudFormatError"),
        _old_id("x1,x2,u\n0.0,0.0,1.0\n0.5,oops,1.0\n", "oops", "CloudFormatError"),  # non-numeric cell
        _old_id("x1,x2,u\n", "no data rows", "EmptyCloudError"),  # header only
        _old_id("", "empty file", "CloudFormatError"),
        _old_id(
            "x1,x2,u\n0.0,0.0,1.0\n0.5,0.5,1.0\n0.0,0.0,2.0\n", "bitwise-identical points", "DuplicatePointsError"
        ),
        _old_id("x1,x2,u\n0.0,0.0,1.0\n0.5,0.5,nan\n", "values contain non-finite", "CloudFormatError"),
        _old_id("x1,x2,u\n0.0,inf,1.0\n0.5,0.5,1.0\n", "points contain non-finite", "CloudFormatError"),
        # a 1e160 spread: the KNN's squared distances would overflow
        ("x1,x2,u\n0.0,0.0,1.0\n1e160,0.0,1.0\n0.0,1e160,2.0\n", "squared distances overflow"),
    ],
)
def test_derivs_malformed_cloud_exits_2(tmp_path, capsys, text, match):
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    with pytest.raises(InputError, match=match):
        load_cloud_csv(bad)
    assert run_cli("--out-dir", tmp_path / "o", "derivs", "--input", bad) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "Traceback" not in err

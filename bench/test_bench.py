"""Tests of the benchmark's own code.

    python3 -m pytest bench/test_bench.py
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402


def _digest_inputs(work_dir):
    out = {}
    for name in sorted(os.listdir(os.path.join(work_dir, "in"))):
        with open(os.path.join(work_dir, "in", name), "rb") as fh:
            out[name] = fh.read()
    return out


def test_generator_is_deterministic_per_seed(tmp_path):
    a, b, c = (tmp_path / "a", tmp_path / "b", tmp_path / "c")
    cmds_a = workloads.build("derivs", 7, str(a))
    workloads.build("derivs", 7, str(b))
    workloads.build("derivs", 8, str(c))
    assert _digest_inputs(a) == _digest_inputs(b)
    inputs_a, inputs_c = _digest_inputs(a), _digest_inputs(c)
    assert inputs_a["grid2d.csv"] == inputs_c["grid2d.csv"]  # the grid has no randomness
    assert inputs_a["uniform2d.csv"] != inputs_c["uniform2d.csv"]
    assert [cmd.work["points"] for cmd in cmds_a] == [40_000, 100_000, 20_000]


@pytest.mark.parametrize("workload", ["train", "flows"])
def test_command_lists_depend_only_on_seed(workload, tmp_path):
    first = workloads.build(workload, 3, str(tmp_path))
    again = workloads.build(workload, 3, str(tmp_path))
    assert [c.argv for c in first] == [c.argv for c in again]
    assert all(c.argv[:2] == ["--seed", "3"] for c in first)


def test_cloud_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    for dim in (2, 3):
        points = rng.random((50, dim))
        grad = workloads.cloud_gradient(points)
        for d in range(dim):
            step = np.zeros(dim)
            step[d] = 1e-6
            fd = (workloads.cloud_values(points + step) - workloads.cloud_values(points - step)) / 2e-6
            np.testing.assert_allclose(grad[:, d], fd, atol=1e-8)


def _bindings():
    out = {}
    for owner_path, attr, _, _ in tr.TARGETS:
        owner = tr._resolve(owner_path)
        out[(owner_path, attr)] = vars(owner)[attr]
    return out


def test_wrappers_restore_the_originals():
    before = _bindings()
    tracer = tr.Tracer()
    with tracer.installed():
        during = _bindings()
        assert all(during[key] is not before[key] for key in before)
    assert _bindings() == before
    assert all(_bindings()[key] is before[key] for key in before)
    assert tracer.missing == []


def test_wrappers_restore_after_an_exception():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with tr.Tracer().installed():
            raise RuntimeError("boom")
    assert all(_bindings()[key] is before[key] for key in before)


def test_missing_targets_are_skipped():
    tracer = tr.Tracer()
    with tracer.installed([("soblab.mls", "no_such_function", "x", None)]):
        pass
    assert tracer.missing == ["soblab.mls.no_such_function"]


def test_self_time_subtracts_children_and_counts_overlap():
    tracer = tr.Tracer()
    tracer.roots[1] = "cmd"
    tracer.spans += [
        (1, "root", 0.0, 10.0, None),
        (2, "pool", 1.0, 9.0, 1),
        (3, "job", 1.0, 6.0, 2),  # two concurrent jobs under the pool
        (4, "job", 2.0, 9.0, 2),
        (5, "leaf", 3.0, 4.0, 4),
    ]
    per_name, overlap = tr.summarize(tracer)
    assert per_name["root"]["self_s"] == pytest.approx(2.0)
    assert per_name["pool"]["self_s"] == pytest.approx(0.0)
    assert per_name["job"]["self_s"] == pytest.approx(5.0 + 6.0)
    assert overlap == pytest.approx(4.0)  # jobs cover 8 s of the pool but sum to 12 s
    total_self = sum(rec["self_s"] for rec in per_name.values())
    assert total_self - overlap == pytest.approx(10.0)
    assert tr.self_by_command(tracer)["cmd"]["leaf"] == pytest.approx(1.0)


def test_tie_row_share_on_grid_and_random_cloud():
    side = np.linspace(0.0, 1.0, 30)
    grid = np.column_stack([g.ravel() for g in np.meshgrid(side, side, indexing="ij")])
    assert tr.tie_row_share([(grid, 20)]) > 0.8
    cloud = np.random.default_rng(0).random((900, 2))
    assert tr.tie_row_share([(cloud, 20)]) == 0.0


def _tiny_commands(work_dir):
    """One small command of each kind the workloads use."""
    rng = np.random.default_rng(0)
    points = rng.random((2000, 2))
    os.makedirs(os.path.join(work_dir, "in"))
    cloud = os.path.join(work_dir, "in", "cloud.csv")
    workloads.write_cloud_csv(cloud, points)
    small_train = [
        "--train-size", "8", "--val-size", "4", "--test-size", "4", "--sensors", "16",
        "--queries", "24", "--epochs", "30", "--optimizer", "adam", "--learning-rate", "3e-3",
    ]

    def out(label):
        return os.path.join(work_dir, "out", label)

    return [
        workloads.Command("derivs", "derivs",
                          ["--out-dir", out("derivs"), "derivs", "--input", cloud], out("derivs"),
                          {"points": 2000, "dim": 2}),
        workloads.Command("train", "train",
                          ["--out-dir", out("train"), "train", "--mode", "sobolev+pcgrad",
                           *small_train], out("train"), {"epochs": 30}),
        workloads.Command("sweep", "sweep",
                          ["--threads", "2", "--out-dir", out("sweep"), "sweep", "--param", "noise",
                           "--values", "0,0.03", "--repeats", "1", *small_train],
                          out("sweep"), {"epochs": 180, "task": "antiderivative1d"}),
        workloads.Command("flow", "flow",
                          ["--out-dir", out("flow"), "flow", "--T", "2"], out("flow")),
    ]


def test_traced_and_untraced_outputs_are_identical(tmp_path):
    from soblab.cli.main import main as cli_main

    commands = _tiny_commands(str(tmp_path))
    tracer = tr.Tracer()
    plain, traced, pairs, differ = run.measure_traced(cli_main, commands, 1, tracer)
    assert pairs == 1
    assert differ == []
    assert all(r.snapshot for r in plain)
    assert [r.snapshot for r in plain] == [r.snapshot for r in traced]
    assert all(r.outcome.ok for r in plain + traced), [r.outcome.detail for r in plain + traced]
    assert tracer.roots and set(tracer.roots.values()) == {c.label for c in commands}
    names = {name for _, name, _, _, _ in tracer.spans}
    for expected in ("geometry.knn_all", "mls.estimate_derivatives", "training.backward_der",
                     "training.mlp.jvp", tr.POOL_SPAN, tr.JOB_SPAN, "convlab.flow_integrate"):
        assert expected in names
    metrics = run.layer_metrics(tracer, pairs, sum(r.seconds for r in plain),
                                sum(r.seconds for r in traced))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        assert list(metrics) == [m["name"] for m in json.load(fh)["per_layer"]]
    assert metrics["training.mlp.forward_per_epoch"] > 0
    assert 0.0 < metrics["cli.sweep.parallel_efficiency"] <= 1.0 + 1e-9
    assert abs(metrics["trace.unaccounted_s"]) < 1e-2


def test_a_run_repeats_a_fixed_command_list_and_scales_by_host_speed(monkeypatch):
    ran = []

    def fake_run_checked(cli_main, cmd, tracer=None, keep_snapshot=False):
        ran.append(cmd.label)
        return run.Record(cmd, 1.0, workloads.Outcome(True), None)

    monkeypatch.setattr(run, "run_checked", fake_run_checked)
    commands = [
        workloads.Command("a", "flow", [], ""),
        workloads.Command("b", "flow", [], ""),
        workloads.Command("s", "sweep", [], "", timed=False),
    ]
    records = run.measure(None, commands, 3)
    assert ran == ["a", "b"] * 3 + ["s"]
    assert all(r.host_s > 0 for r in records)

    slow_host = [r._replace(host_s=2 * run.HOST_REF_S) for r in records]
    metrics = run.end_to_end("flows", slow_host)
    assert metrics["cmds_per_s_raw"] == pytest.approx(1.0)  # the untimed sweep does not count
    assert metrics["cmds_per_s"] == pytest.approx(2.0)


def test_sweep_cross_check_flags_a_mismatch():
    ref = workloads.Command("r", "train", [], "", {"task": "t", "mode": "sobolev", "noise": 0.0})
    ref_outcome = workloads.Outcome(True, stats={"final_test_rel_l2": [0.5]})
    same = workloads.Outcome(True, stats={"rows": [("t", "sobolev", 0.0, 0, 0.5)]})
    other = workloads.Outcome(True, stats={"rows": [("t", "sobolev", 0.0, 0, 0.25)]})
    workloads.cross_check([same, other], [(ref, ref_outcome)])
    assert same.ok and not same.wrong
    assert other.wrong and not other.ok


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    for m in spec["per_layer"]:
        assert m["unit"] == run.layer_unit(m["name"])


def test_exits_nonzero_without_sources(tmp_path):
    import shutil
    import subprocess

    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "flows", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

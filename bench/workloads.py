"""Workloads of the soblab benchmark: seeded inputs, command lists, output checks.

A workload is one cycle of CLI commands, run as a closed loop from one
process: each command starts when the previous one has returned.  Inputs
are generated from the workload seed before any timing; the program sees
only the generated CSV files and its argv.

derivs  Three `derivs` commands on clouds with values sin(x1)cos(x2)
        (times x3 in 3-D): a 200x200 regular 2-D grid (k=20, m=2), 100k
        uniform 2-D points (k=20, m=2) and 20k uniform 3-D points (k=40,
        m=3).  The grid ties at the K boundary on almost every row, so
        KNN dominates it; the 3-D cloud has no ties and the stencil solve
        dominates it; the 100k cloud also writes about 24 MB of CSV.
train   Twelve `train` commands at --threads 1: tasks antiderivative1d and
        smoothing2d x modes ordinary, sobolev, sobolev+pcgrad x noise 0
        and 0.03, each in the c10/c11 acceptance configuration.  The MLP
        passes, PCGrad and the optimizer dominate; MLS runs as 64 small
        clouds on one query geometry per command.  Once per run, after
        the timed cycles, the same twelve configurations run as two
        `sweep --param noise` commands, one per task, at --threads 2: the
        only user of the CLI job pool.  Their rows must equal the train
        commands' results.  They are not timed in cmds_per_s: two threads
        contending for the interpreter lock on two shared vCPUs make
        their time vary too much to bound; the traced run measures the
        pool (cli.sweep.*).
flows   One `validate` and one default `flow` command: only convlab runs,
        the batched RK4 plus Monte-Carlo checks and the scalar RK4 loop.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("derivs", "train", "flows")
# Seconds budgeted for one cycle, near its time on 2 vCPUs of an Intel Xeon
# host (train's includes a share of its untimed sweeps).  They fix how many
# cycles a run makes, so the commands of a run depend on its seed and
# length only, not on the speed of the machine.
CYCLE_S = {"derivs": 12.0, "train": 12.0, "flows": 8.0}

# (label, shape, k, m): a regular grid is given by its side, a uniform cloud by (count, dim)
CLOUDS = (
    ("grid2d", ("grid", 200), 20, 2),
    ("uniform2d", ("uniform", 100_000, 2), 20, 2),
    ("uniform3d", ("uniform", 20_000, 3), 40, 3),
)
# Relative RMS error allowed on the first-derivative jet columns.
JET_TOLERANCE = 1e-3

TASKS = ("antiderivative1d", "smoothing2d")
MODES = ("ordinary", "sobolev", "sobolev+pcgrad")
NOISES = ("0", "0.03")
EPOCHS = 300
# The c10/c11 acceptance configuration, shared by the train and sweep workloads.
TRAIN_FLAGS = [
    "--train-size", "64", "--val-size", "8", "--test-size", "16",
    "--sensors", "32", "--queries", "96",
    "--optimizer", "adam", "--learning-rate", "3e-3",
    "--k", "20", "--m", "2", "--epochs", str(EPOCHS),
]


@dataclass
class Command:
    """One CLI invocation of a cycle and the work it stands for.

    An untimed command runs once per run, after the timed cycles, and
    counts in the checks but not in cmds_per_s.
    """

    label: str
    kind: str  # derivs | train | sweep | validate | flow
    argv: list[str]
    out_dir: str
    work: dict = field(default_factory=dict)
    timed: bool = True


@dataclass
class Outcome:
    """Result of one command's output check.

    ok is False when the command failed (nonzero exit or a failed check);
    wrong is True only when the command exited 0 but its outputs are
    incorrect.
    """

    ok: bool
    wrong: bool = False
    detail: str = ""
    stats: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# inputs and command lists
# ---------------------------------------------------------------------------

def cloud_points(shape, rng) -> np.ndarray:
    if shape[0] == "grid":
        side = np.linspace(0.0, 1.0, shape[1])
        x1, x2 = np.meshgrid(side, side, indexing="ij")
        return np.column_stack([x1.ravel(), x2.ravel()])
    _, count, dim = shape
    return rng.random((count, dim))


def cloud_values(points) -> np.ndarray:
    u = np.sin(points[:, 0]) * np.cos(points[:, 1])
    return u * points[:, 2] if points.shape[1] == 3 else u


def cloud_gradient(points) -> np.ndarray:
    """Analytic first derivatives of cloud_values, shape (J, n)."""
    s1, c1 = np.sin(points[:, 0]), np.cos(points[:, 0])
    s2, c2 = np.sin(points[:, 1]), np.cos(points[:, 1])
    if points.shape[1] == 2:
        return np.column_stack([c1 * c2, -s1 * s2])
    x3 = points[:, 2]
    return np.column_stack([c1 * c2 * x3, -s1 * s2 * x3, s1 * c2])


def write_cloud_csv(path, points) -> None:
    """Write a cloud in the x1,...,xn,u format with round-trip floats."""
    header = ",".join([f"x{d + 1}" for d in range(points.shape[1])] + ["u"])
    data = np.column_stack([points, cloud_values(points)])
    np.savetxt(path, data, delimiter=",", fmt="%.17g", header=header, comments="")


def build(workload: str, seed: int, work_dir: str) -> list[Command]:
    """Generate the workload's inputs under work_dir and return one cycle."""
    builders = {"derivs": _derivs, "train": _train, "flows": _flows}
    if workload not in builders:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return builders[workload](seed, work_dir)


def cycles(workload: str, seconds: float) -> int:
    """Cycles that fill `seconds` at the workload's nominal cycle time."""
    return max(1, round(seconds / CYCLE_S[workload]))


def _out(work_dir, label):
    return os.path.join(work_dir, "out", label)


def _derivs(seed, work_dir):
    rng = np.random.default_rng(seed)
    os.makedirs(os.path.join(work_dir, "in"), exist_ok=True)
    commands = []
    for label, shape, k, m in CLOUDS:
        points = cloud_points(shape, rng)
        path = os.path.join(work_dir, "in", f"{label}.csv")
        write_cloud_csv(path, points)
        out = _out(work_dir, label)
        commands.append(Command(
            label=label,
            kind="derivs",
            argv=["--seed", str(seed), "--out-dir", out,
                  "derivs", "--input", path, "--k", str(k), "--m", str(m)],
            out_dir=out,
            work={"points": points.shape[0], "dim": points.shape[1]},
        ))
    return commands


def _train(seed, work_dir):
    commands = []
    for task in TASKS:
        for mode in MODES:
            for noise in NOISES:
                label = f"{task}-{mode}-{noise}"
                out = _out(work_dir, label)
                commands.append(Command(
                    label=label,
                    kind="train",
                    argv=["--seed", str(seed), "--threads", "1", "--out-dir", out,
                          "train", "--task", task, "--mode", mode, "--noise", noise,
                          *TRAIN_FLAGS],
                    out_dir=out,
                    work={"epochs": EPOCHS, "task": task, "mode": mode, "noise": float(noise)},
                ))
    for task in TASKS:
        out = _out(work_dir, f"sweep-{task}")
        commands.append(Command(
            label=f"sweep-{task}",
            kind="sweep",
            argv=["--seed", str(seed), "--threads", "2", "--out-dir", out,
                  "sweep", "--task", task, "--param", "noise", "--values", ",".join(NOISES),
                  "--repeats", "1", "--mode", "all", *TRAIN_FLAGS],
            out_dir=out,
            work={"epochs": EPOCHS * len(MODES) * len(NOISES), "task": task},
            timed=False,
        ))
    return commands


def _flows(seed, work_dir):
    commands = []
    for kind in ("validate", "flow"):
        out = _out(work_dir, kind)
        commands.append(Command(
            label=kind, kind=kind, argv=["--seed", str(seed), "--out-dir", out, kind], out_dir=out,
        ))
    return commands


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def check(cmd: Command, rc: int, message: str) -> Outcome:
    """Check one command's exit code and outputs."""
    if rc != 0 and cmd.kind != "validate":
        last_line = "".join(message.strip().splitlines()[-1:])
        return Outcome(ok=False, detail=f"exit {rc}: {last_line}")
    checkers = {
        "derivs": _check_derivs,
        "train": _check_train,
        "sweep": _check_sweep,
        "validate": _check_validate,
        "flow": _check_flow,
    }
    try:
        return checkers[cmd.kind](cmd, rc)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return Outcome(ok=False, wrong=rc == 0, detail=f"unreadable output: {exc!r}")


def _check_derivs(cmd, rc):
    path = os.path.join(cmd.out_dir, "jets.csv")
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    dim = cmd.work["dim"]
    columns = [
        header.index("c_" + "_".join("1" if i == d else "0" for i in range(dim)))
        for d in range(dim)
    ]
    exact = cloud_gradient(data[:, 1 : 1 + dim])
    sq_err = float(np.sum((data[:, columns] - exact) ** 2))
    sq_ref = float(np.sum(exact**2))
    rel = math.sqrt(sq_err / sq_ref)
    stats = {"sq_err": sq_err, "sq_ref": sq_ref}
    if data.shape[0] != cmd.work["points"]:
        return Outcome(False, True, f"{data.shape[0]} jet rows for {cmd.work['points']} points", stats)
    if not rel <= JET_TOLERANCE:
        return Outcome(False, True, f"gradient rel. RMS error {rel:.3e} > {JET_TOLERANCE:g}", stats)
    return Outcome(True, stats=stats)


def _check_train(cmd, rc):
    with open(os.path.join(cmd.out_dir, "report.json")) as fh:
        report = json.load(fh)
    losses = (
        report["epoch_l2"] + report["epoch_der"] + report["epoch_val_rel_l2"]
        + [report["initial_l2"], report["initial_der"], report["initial_val_rel_l2"]]
    )
    final_test = report["final_test_rel_l2"]
    stats = {"final_test_rel_l2": [final_test]}
    if not all(math.isfinite(x) for x in losses + [final_test]):
        return Outcome(False, True, "non-finite loss", stats)
    # report.json records the initial error on the validation set only
    initial = report["initial_val_rel_l2"]
    if not (final_test < initial and report["epoch_val_rel_l2"][-1] < initial):
        return Outcome(False, True, f"final error not below the initial {initial:.4g}", stats)
    return Outcome(True, stats=stats)


def _check_sweep(cmd, rc):
    with open(os.path.join(cmd.out_dir, "sweep.csv")) as fh:
        lines = fh.read().splitlines()
    rows = []
    for line in lines[1:]:
        noise, mode, run_seed, err = line.split(",")
        rows.append((cmd.work["task"], mode, float(noise), int(run_seed), float(err)))
    stats = {"rows": rows, "final_test_rel_l2": [r[4] for r in rows]}
    if len(rows) != len(MODES) * len(NOISES):
        return Outcome(False, True, f"{len(rows)} sweep rows", stats)
    if not all(math.isfinite(r[4]) for r in rows):
        return Outcome(False, True, "non-finite sweep error", stats)
    return Outcome(True, stats=stats)


def _check_validate(cmd, rc):
    with open(os.path.join(cmd.out_dir, "validate.json")) as fh:
        verdicts = json.load(fh)
    failed = sorted(v["name"] for v in verdicts if not v["pass"])
    stats = {"failed_verdicts": failed}
    if rc != 0 or failed:
        return Outcome(False, rc == 0, f"exit {rc}, failed verdicts: {','.join(failed)}", stats)
    return Outcome(True, stats=stats)


def _dist2_column(path) -> np.ndarray:
    with open(path) as fh:
        column = fh.readline().strip().split(",").index("dist2")
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, column]


def _check_flow(cmd, rc):
    l2 = _dist2_column(os.path.join(cmd.out_dir, "trajectory_l2.csv"))
    sob = _dist2_column(os.path.join(cmd.out_dir, "trajectory_sob.csv"))
    if not np.all(np.diff(l2) <= 0.0):
        return Outcome(False, True, "L2 distance not monotone")
    if not sob[-1] <= l2[-1]:
        return Outcome(False, True, f"Sob distance {sob[-1]:.3e} above L2 {l2[-1]:.3e} at T")
    return Outcome(True)


def cross_check(outcomes: list[Outcome], references: list[tuple[Command, Outcome]]) -> None:
    """Mark failed and wrong every sweep outcome with a row that differs from
    the train reference for the same config.

    references holds (command, outcome) pairs of train commands.
    """
    reference = {
        (cmd.work["task"], cmd.work["mode"], cmd.work["noise"]): outcome.stats["final_test_rel_l2"][0]
        for cmd, outcome in references
        if outcome.ok
    }
    for outcome in outcomes:
        bad = []
        for task, mode, noise, _, err in outcome.stats.get("rows", ()):
            want = reference.get((task, mode, noise))
            if want != err:
                bad.append(f"{task}/{mode}/noise={noise}: sweep {err!r} vs train {want!r}")
        if bad:
            outcome.ok = False
            outcome.wrong = True
            outcome.detail = "; ".join(bad)

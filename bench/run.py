"""soblab benchmark: one workload, closed loop, through the public CLI.

    python3 bench/run.py --workload derivs --seed 0 --seconds 24 --trace 0

Runs from a checkout that holds the soblab sources under src/; without
them it exits 2 and prints no result.  One process runs one workload:
it generates the seeded inputs, then runs the workload's commands in a
closed loop through soblab.cli.main.main(argv), checking every command's
outputs.  The loop runs a fixed number of cycles, the number that fills
--seconds at the workload's cycle time (workloads.cycles), so that a
seed always gives the same commands.  Workloads are described in
workloads.py.

--trace 0 prints the end-to-end metrics:
  setup_s      median time of 5 fresh interpreters importing
               soblab.cli.main (users pay it on every command)
  cmds_per_s   commands per second, from the median time of each timed
               command over the cycles
  peak_rss_mb  peak resident memory of this process
Both times are in reference-host seconds: each wall time is scaled by
HOST_REF_S over the time of a fixed host kernel measured just before and
just after it.  On a shared host the speed of a vCPU drifts by a third
over tens of seconds as other tenants come and go; the kernel slows
with it, and the scaled times move less.  The table also prints the
unscaled figures, setup_s_raw and cmds_per_s_raw, and the kernel's
median time, host_kernel_ms.

--trace 1 runs untraced and traced cycles in turn, half as many of
each, and prints the per-layer metrics of the traced ones (see
tracer.py), the tracing overhead, and whether traced and untraced
outputs are byte-identical.

Both print a table of the workload's end-to-end metrics (including
jets_points_per_s, train_epochs_per_s, sweep_epochs_per_s, jets_grad_rel_err,
train_test_rel_l2 and error_rate where they apply) and a machine
record, then, as the last line, one JSON object {"correct", "attempted",
"failed", "metrics"}.  A command fails on a nonzero exit or a failed
output check; "correct" is false only when a command exited 0 with
wrong outputs, or traced and untraced outputs differ.

The BLAS thread count is fixed at 1 for this process and the ones it
starts, so the sweep's two threads stay within two cores.
"""

import os

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)  # before numpy loads OpenBLAS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from typing import NamedTuple  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracer import POOL_SPAN, ROOT_SPAN, Tracer, self_by_command, span_cost, summarize, tie_row_share  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_run")
SETUP_RUNS = 5
# Reference time of one HostKernel sample: a round figure near its time on
# 2 vCPUs of an Intel Xeon host (8-14 ms measured).
HOST_REF_S = 0.010

# every end-to-end metric of the table: name -> (unit, workloads it applies to)
TABLE = {
    "setup_s": ("s", None),
    "setup_s_raw": ("s", None),
    "cmds_per_s": ("1/s", None),
    "cmds_per_s_raw": ("1/s", None),
    "host_kernel_ms": ("ms", None),
    "jets_points_per_s": ("points/s", {"derivs"}),
    "train_epochs_per_s": ("epochs/s", {"train"}),
    "sweep_epochs_per_s": ("epochs/s", {"train"}),
    "peak_rss_mb": ("MB", None),
    "error_rate": ("failed/attempted", None),
    "jets_grad_rel_err": ("ratio", {"derivs"}),
    "train_test_rel_l2": ("ratio", {"train"}),
}
# the ones every workload has, reported in the final JSON line: name -> unit
END_TO_END = {name: TABLE[name][0] for name in ("setup_s", "cmds_per_s", "peak_rss_mb")}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# machine record
# ---------------------------------------------------------------------------

def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas():
    """(version string, runtime thread count) of numpy's OpenBLAS, if found."""
    import ctypes

    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if get_threads is not None and get_config is not None:
                    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                    get_config.argtypes, get_config.restype = [], ctypes.c_char_p
                    return get_config().decode(), get_threads()
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name', '?')} {blas.get('version', '?')}", None


def _git_commit():
    """The checkout's commit read from .git, or None outside a git work tree."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def machine_record():
    import numpy as np
    import scipy

    import soblab

    blas_version, blas_threads = _openblas()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": blas_version,
        "blas_threads": blas_threads,
        "blas_env": BLAS_ENV,
        "soblab": soblab.__version__,
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# running commands
# ---------------------------------------------------------------------------

class HostKernel:
    """A fixed mix of interpreter loops, small numpy operations, a BLAS
    product and fresh memory, like the commands' own mix, whose time tracks
    the host's speed.  Each part takes about a quarter of it.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.matrix = rng.random((96, 96))
        self.vector = rng.random(4000)
        self.time()  # warm caches before the first sample

    def _once(self):
        total = 0.0
        for i in range(40_000):
            total += i * 0.5
        x = self.vector
        for _ in range(250):
            x = np.sqrt(x * x + 1.0)
        for _ in range(64):
            self.matrix @ self.matrix
        for _ in range(2):  # 4 MB each time: page faults and memory bandwidth
            np.ones(500_000) * 2.0
        return total

    def time(self, repeats=3):
        """Fastest of `repeats` timings: a single one catches stray interrupts."""
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            self._once()
            best = min(best, time.perf_counter() - start)
        return best


def measure_setup(runs=SETUP_RUNS):
    """Median time of fresh interpreters importing soblab.cli.main, in
    reference-host seconds and in wall seconds."""
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    kernel = HostKernel()
    scaled, raw = [], []
    before = kernel.time()
    for _ in range(runs):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import soblab.cli.main"],
            cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL,
        )
        seconds = time.perf_counter() - start
        after = kernel.time()
        scaled.append(seconds * HOST_REF_S / ((before + after) / 2))
        raw.append(seconds)
        before = after
    return statistics.median(scaled), statistics.median(raw)


def run_command(cli_main, cmd, tracer=None):
    """(exit code, wall seconds, captured stderr) of one CLI command."""
    out, err = io.StringIO(), io.StringIO()
    root = tracer.root(cmd.label) if tracer else contextlib.nullcontext()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            with root:
                rc = cli_main(cmd.argv)
        except Exception:  # a crash is one failed command, not the end of the run
            rc = -1
            traceback.print_exc(file=err)
        seconds = time.perf_counter() - start
    return rc, seconds, err.getvalue()


def snapshot(out_dir):
    """Digest of every output file; manifest.json without its duration."""
    digests = {}
    for name in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, name)
        with open(path, "rb") as fh:
            data = fh.read()
        if name == "manifest.json":
            record = json.loads(data)
            record.pop("duration_s", None)
            data = json.dumps(record, sort_keys=True).encode()
        digests[name] = hashlib.sha256(data).hexdigest()
    return digests


class Record(NamedTuple):
    cmd: workloads.Command
    seconds: float
    outcome: workloads.Outcome
    snapshot: dict | None
    host_s: float | None = None  # host kernel time around the command


def run_checked(cli_main, cmd, tracer=None, keep_snapshot=False) -> Record:
    """Run one command and check its outputs."""
    rc, seconds, message = run_command(cli_main, cmd, tracer)
    outcome = workloads.check(cmd, rc, message)
    snap = snapshot(cmd.out_dir) if keep_snapshot and os.path.isdir(cmd.out_dir) else None
    return Record(cmd, seconds, outcome, snap)


def run_sequence(cli_main, commands, kernel, tracer=None, keep_snapshot=False) -> list[Record]:
    """Run commands one after another; each record carries the mean host
    kernel time just before and just after its command."""
    records = []
    before = kernel.time()
    for cmd in commands:
        record = run_checked(cli_main, cmd, tracer, keep_snapshot)
        after = kernel.time()
        records.append(record._replace(host_s=(before + after) / 2))
        before = after
    return records


def measure(cli_main, commands, cycles) -> list[Record]:
    """Closed loop over the timed commands, `cycles` times, then the
    untimed ones once."""
    order = [cmd for _ in range(cycles) for cmd in commands if cmd.timed]
    order += [cmd for cmd in commands if not cmd.timed]
    return run_sequence(cli_main, order, HostKernel())


def measure_traced(cli_main, commands, pairs, tracer):
    """`pairs` untraced and traced cycles in turn.

    Returns (untraced records, traced records, cycle pairs, commands whose
    traced outputs differ from the untraced ones).
    """
    kernel = HostKernel()
    plain, traced, differ = [], [], []
    for _ in range(pairs):
        plain_cycle = run_sequence(cli_main, commands, kernel, keep_snapshot=True)
        with tracer.installed():
            traced_cycle = run_sequence(cli_main, commands, kernel, tracer, keep_snapshot=True)
        differ += [a.cmd.label for a, b in zip(plain_cycle, traced_cycle) if a.snapshot != b.snapshot]
        plain += plain_cycle
        traced += traced_cycle
    return plain, traced, pairs, differ


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(workload, records):
    """Table metrics from untraced records, using each command's median time
    in reference-host seconds."""
    times = {}
    for r in records:
        times.setdefault(r.cmd.label, (r.cmd, [], []))
        times[r.cmd.label][1].append(r.seconds * HOST_REF_S / r.host_s)
        times[r.cmd.label][2].append(r.seconds)
    medians = [(cmd, statistics.median(s)) for cmd, s, _ in times.values()]
    timed = [s for cmd, s in medians if cmd.timed]
    raw = [statistics.median(s) for cmd, _, s in times.values() if cmd.timed]

    def rate(key, kind):
        picked = [(cmd.work[key], s) for cmd, s in medians if cmd.kind == kind]
        return sum(w for w, _ in picked) / sum(s for _, s in picked)

    outcomes = [r.outcome for r in records]
    # commands are deterministic, so accuracy counts each command once
    first = {r.cmd.label: (r.cmd, r.outcome) for r in reversed(records)}.values()
    metrics = {
        "cmds_per_s": len(timed) / sum(timed),
        "cmds_per_s_raw": len(raw) / sum(raw),
        "host_kernel_ms": 1e3 * statistics.median(r.host_s for r in records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "error_rate": sum(not o.ok for o in outcomes) / len(outcomes),
    }
    if workload == "derivs":
        metrics["jets_points_per_s"] = rate("points", "derivs")
        sq_err = sum(o.stats.get("sq_err", 0.0) for _, o in first)
        sq_ref = sum(o.stats.get("sq_ref", 0.0) for _, o in first)
        metrics["jets_grad_rel_err"] = (sq_err / sq_ref) ** 0.5 if sq_ref else float("nan")
    if workload == "train":
        metrics["train_epochs_per_s"] = rate("epochs", "train")
        metrics["sweep_epochs_per_s"] = rate("epochs", "sweep")
        errors = [e for c, o in first if c.kind == "train" for e in o.stats.get("final_test_rel_l2", ())]
        metrics["train_test_rel_l2"] = statistics.median(errors) if errors else float("nan")
    return metrics


def layer_metrics(tracer, traced_cycles, untraced_s, traced_s):
    """Per-layer metrics of the traced cycles.

    Totals (.s, .calls, .mb and counts) are per traced cycle; a layer's
    metric reads 0 on a workload that never calls it.
    mls.solve.self_s is estimate_derivatives minus its build_index and
    knn_all children, and mls.stencils_per_s divides stencils by it.
    training.train.self_s is train minus every traced call inside it: the
    optimizer, parameter copies and batching.  training.mlp.*_per_epoch
    count ReluMLP calls per trained epoch, backward counting every reverse
    pass (backward, jvp_param_grads, input_gradient).
    cli.sweep.parallel_efficiency is the pool jobs' thread CPU seconds over
    threads x pool seconds.  geometry.tie_row_share is the share of knn_all
    rows whose K-th and (K+1)-th neighbour distances tie, computed from the
    inputs.  trace.overhead_s is traced minus untraced command time,
    trace.overhead_est_s the span count times one wrapper's measured cost,
    and trace.unaccounted_s the traced command time the span self times do
    not cover (after removing the overlap of concurrent pool jobs).
    """
    per_name, overlap = summarize(tracer)
    n = traced_cycles

    def get(name, key="s"):
        return per_name[name][key] if name in per_name else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    epochs = get("training.train", "epochs")
    solve_s = get("mls.estimate_derivatives", "self_s")
    self_sum = sum(rec["self_s"] for rec in per_name.values())
    m = {
        "cli.main.self_s": get(ROOT_SPAN, "self_s") / n,
        "cli.load_cloud_csv.s": get("cli.load_cloud_csv") / n,
        "cli.write_csv.s": get("cli.write_csv") / n,
        "cli.write_csv.mb": get("cli.write_csv", "bytes") / 1e6 / n,
        "cli.svg.s": get("cli.svg") / n,
        "cli.manifest.s": get("cli.manifest") / n,
        "cli.sweep.pool_s": get(POOL_SPAN) / n,
        "cli.sweep.parallel_efficiency": ratio(
            sum(tracer.job_cpu_s), get(POOL_SPAN) * ratio(get(POOL_SPAN, "threads"), get(POOL_SPAN, "calls"))
        ),
        "geometry.knn_all.s": get("geometry.knn_all") / n,
        "geometry.knn_all.rows_per_s": ratio(get("geometry.knn_all", "rows"), get("geometry.knn_all")),
        "geometry.tie_row_share": tie_row_share(tracer.knn_inputs),
        "mls.estimate_derivatives.calls": get("mls.estimate_derivatives", "calls") / n,
        "mls.estimate_derivatives.s": get("mls.estimate_derivatives") / n,
        "mls.solve.self_s": solve_s / n,
        "mls.stencils_per_s": ratio(get("mls.estimate_derivatives", "stencils"), solve_s),
        "mls.flagged_stencils": get("mls.estimate_derivatives", "flagged") / n,
        "training.synth_dataset.s": get("training.synth_dataset") / n,
        "training.mls_derivative_targets.s": get("training.mls_derivative_targets") / n,
    }
    for name in ("backward_l2", "backward_der", "evaluate_losses", "predict_values", "pcgrad_merge"):
        m[f"training.{name}.s"] = get(f"training.{name}") / n
        m[f"training.{name}.calls"] = get(f"training.{name}", "calls") / n
    m.update({
        "training.pcgrad.conflict_ratio": ratio(
            get("training.pcgrad_merge", "projections"), get("training.pcgrad_merge", "calls")
        ),
        "training.mlp.forward_per_epoch": ratio(get("training.mlp.forward", "calls"), epochs),
        "training.mlp.jvp_per_epoch": ratio(get("training.mlp.jvp", "calls"), epochs),
        "training.mlp.backward_per_epoch": ratio(get("training.mlp.backward", "calls"), epochs),
        "training.train.self_s": get("training.train", "self_s") / n,
        "convlab.integrate_flow_batch.s": get("convlab.integrate_flow_batch") / n,
        "convlab.integrate_flow_batch.us_per_start_step": 1e6 * ratio(
            get("convlab.integrate_flow_batch"), get("convlab.integrate_flow_batch", "start_steps")
        ),
        "convlab.flow_integrate.s": get("convlab.flow_integrate") / n,
        "convlab.flow_integrate.us_per_step": 1e6 * ratio(
            get("convlab.flow_integrate"), get("convlab.flow_integrate", "steps")
        ),
        "convlab.mc.s": get("convlab.mc") / n,
        "convlab.validation_suite.self_s": get("convlab.validation_suite", "self_s") / n,
        "convlab.validate.failed_verdicts": get("convlab.validation_suite", "failed_verdicts") / n,
        "trace.wall_s": traced_s / n,
        "trace.overhead_s": (traced_s - untraced_s) / n,
        "trace.overhead_share": ratio(traced_s - untraced_s, untraced_s),
        "trace.overhead_est_s": len(tracer.spans) * span_cost() / n,
        "trace.unaccounted_s": (traced_s - (self_sum - overlap)) / n,
        "trace.spans": len(tracer.spans) / n,
    })
    return m


# units of the per-layer metrics, by name suffix
_LAYER_UNITS = (
    ("_per_epoch", "1/epoch"),
    ("rows_per_s", "1/s"),
    ("stencils_per_s", "1/s"),
    (".us_per_start_step", "us"),
    (".us_per_step", "us"),
    (".mb", "MB"),
    ("_s", "s"),
    (".s", "s"),
    ("_share", "ratio"),
    ("_ratio", "ratio"),
    ("_efficiency", "ratio"),
)


def layer_unit(name):
    for suffix, unit in _LAYER_UNITS:
        if name.endswith(suffix):
            return unit
    return "count"


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "soblab", "cli", "main.py")):
        print(f"bench: no soblab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import soblab
    from soblab.cli.main import main as cli_main

    if not os.path.abspath(soblab.__file__).startswith(SRC + os.sep):
        print(f"bench: imported soblab from {soblab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    setup_s, setup_s_raw = measure_setup() if args.trace == 0 else (None, None)
    os.makedirs(WORK_ROOT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK_ROOT)
    try:
        commands = workloads.build(args.workload, args.seed, work_dir)
        tracer = Tracer()
        if args.trace:
            pairs = workloads.cycles(args.workload, args.seconds / 2)
            plain, traced, pairs, differ = measure_traced(cli_main, commands, pairs, tracer)
        else:
            cycles = workloads.cycles(args.workload, args.seconds)
            plain, traced, pairs, differ = measure(cli_main, commands, cycles), [], 0, []
        results = plain + traced
        workloads.cross_check(
            [r.outcome for r in results if r.cmd.kind == "sweep"],
            [(r.cmd, r.outcome) for r in results if r.cmd.kind == "train"],
        )
        wrong = [f"{label}: traced outputs differ from untraced" for label in differ]
        wrong += [f"{r.cmd.label}: {r.outcome.detail}" for r in results if r.outcome.wrong]

        table = end_to_end(args.workload, plain)
        table["setup_s"] = setup_s
        table["setup_s_raw"] = setup_s_raw
        for name, (unit, applies) in TABLE.items():
            if (applies is None or args.workload in applies) and table.get(name) is not None:
                print(f"{name:<20} {table[name]:.6g} {unit}")
        for r in results:
            if not r.outcome.ok:
                print(f"failed {r.cmd.label}: {r.outcome.detail}")
        print("machine " + json.dumps(machine_record(), sort_keys=True))

        if args.trace:
            untraced_s = sum(r.seconds for r in plain)
            traced_s = sum(r.seconds for r in traced)
            metrics = layer_metrics(tracer, pairs, untraced_s, traced_s)
            overhead = max(abs(metrics["trace.overhead_s"]), metrics["trace.overhead_est_s"])
            if abs(metrics["trace.unaccounted_s"]) > overhead + 1e-3:
                wrong.append("span self times do not add up to the traced wall time")
            for label, names in self_by_command(tracer).items():
                top = sorted(names.items(), key=lambda kv: -kv[1])[:4]
                shares = ", ".join(f"{name} {s / pairs:.3f}s" for name, s in top)
                print(f"self time {label}: {shares}")
            if tracer.missing:
                print("untraced (absent): " + ", ".join(tracer.missing))
            write_spans(tracer, args.workload)
            result_metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in metrics.items()}
        else:
            result_metrics = {k: {"value": table[k], "unit": u} for k, u in END_TO_END.items()}
        for line in wrong:
            print(f"wrong {line}")
        print(json.dumps({
            "correct": not wrong,
            "attempted": len(results),
            "failed": sum(not r.outcome.ok for r in results),
            "metrics": result_metrics,
        }))
        return 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def write_spans(tracer, workload):
    """Write the traced spans to .bench_run/spans-<workload>.csv."""
    path = os.path.join(WORK_ROOT, f"spans-{workload}.csv")
    with open(path, "w") as fh:
        fh.write("id,name,start,end,parent,command\n")
        for sid, name, start, end, parent in tracer.spans:
            fh.write(f"{sid},{name},{start!r},{end!r},{'' if parent is None else parent},"
                     f"{tracer.roots.get(sid, '')}\n")
    print(f"spans written to {os.path.relpath(path, ROOT)}")


if __name__ == "__main__":
    sys.exit(main())

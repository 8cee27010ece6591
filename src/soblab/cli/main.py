"""soblab command line: derivs, rates, flow, landscape, train, sweep, validate.

Global flags come before the subcommand: --seed (>= 0), --out-dir, --threads
(>= 1, by default the CPUs this process may use; one bound on a run's
workers, threads and processes alike, and never above the usable CPUs:
derivs and rates run the row blocks of their KNN and MLS fits on that many
threads, each thread holding one block; validate runs its Monte-Carlo
checks beside the rest, flow its L2 and Sob runs and sweep its (value,
seed) groups on that many processes, this one included; and a CSV of two
or more write chunks is formatted on that many processes; the outputs are
the same at any count), and --from-manifest FILE to replay a previous run
byte for byte (no subcommand: the manifest names the command; its config,
whose keys must be the command's settings, threads, out_dir or a _RETIRED
one at its value, and its seed fill in what no global flag gives).
DEFAULTS lists each command's settings; a setting is the flag --key with
"_" spelled "-" (t_final is --T).  Each value, from a flag or a manifest,
is typed once like its flag (_typed); a manifest value that fails exits 3
naming the key and the file.  derivs --input, rates --resolutions and
sweep --param and --values are required.

Exit codes, carried by each error class: 2 input parse error (an
unreadable input file too), 3 configuration error (a setting too large
to allocate is one too, and so is an output path that cannot be
written), 4 numerical failure.  Expected errors print a one-line
message, never a stack trace, and a failed run removes the directories
it made for --out-dir while they are empty.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import sys
import time

import numpy as np

from .. import __version__, convlab, mls, parallel
from ..errors import (EXIT_CONFIG, EXIT_PARSE, ConfigError, InputError, SoblabError,
                      StepTooLargeError)
from ..geometry import load_cloud_csv
from ..training import MODES, DatasetSizes, TrainConfig, synth_dataset, train
from . import svg
from .io import atomic_write_text, write_csv
from .manifest import file_digest, write_manifest


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as configuration errors."""

    def error(self, message):
        raise ConfigError(message)


# ---------------------------------------------------------------------------
# command defaults and runners; every runner consumes one resolved config dict
# and yields its outputs in write order, each a (file name, content) pair: the
# text of the file, or a CSV table's (header, columns)
# ---------------------------------------------------------------------------

DEFAULTS: dict[str, dict] = {
    "derivs": {"input": None, "k": 20, "m": 2},
    "rates": {
        "function": "sincos",
        "resolutions": None,
        "k": 20,
        "m": 2,
    },
    "flow": {
        "theta0": 0.8,
        "ratio0": 1.0,
        "mode": "both",
        "dt": 0.01,
        "t_final": 40.0,
        "allow_outside": False,
        "record_every": 10,
    },
    "landscape": {"theta_steps": 48, "x_steps": 40, "x_max": 3.0},
    "train": {
        "task": "antiderivative1d",
        "mode": "sobolev",
        "noise": 0.0,
        "k": 20,
        "m": 2,
        "epochs": 300,
        "learning_rate": 3e-3,
        "batch_size": 0,
        "rank": 8,
        "hidden": "64,64",
        "der_weight": 1.0,
        "derivative_source": "mls",
        "train_size": 64,
        "val_size": 16,
        "test_size": 16,
        "sensors": 32,
        "queries": 96,
        "optimizer": "adam",
    },
    "sweep": {},  # filled below: train defaults plus sweep controls
    "validate": {"full": False},
}
DEFAULTS["sweep"] = {
    **DEFAULTS["train"],
    "param": None,
    "values": None,
    "repeats": 5,
    "mode": "all",
}
# every setting is the flag "--" + key with "_" -> "-", except these
_FLAGS = {"t_final": "--T"}
# the list settings, given as a comma-separated string or a JSON list, and their element type
_LISTS = {"hidden": int, "resolutions": int, "values": float}
_NOUNS = {int: "an integer", float: "a number", bool: "true or false", str: "a string"}
# the settings a command cannot run without, and the message when one is missing
_REQUIRED = {
    "derivs": {"input": "--input is required (a point-cloud CSV)"},
    "rates": {"resolutions": "--resolutions is required (comma-separated point counts)"},
    "sweep": {"param": "--param is required (K, m or noise)", "values": "--values is required"},
}
# settings a command no longer has, and the value it always uses now
_RETIRED = {"derivs": {"out": "jets.csv"}, "flow": {"dim": 2}, "rates": {"orders": None}}
HELP = {
    "derivs": "estimate jets for a point-cloud CSV",
    "rates": "convergence-rate study on random clouds",
    "flow": "integrate the population gradient flow",
    "landscape": "normalized descent-rate landscape",
    "train": "train the operator network on a synthetic task",
    "sweep": "parameter sweep over repeated training runs",
    "validate": "closed-form vs Monte-Carlo check suite",
}


def run_derivs(config, seed):
    cloud = load_cloud_csv(config["input"])
    cfg = mls.MlsConfig(k=config["k"], m=config["m"])
    jet = mls.estimate_derivatives(cloud, cfg, config["threads"])
    header = (
        ["j"]
        + [f"x{d + 1}" for d in range(jet.dim)]
        + ["c_" + "_".join(str(a) for a in alpha) for alpha in jet.multi_indices]
        + ["flagged"]
    )
    yield "jets.csv", (header, [np.arange(jet.size), jet.points, jet.coefficients, jet.flagged])


def run_rates(config, seed):
    name = config["function"]
    if name not in mls.BUILTIN_FUNCTIONS:
        raise ConfigError(f"unknown function {name!r}; choose from {sorted(mls.BUILTIN_FUNCTIONS)}")
    fn = mls.BUILTIN_FUNCTIONS[name]()
    cfg = mls.MlsConfig(k=config["k"], m=config["m"])
    study = mls.convergence_study(fn, config["resolutions"], cfg, seed=seed,
                                  threads=config["threads"])
    yield "rates.csv", (
        ["resolution", "h", "order", "mse", "slope_running", "exact", "seed"],
        [study.resolution, study.h, study.order, study.mse, study.slope_running,
         study.mse < 1e-12, [seed] * len(study.order)],
    )
    series = []
    for order, slope in sorted(study.slopes.items()):
        _, hs, errs = study.mse_series(order)
        label = f"order {order}" + ("" if math.isnan(slope) else f" (slope {slope:.2f})")
        series.append((label, hs, errs))
    yield "rates.svg", svg.line_plot(
        series,
        title=f"derivative MSE vs spacing: {name}",
        xlabel="h",
        ylabel="mse",
        logx=True,
        logy=True,
    )


def _flow_start(theta0, ratio0):
    for flag, value in (("--theta0", theta0), ("--ratio0", ratio0)):
        if not math.isfinite(value):
            raise ConfigError(f"flow needs a finite {flag}, got {value}")
    x, y = ratio0 * math.cos(theta0), ratio0 * math.sin(theta0)
    if not 0.0 < x * x + y * y < math.inf:  # Python floats: no overflow or underflow warning
        raise ConfigError(
            f"flow needs a --ratio0 whose square is positive and finite, got {ratio0}")
    return np.array([x, y]), np.array([1.0, 0.0])


def run_flow(config, seed):
    modes = ["L2", "Sob"] if config["mode"] == "both" else [convlab.flow_mode(config["mode"])]
    w0, w_star = _flow_start(config["theta0"], config["ratio0"])
    grid = dict(dt=config["dt"], t_final=config["t_final"], record_every=config["record_every"],
                allow_outside_basin=config["allow_outside"])

    def integrate(mode):  # one single-start run, or the step guard's error
        try:
            return convlab.integrate_flow_batch(w0, w_star, mode=mode, **grid)
        except StepTooLargeError as exc:
            return exc

    # the modes run side by side; nothing is yielded unless every mode
    # passes the step guard, and a failure names the earliest tripping step
    shares = parallel.split(modes, parallel.worker_count(config["threads"]))
    with parallel.fork_map(integrate, shares) as runs:
        trajs = list(runs)
    guards = [run for run in trajs if isinstance(run, StepTooLargeError)]
    if guards:
        raise min(guards, key=lambda exc: exc.step_index)
    header = ["t", "w1", "w2", "dist2", "ddt_dist2"]
    series = []
    for mode, traj in zip(modes, trajs):
        yield (f"trajectory_{mode.lower()}.csv",
               (header, [traj.times, traj.weights[0], traj.dist2[0], traj.ddt_dist2[0]]))
        series.append((mode, traj.times, np.sqrt(traj.dist2[0])))
    yield "flow.svg", svg.line_plot(
        series,
        title="distance to target under the gradient flow",
        xlabel="t",
        ylabel="|w - w*|",
    )


def run_landscape(config, seed):
    steps, x_steps, x_max = config["theta_steps"], config["x_steps"], config["x_max"]
    if steps < 2 or x_steps < 2:
        raise ConfigError("need at least 2 steps per axis")
    if not math.isfinite(x_max):
        raise ConfigError("grids must be finite")
    # every ratio in [1e-150, 1e75]: below, the squares of the planar
    # coordinates underflow; above, the rates overflow
    if not 1e-150 * x_steps <= x_max <= 1e75:
        raise ConfigError(f"--x-max must lie in [{1e-150 * x_steps:.6g}, 1e75], got {x_max}")
    thetas = np.linspace(0.0, math.pi, steps + 2)[1:-1]
    ratios = np.linspace(0.0, x_max, x_steps + 1)[1:]
    table = convlab.descent_landscape(thetas, ratios)
    # one row per (theta_i, x_j), i-major
    yield "landscape.csv", (
        ["theta", "x", "v_l2", "v_sob", "defined"],
        [np.repeat(thetas, ratios.size), np.tile(ratios, thetas.size),
         table.v_l2.ravel(), table.v_sob.ravel(), table.defined.ravel()],
    )
    yield "landscape_l2.svg", svg.heatmap(
        thetas, ratios, table.v_l2, title="normalized descent rate: value flow",
        xlabel="theta", ylabel="|w|/|w*|",
    )
    yield "landscape_sob.svg", svg.heatmap(
        thetas, ratios, table.v_sob, title="normalized descent rate: derivative-supervised flow",
        xlabel="theta", ylabel="|w|/|w*|",
    )
    grid = np.linspace(0.0, math.pi, 2048)
    margins, defined = convlab.derivative_flow_margin_scan(grid)
    yield "margin_curve.svg", svg.line_plot(
        [("margin", grid[defined], margins[defined])],
        title="derivative-flow margin (undefined range excluded)",
        xlabel="theta",
        ylabel="margin",
    )
    print(f"margin curve: {int((~defined).sum())} of {grid.size} grid angles undefined")


def _train_config(config, seed):
    cfg = TrainConfig(
        epochs=config["epochs"],
        learning_rate=config["learning_rate"],
        batch_size=config["batch_size"] or None,
        der_weight=config["der_weight"],
        rank=config["rank"],
        hidden=tuple(config["hidden"]),
        optimizer=config["optimizer"],
        seed=seed,
    )
    cfg.validate()  # before the dataset is synthesized
    return cfg


def _dataset(config, seed):
    sizes = DatasetSizes(train=config["train_size"], val=config["val_size"],
                         test=config["test_size"], sensors=config["sensors"],
                         queries=config["queries"])
    return synth_dataset(config["task"], sizes=sizes, noise=config["noise"], seed=seed,
                         derivative_source=config["derivative_source"],
                         mls_k=config["k"], mls_m=config["m"])


def run_train(config, seed):
    report = train(_train_config(config, seed), _dataset(config, seed), config["mode"])
    yield "report.json", json.dumps(dataclasses.asdict(report), indent=2, sort_keys=True) + "\n"
    print(f"final relative-L2 test error: {report.final_test_rel_l2:.6e}")


def run_sweep(config, seed):
    param = config["param"]
    if param not in ("K", "m", "noise"):
        raise ConfigError("--param must be one of K, m, noise")
    values, repeats = config["values"], config["repeats"]
    if len(values) < 2:
        raise ConfigError("need at least 2 sweep values")
    if len(set(values)) < len(values):  # the same jobs twice, with the same seeds
        raise ConfigError(f"--values must not repeat, got {values!r}")
    if repeats < 1:
        raise ConfigError(f"--repeats must be >= 1, got {repeats}")
    modes = MODES if config["mode"] == "all" else [config["mode"]]
    if param in ("K", "m"):
        # stencil parameters only matter with derivative targets
        modes = [mode for mode in modes if mode != "ordinary"]
        if not modes:
            raise ConfigError(f"--param {param} needs derivative targets; --mode ordinary has none")
        if config["derivative_source"] != "mls":  # exact ones ignore the stencil, none has none
            raise ConfigError(f"--param {param} needs MLS derivative targets, "
                              f"not --derivative-source {config['derivative_source']}")
    key, kind = {"K": ("k", int), "m": ("m", int), "noise": ("noise", float)}[param]
    if kind is int and not all(value.is_integer() for value in values):  # NaN and inf are not
        raise ConfigError(f"--values for --param {param} must be integers, got {values!r}")
    cfg = _train_config(config, seed)
    configs = [{**config, key: kind(value)} for value in values]
    firsts = []  # each value's dataset at seed, which every mode runs for 0 epochs
    for value_config in configs:  # so that each refusal comes before any job trains
        firsts.append(_dataset(value_config, seed))
        for mode in modes:
            train(dataclasses.replace(cfg, epochs=0), firsts[-1], mode)

    def group(job):  # one dataset per (value, seed), trained in every mode
        i, rep = job
        dataset = firsts[i] if rep == 0 else _dataset(configs[i], seed + rep)
        seeded = dataclasses.replace(cfg, seed=seed + rep)
        return [train(seeded, dataset, mode).final_test_rel_l2 for mode in modes]

    groups = list(np.ndindex(len(values), repeats))
    shares = parallel.split(groups, parallel.worker_count(config["threads"]))
    errors = np.empty((len(values), len(modes), repeats))  # by value, mode and repeat
    with parallel.fork_map(group, shares) as results:
        for (i, rep), group_errors in zip(groups, results):
            errors[i, :, rep] = group_errors
    rows = [(values[i], modes[j], seed + rep, errors[i, j, rep])
            for i, j, rep in np.ndindex(errors.shape)]
    yield "sweep.csv", ([param, "mode", "seed", "final_rel_l2"], list(zip(*rows)))
    medians = np.median(errors, axis=2)
    series = [(mode, values, medians[:, j].tolist()) for j, mode in enumerate(modes)]
    yield "sweep.svg", svg.line_plot(
        series,
        title=f"median relative-L2 error vs {param}",
        xlabel=param,
        ylabel="median rel-L2",
    )


def run_validate(config, seed):
    verdicts = convlab.validation_suite(seed=seed, full=config["full"], threads=config["threads"])
    yield "validate.json", json.dumps(verdicts, indent=2, sort_keys=True) + "\n"
    width = max(len(v["name"]) for v in verdicts)
    for v in verdicts:
        status = "pass" if v["pass"] else "FAIL"
        print(f"{v['name']:<{width}}  statistic={v['statistic']:.3e}  bound={v['bound']:.3e}  {status}")
    if not all(v["pass"] for v in verdicts):
        raise SoblabError("validation suite reported failures")


RUNNERS = {
    "derivs": run_derivs,
    "rates": run_rates,
    "flow": run_flow,
    "landscape": run_landscape,
    "train": run_train,
    "sweep": run_sweep,
    "validate": run_validate,
}


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="soblab", description=__doc__)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out-dir", default=None)
    parser.add_argument("--threads", type=int, default=None)
    parser.add_argument("--from-manifest", default=None, help="replay a recorded run")
    sub = parser.add_subparsers(dest="command")
    for command, settings in DEFAULTS.items():
        p = sub.add_parser(command, help=HELP[command])
        for key, default in settings.items():
            flag = _FLAGS.get(key, "--" + key.replace("_", "-"))
            if isinstance(default, bool):
                p.add_argument(flag, dest=key, action="store_true", default=None)
            else:
                p.add_argument(flag, dest=key, type=str if default is None else type(default))
    return parser


def _as(kind, value):
    """value as kind: an integral float is an int, an int or a numeric string
    a float, and nothing else converts (a bool is no number)."""
    if kind is float and isinstance(value, str):
        return float(value)  # as the flag parses it
    if kind is int and isinstance(value, float) and value.is_integer():
        value = int(value)
    if kind is float and type(value) is int:
        value = float(value)
    if not isinstance(value, kind) or isinstance(value, bool) != (kind is bool):
        raise ValueError(value)
    return value


def _typed(key, value, default, source):
    """value as the type of its default, a _LISTS setting as a list from a
    comma-separated string (parsed like its flag) or a JSON number or list.
    An unset setting with no default stays None.  A failure names the key
    and source, the file of the value (None for a flag)."""
    if value is None and default is None:
        return None
    element = _LISTS.get(key)
    kind = element or (str if default is None else type(default))
    try:
        if element is None:
            return _as(kind, value)
        if isinstance(value, str):
            return [element(item) for item in value.split(",") if item != ""]
        return [_as(element, item) for item in (value if isinstance(value, list) else [value])]
    except (ValueError, OverflowError):
        noun = _NOUNS[kind] if element is None else f"a list of {_NOUNS[kind].split()[-1]}s"
        name = f"{source}: {key}" if source else _FLAGS.get(key, "--" + key.replace("_", "-"))
        raise ConfigError(f"{name} must be {noun}, got {value!r}") from None


def resolve_config(command: str, cli_args: dict, file_values: dict, source=None) -> dict:
    """The command's settings and the globals seed, out_dir and threads, each
    typed once: defaults < file_values (from the manifest source) < explicit flags."""
    config = {**DEFAULTS[command], "seed": 0, "out_dir": ".", "threads": parallel.usable_cpus()}
    for key, default in config.items():
        if cli_args.get(key) is not None:
            config[key] = _typed(key, cli_args[key], default, None)
        else:
            config[key] = _typed(key, file_values.get(key, default), default, source)
    return config


def execute(command: str, config: dict, digests=None) -> None:
    """Run command on its resolved config, write each output it yields into
    the out-dir, then the manifest, which digests the file of the input
    setting.  digests, {path: sha256} of a replayed manifest's inputs, must
    still match the files, or InputError is raised before the out-dir is made."""
    config = dict(config)
    seed = config.pop("seed")  # the manifest records it beside the config
    threads, out_dir = config["threads"], config["out_dir"]
    if threads < 1:
        raise ConfigError(f"--threads must be >= 1, got {threads}")
    if seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {seed}")
    for key, message in _REQUIRED.get(command, {}).items():
        if not config[key]:
            raise ConfigError(message)
    for path, recorded in (digests or {}).items():
        try:
            now = file_digest(path)
        except OSError:
            now = "missing"
        if now != recorded:
            raise InputError(f"{path}: not the input the manifest recorded "
                             f"(sha256 {recorded[:12]} recorded, {now[:12]} now)")
    created = []  # the directories this run makes, deepest first
    head = out_dir
    while head and not os.path.exists(head):
        created.append(head)
        head = os.path.dirname(head)
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use --out-dir {out_dir!r}: {exc.strerror or exc}") from None
    started = time.monotonic()
    try:
        for name, content in RUNNERS[command](config, seed):  # each output as it is yielded
            path = os.path.join(out_dir, name)
            if isinstance(content, str):
                atomic_write_text(path, content)
            else:
                write_csv(path, *content, workers=parallel.worker_count(threads))
        write_manifest(out_dir, command, config, seed, __version__,
                       input_files=[config["input"]] if "input" in config else [],
                       duration_s=time.monotonic() - started)
    except BaseException:
        for path in created:  # one that holds an output stays
            with contextlib.suppress(OSError):
                os.rmdir(path)
        raise


def _replay_source(path):
    """The command, file values (config plus seed) and input digests a
    manifest recorded."""
    try:
        with open(path) as fh:
            record = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not a manifest (not valid JSON: {exc})") from None
    keys = record.keys() if isinstance(record, dict) else set()
    if not {"command", "config", "seed"} <= keys or not isinstance(record["config"], dict):
        raise ConfigError(f"{path}: not a manifest (needs a command, a config object and a seed)")
    command = record["command"]
    if not isinstance(command, str) or command not in RUNNERS:
        raise ConfigError(f"{path}: unknown command {command!r}")
    retired = _RETIRED.get(command, {})
    for key, value in record["config"].items():
        if key in retired and value != retired[key]:
            raise ConfigError(f"{path}: {command} has no setting {key!r} now: it always "
                              f"uses {retired[key]!r}, but the manifest records {value!r}")
        if key not in DEFAULTS[command] and key not in ("threads", "out_dir", *retired):
            raise ConfigError(f"{path}: unknown setting {key!r} for {command}")
    digests = record.get("input_digests", {})
    if not (isinstance(digests, dict) and all(isinstance(d, str) for d in digests.values())):
        raise ConfigError(f"{path}: input_digests must map each input file to its sha256")
    return command, {**record["config"], "seed": record["seed"]}, digests


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.from_manifest:
            if args.command:
                raise ConfigError(f"{args.from_manifest}: --from-manifest takes no command")
            command, file_values, digests = _replay_source(args.from_manifest)
        elif args.command:
            command, file_values, digests = args.command, {}, None
        else:
            raise ConfigError("a command is required (or --from-manifest)")
        execute(command, resolve_config(command, vars(args), file_values, args.from_manifest), digests)
        return 0
    except SoblabError as exc:
        print(f"soblab: {exc.prefix}{exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:  # outputs raise ConfigError, so this is an input file
        print(f"soblab: input error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValueError, TypeError, MemoryError) as exc:
        print(f"soblab: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

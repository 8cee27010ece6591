"""soblab command line: derivs, rates, flow, landscape, train, sweep, validate.

Global flags come before the subcommand: --seed (>= 0), --out-dir, --threads
(>= 1, by default the CPUs this process may use; derivs and rates run the
row blocks of their KNN and MLS fits on that many threads, each thread
holding one block, with the same outputs at any count), --config FILE
(key = value lines; explicit flags win; unknown keys are an error), and
--from-manifest FILE to replay a previous run byte for byte (no
subcommand or --config: the manifest names the command; its config, whose
keys must be the command's settings, threads or out_dir, and its seed
resolve like a config file's).
DEFAULTS lists each command's settings; a setting is the flag --key with
"_" spelled "-" (t_final is --T).  Each value, from a flag or a file, is
typed once like its flag (_typed); a file value that fails exits 3 naming
the key and the file.  derivs --input, rates --resolutions and sweep
--param and --values are required.

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

from .. import __version__, convlab, mls
from ..errors import (EXIT_CONFIG, EXIT_PARSE, ConfigError, InputError, SoblabError,
                      StepTooLargeError)
from ..geometry import load_cloud_csv
from ..training import MODES, DatasetSizes, TrainConfig, synth_dataset, train
from . import svg
from .io import atomic_write_text, write_csv
from .manifest import file_digest, load_manifest, write_manifest


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
    "derivs": {"input": None, "k": 20, "m": 2, "out": "jets.csv"},
    "rates": {
        "function": "sincos",
        "resolutions": None,
        "k": 20,
        "m": 2,
        "orders": None,
    },
    "flow": {
        "dim": 2,
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
# a config file may set the globals and any command's settings
_CONFIG_KEYS = {"seed", "out_dir", "threads"}.union(*DEFAULTS.values())
# every setting is the flag "--" + key with "_" -> "-", except these
_FLAGS = {"t_final": "--T"}
# the list settings, given as a comma-separated string or a JSON list, and their element type
_LISTS = {"hidden": int, "resolutions": int, "orders": int, "values": float}
_NOUNS = {int: "an integer", float: "a number", bool: "true or false", str: "a string"}
# the settings a command cannot run without, and the message when one is missing
_REQUIRED = {
    "derivs": {"input": "--input is required (a point-cloud CSV)"},
    "rates": {"resolutions": "--resolutions is required (comma-separated point counts)"},
    "sweep": {"param": "--param is required (K, m or noise)", "values": "--values is required"},
}
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
    if not os.path.basename(config["out"]):  # before the cloud is read and fitted
        raise ConfigError(f"--out must name a file, got {config['out']!r}")
    cloud = load_cloud_csv(config["input"])
    cfg = mls.MlsConfig(k=config["k"], m=config["m"])
    jet = mls.estimate_derivatives(cloud, cfg, config["threads"])
    header = (
        ["j"]
        + [f"x{d + 1}" for d in range(jet.dim)]
        + ["c_" + "_".join(str(a) for a in alpha) for alpha in jet.multi_indices]
        + ["flagged"]
    )
    yield config["out"], (header, [np.arange(jet.size), jet.points, jet.coefficients, jet.flagged])


def run_rates(config, seed):
    name = config["function"]
    if name not in mls.BUILTIN_FUNCTIONS:
        raise ConfigError(f"unknown function {name!r}; choose from {sorted(mls.BUILTIN_FUNCTIONS)}")
    fn = mls.BUILTIN_FUNCTIONS[name]()
    cfg = mls.MlsConfig(k=config["k"], m=config["m"])
    study = mls.convergence_study(fn, config["resolutions"], cfg, seed=seed,
                                  orders=config["orders"] or None, threads=config["threads"])
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


def _flow_start(dim, theta0, ratio0):
    if dim < 2:
        raise ConfigError("flow needs --dim >= 2")
    for flag, value in (("--theta0", theta0), ("--ratio0", ratio0)):
        if not math.isfinite(value):
            raise ConfigError(f"flow needs a finite {flag}, got {value}")
    x, y = ratio0 * math.cos(theta0), ratio0 * math.sin(theta0)
    if not 0.0 < x * x + y * y < math.inf:  # Python floats: no overflow or underflow warning
        raise ConfigError(
            f"flow needs a --ratio0 whose square is positive and finite, got {ratio0}")
    w_star = np.zeros(dim)
    w_star[0] = 1.0
    w0 = np.zeros(dim)
    w0[:2] = x, y
    return w0, w_star


def run_flow(config, seed):
    modes = ["L2", "Sob"] if config["mode"] == "both" else [convlab.flow_mode(config["mode"])]
    w0, w_star = _flow_start(config["dim"], config["theta0"], config["ratio0"])
    grid = dict(dt=config["dt"], t_final=config["t_final"], record_every=config["record_every"],
                allow_outside_basin=config["allow_outside"])
    # one single-start run per mode; nothing is yielded unless every mode
    # passes the step guard, and a failure names the earliest tripping step
    trajs, guards = [], []
    for mode in modes:
        try:
            trajs.append(convlab.integrate_flow_batch(w0, w_star, mode=mode, **grid))
        except StepTooLargeError as exc:
            guards.append(exc)
    if guards:
        raise min(guards, key=lambda exc: exc.step_index)
    header = ["t"] + [f"w{d + 1}" for d in range(len(w0))] + ["dist2", "ddt_dist2"]
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


def _train_once(config, seed):
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
    sizes = DatasetSizes(
        train=config["train_size"],
        val=config["val_size"],
        test=config["test_size"],
        sensors=config["sensors"],
        queries=config["queries"],
    )
    dataset = synth_dataset(
        config["task"],
        sizes=sizes,
        noise=config["noise"],
        seed=seed,
        derivative_source=config["derivative_source"],
        mls_k=config["k"],
        mls_m=config["m"],
    )
    return train(cfg, dataset, config["mode"])


def run_train(config, seed):
    report = _train_once(config, seed)
    yield "report.json", json.dumps(dataclasses.asdict(report), indent=2, sort_keys=True) + "\n"
    yield "losses.csv", (
        ["epoch", "l2", "der", "val_rel_l2"],
        [np.arange(len(report.epoch_l2)), report.epoch_l2, report.epoch_der,
         report.epoch_val_rel_l2],
    )
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
    key, kind = {"K": ("k", int), "m": ("m", int), "noise": ("noise", float)}[param]
    if kind is int and not all(value.is_integer() for value in values):  # NaN and inf are not
        raise ConfigError(f"--values for --param {param} must be integers, got {values!r}")
    jobs = [(value, mode, {**config, "mode": mode, key: kind(value)})
            for value in values for mode in modes]
    for _, _, job in jobs:  # each job's refusal, before any job trains
        _train_once({**job, "epochs": 0}, seed)
    rows = [(value, mode, seed + rep, _train_once(job, seed + rep).final_test_rel_l2)
            for value, mode, job in jobs for rep in range(repeats)]
    columns = list(zip(*rows))
    yield "sweep.csv", ([param, "mode", "seed", "final_rel_l2"], columns)
    # the errors by value, mode and repeat
    medians = np.median(np.reshape(columns[3], (len(values), len(modes), repeats)), axis=2)
    series = [(mode, values, medians[:, i].tolist()) for i, mode in enumerate(modes)]
    yield "sweep.svg", svg.line_plot(
        series,
        title=f"median relative-L2 error vs {param}",
        xlabel=param,
        ylabel="median rel-L2",
    )


def run_validate(config, seed):
    verdicts = convlab.validation_suite(seed=seed, full=config["full"])
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
    parser.add_argument("--config", default=None, help="key = value defaults file")
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


def _read_config_file(path) -> dict:
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown setting {key!r}")
            value = value.strip()
            try:
                out[key] = json.loads(value)
            except json.JSONDecodeError:
                out[key] = value
    return out


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
    typed once: defaults < file values (read from source) < explicit flags."""
    config = {**DEFAULTS[command], "seed": 0, "out_dir": ".", "threads": _usable_cpus()}
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
                write_csv(path, *content)
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
        record = load_manifest(path)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not a manifest (not valid JSON: {exc})") from None
    keys = record.keys() if isinstance(record, dict) else set()
    if not {"command", "config", "seed"} <= keys or not isinstance(record["config"], dict):
        raise ConfigError(f"{path}: not a manifest (needs a command, a config object and a seed)")
    command = record["command"]
    if not isinstance(command, str) or command not in RUNNERS:
        raise ConfigError(f"{path}: unknown command {command!r}")
    for key in record["config"]:
        if key not in DEFAULTS[command] and key not in ("threads", "out_dir"):
            raise ConfigError(f"{path}: unknown setting {key!r} for {command}")
    digests = record.get("input_digests", {})
    if not (isinstance(digests, dict) and all(isinstance(d, str) for d in digests.values())):
        raise ConfigError(f"{path}: input_digests must map each input file to its sha256")
    return command, {**record["config"], "seed": record["seed"]}, digests


def _usable_cpus() -> int:
    """The CPUs this process may run on: the default of --threads."""
    if hasattr(os, "sched_getaffinity"):  # not on every platform
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.from_manifest:
            if args.command or args.config:
                raise ConfigError(
                    f"{args.from_manifest}: --from-manifest takes no command or --config")
            command, file_values, digests = _replay_source(args.from_manifest)
        elif args.command:
            command, digests = args.command, None
            file_values = _read_config_file(args.config) if args.config else {}
        else:
            raise ConfigError("a command is required (or --from-manifest)")
        source = args.from_manifest or args.config  # the file of file_values
        execute(command, resolve_config(command, vars(args), file_values, source), digests)
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

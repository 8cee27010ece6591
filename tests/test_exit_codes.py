"""The exit-code contract, generated from the settings table.

Every setting of every command, and the global flags, get each
adversarial value of their type, as a flag, as a config-file line and as
a manifest value for --from-manifest; the files also get values that no
flag can give.  The command runs in-process at small sizes, with warnings
as errors and a time limit, and must exit 0, 2, 3 or 4 with no
traceback, printing one stderr line exactly when it fails, and with the
same code from each source.  A case refused with exit 3 leaves no
out-dir that it made.
"""

import functools
import json
import os
import signal
import warnings

import numpy as np
import pytest
from helpers import save_cloud_csv

from soblab.cli.main import DEFAULTS, build_parser, main
from soblab.geometry import PointCloud

VALUES = {
    float: ["nan", "inf", "-inf", "0", "-1", "1e-320", "1e300"],
    int: ["0", "-1", "1", "2"],
    str: ["", "xyz", ","],
    bool: [],  # a switch takes no value
}
# values that only a file can hold (JSON text), for a setting of every type
FILE_VALUES = ["1.5", "true", '"2"', "[1]"]
# the one file value left out: full = true is valid, and runs the full validate suite (about 10 s)
SKIP = {("validate", "full", "true")}
TINY_TRAIN = [
    "--epochs", "1", "--train-size", "4", "--val-size", "2", "--test-size", "2",
    "--sensors", "8", "--queries", "12", "--hidden", "4", "--rank", "2", "--k", "8",
]
# each command at small sizes; a case's flag comes last, so it wins
BASE = {
    "derivs": ["derivs", "--input", "cloud.csv"],
    "rates": ["rates", "--resolutions", "30,60,120", "--k", "10"],
    "flow": ["flow", "--T", "1", "--dt", "0.1"],
    "landscape": ["landscape", "--theta-steps", "4", "--x-steps", "4"],
    "train": ["train", *TINY_TRAIN],
    "sweep": ["sweep", *TINY_TRAIN, "--param", "noise", "--values", "0,0.1", "--repeats", "1",
              "--mode", "ordinary"],
    "validate": ["validate"],
}
# list-valued string settings also get typed lists, under each setting
# that decides how they parse: (command, the flags before the case, key)
LISTS = [
    ("sweep", ["--param", "K", "--mode", "sobolev"], "values"),
    ("sweep", ["--param", "m", "--mode", "sobolev"], "values"),
    ("rates", [], "resolutions"),
    ("rates", [], "orders"),
    ("train", [], "hidden"),
]
LIST_VALUES = ["nan,1", "inf,1", "1.5,2", "-1,2"]
# values refused only beside other settings, exit 3 from every source:
# (command, base argv, key, value)
REFUSED = [
    # the order-7 basis in 3-D has I = 120 >= 100 functions, with K >= I
    ("derivs", ["derivs", "--input", "cloud3d.csv", "--k", "130"], "m", "7"),
    # rates' spacing h needs a neighbor besides the point itself
    ("rates", ["rates", "--resolutions", "30,60,120", "--m", "0"], "k", "1"),
]
# keys no command has, misspelt or retired, which only a file can hold
UNKNOWN = [("landscape", "theta_stepz"), ("derivs", "ridge"), ("derivs", "chunk")]
GLOBALS = {"seed": int, "threads": int, "out_dir": str, "config": str, "from_manifest": str}
FILE_GLOBALS = {"seed", "threads", "out_dir"}  # the globals a file may set
TIME_LIMIT_S = 10.0


def _flag(key):
    return "--T" if key == "t_final" else "--" + key.replace("_", "-")


def _cases():
    """(id, case) of every case: (command, base argv, key, [(source, value text)],
    the exit code every source must give or None).

    A flag value is also a case from each file; the file-only values of a
    setting make one case, from each file.
    """
    def sources(command, key, values, flag=True):
        files = [v for v in values if (command, key, v) not in SKIP]
        flags = [("flag", v) for v in values] if flag else []
        return flags + [("config", v) for v in files] + [("manifest", v) for v in files]

    for key, kind in GLOBALS.items():
        files = key in FILE_GLOBALS
        for value in VALUES[kind]:
            runs = sources("landscape", key, [value]) if files else [("flag", value)]
            yield f"{_flag(key)}={value} landscape", ("landscape", BASE["landscape"], key, runs, None)
        if files:
            runs = sources("landscape", key, FILE_VALUES, flag=False)
            yield f"{key} = file values, landscape", ("landscape", BASE["landscape"], key, runs, None)
    for command, settings in DEFAULTS.items():
        for key, default in settings.items():
            for value in VALUES[str if default is None else type(default)]:
                yield (f"{command} {_flag(key)}={value}",
                       (command, BASE[command], key, sources(command, key, [value]), None))
            yield (f"{command} {key} = file values",
                   (command, BASE[command], key, sources(command, key, FILE_VALUES, flag=False), None))
    for command, flags, key in LISTS:
        base = [*BASE[command], *flags]
        for value in LIST_VALUES:
            case = " ".join([*flags[:2], f"--{key}={value}"])
            yield f"{command} {case}", (command, base, key, sources(command, key, [value]), None)
        case = " ".join([*flags[:2], f"{key} = file values"])
        runs = sources(command, key, FILE_VALUES, flag=False)
        yield f"{command} {case}", (command, base, key, runs, None)
    for command, base, key, value in REFUSED:
        yield f"{' '.join(base)} {_flag(key)}={value}", (command, base, key, sources(command, key, [value]), 3)
    for command, key in UNKNOWN:
        runs = sources(command, key, ["4"], flag=False)
        yield f"{command} {key} = 4, unknown", (command, BASE[command], key, runs, 3)


CASES = dict(_cases())


@functools.lru_cache
def _settings(command, base):
    """The settings the base argv gives, by key."""
    parsed = vars(build_parser().parse_args(base))
    return {k: v for k, v in parsed.items() if k in DEFAULTS[command] and v is not None}


def _argv(source, command, base, key, value):
    """The case as argv: its value as a flag, a config-file line or a manifest value."""
    global_key = key in GLOBALS
    out = [] if global_key else ["--out-dir", "out"]
    if source == "flag":
        case = f"{_flag(key)}={value}"
        return [case, *base] if global_key else [*out, *base, case]
    settings = _settings(command, tuple(base))
    if source == "config":
        lines = [f"{k} = {json.dumps(v)}\n" for k, v in settings.items()] + [f"{key} = {value}\n"]
        with open("case.cfg", "w") as fh:
            fh.writelines(lines)  # the case's line comes last, so it wins
        return ["--config", "case.cfg", *out, command]
    try:
        typed = json.loads(value)
    except json.JSONDecodeError:
        typed = value  # a config-file line reads the same way
    record = {"command": command, "config": {**settings, key: typed}, "seed": 0}
    if key == "seed":  # recorded beside the config
        record["seed"] = record["config"].pop("seed")
    with open("case.json", "w") as fh:
        json.dump(record, fh)
    return ["--from-manifest", "case.json", *out]


class _TimeLimit(BaseException):
    """Raised in the case by the alarm; main() catches no BaseException."""


def _alarm(signum, frame):
    raise _TimeLimit(f"no exit within {TIME_LIMIT_S} s")


def _run(argv):
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("case", CASES)
def test_every_setting_value_exits_with_a_documented_code(tmp_path, monkeypatch, capsys, case):
    command, base, key, runs, expected = CASES[case]
    monkeypatch.chdir(tmp_path)  # relative outputs, such as --out-dir=xyz, land here
    if command == "derivs":
        for name, shape in (("cloud.csv", (40, 2)), ("cloud3d.csv", (200, 3))):
            pts = np.random.default_rng(0).random(shape)
            save_cloud_csv(PointCloud(points=pts, values=pts[:, 0] * pts[:, 1]), tmp_path / name)
    codes = {}
    for source, value in runs:
        had_out = os.path.exists("out")
        code = _run(_argv(source, command, base, key, value))
        err = capsys.readouterr().err
        assert code in (0, 2, 3, 4), (source, value, code, err)
        assert err.count("\n") == (code != 0) and err.endswith("\n") == (code != 0), (source, value, err)
        assert err == "" or err.startswith("soblab: "), (source, value, err)
        assert code != 3 or os.path.exists("out") == had_out, (source, value, "a refused run left its out-dir")
        codes.setdefault(value, {})[source] = code
    # a value is typed the same from every source, so it exits the same
    assert all(len(set(by_source.values())) == 1 for by_source in codes.values()), codes
    assert expected is None or {c for by_source in codes.values() for c in by_source.values()} == {expected}


# each command with a setting it cannot run without, and some other setting
MISSING = {
    "derivs": ("derivs", {"k": 12}, "--input is required (a point-cloud CSV)"),
    "rates": ("rates", {"k": 10}, "--resolutions is required (comma-separated point counts)"),
    "sweep": ("sweep", {"param": "noise"}, "--values is required"),
    "sweep-param": ("sweep", {"values": "1,2"}, "--param is required (K, m or noise)"),
}


@pytest.mark.parametrize("source", ["flags", "config"])
@pytest.mark.parametrize("case", sorted(MISSING))
def test_a_missing_required_setting_exits_3_naming_its_flag(tmp_path, capsys, case, source):
    command, settings, message = MISSING[case]
    out = tmp_path / "out"
    if source == "flags":
        argv = [command, *(f"--{key}={value}" for key, value in settings.items())]
    else:
        lines = [f"{key} = {json.dumps(value)}\n" for key, value in settings.items()]
        (tmp_path / "c.cfg").write_text("".join(lines))
        argv = ["--config", str(tmp_path / "c.cfg"), command]
    assert main(["--out-dir", str(out), *argv]) == 3
    assert capsys.readouterr().err == f"soblab: configuration error: {message}\n"
    assert not out.exists()  # refused before the out-dir is made


@pytest.mark.parametrize("change", ["changed", "deleted"])
def test_a_replay_whose_input_changed_exits_2(tmp_path, capsys, change):
    cloud = tmp_path / "cloud.csv"
    pts = np.random.default_rng(0).random((40, 2))
    save_cloud_csv(PointCloud(points=pts, values=pts[:, 0] * pts[:, 1]), cloud)
    assert main(["--out-dir", str(tmp_path / "run"), "derivs", "--input", str(cloud)]) == 0
    if change == "changed":
        save_cloud_csv(PointCloud(points=pts, values=pts[:, 0] + pts[:, 1]), cloud)
    else:
        cloud.unlink()
    capsys.readouterr()
    replay = tmp_path / "replay"
    assert main(["--out-dir", str(replay), "--from-manifest", str(tmp_path / "run" / "manifest.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"soblab: input error: {cloud}: not the input the manifest recorded")
    assert err.count("\n") == 1 and err.endswith(" now)\n"), err
    assert ("missing now" in err) == (change == "deleted")
    assert not replay.exists()  # refused before the out-dir is made


@pytest.mark.parametrize("digests", [["cloud.csv"], {"cloud.csv": 5}])
def test_a_manifest_with_malformed_input_digests_exits_3(tmp_path, capsys, digests):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"command": "landscape", "config": {}, "seed": 0,
                                "input_digests": digests}))
    assert main(["--out-dir", str(tmp_path / "out"), "--from-manifest", str(path)]) == 3
    assert capsys.readouterr().err == (f"soblab: configuration error: {path}: input_digests "
                                       "must map each input file to its sha256\n")
    assert not (tmp_path / "out").exists()

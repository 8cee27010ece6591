"""The exit-code contract, generated from the settings table.

Every non-bool setting of every command, and the global flags, get each
adversarial value of their type: the command runs in-process at small
sizes, with warnings as errors and a time limit, and must exit 0, 2, 3 or
4 with no traceback, printing one stderr line exactly when it fails.
"""

import json
import signal
import warnings

import numpy as np
import pytest

from soblab.cli.main import DEFAULTS, main
from soblab.geometry import PointCloud, save_cloud_csv

VALUES = {
    float: ["nan", "inf", "-inf", "0", "-1", "1e-320", "1e300"],
    int: ["0", "-1", "1", "2"],
    str: ["", "xyz", ","],
}
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
GLOBALS = {"seed": int, "threads": int, "out_dir": str, "config": str, "from_manifest": str}
TIME_LIMIT_S = 10.0


def _cases():
    """(id, argv) of every case."""
    for key, kind in GLOBALS.items():
        for value in VALUES[kind]:
            flag = f"--{key.replace('_', '-')}={value}"
            yield f"{flag} landscape", [flag, *BASE["landscape"]]
    for command, settings in DEFAULTS.items():
        for key, default in settings.items():
            if isinstance(default, bool):
                continue
            flag = "--T" if key == "t_final" else "--" + key.replace("_", "-")
            for value in VALUES[str if default is None else type(default)]:
                case = f"{flag}={value}"
                yield f"{command} {case}", ["--out-dir", "out", *BASE[command], case]
    for command, flags, key in LISTS:
        for value in LIST_VALUES:
            case = " ".join([*flags[:2], f"--{key}={value}"])
            yield f"{command} {case}", ["--out-dir", "out", *BASE[command], *flags, f"--{key}={value}"]


CASES = dict(_cases())


class _TimeLimit(BaseException):
    """Raised in the case by the alarm; main() catches no BaseException."""


def _alarm(signum, frame):
    raise _TimeLimit(f"no exit within {TIME_LIMIT_S} s")


@pytest.mark.parametrize("case", CASES)
def test_every_setting_value_exits_with_a_documented_code(tmp_path, monkeypatch, capsys, case):
    monkeypatch.chdir(tmp_path)  # relative outputs, such as --out-dir=xyz, land here
    pts = np.random.default_rng(0).random((40, 2))
    save_cloud_csv(PointCloud(points=pts, values=pts[:, 0] * pts[:, 1]), tmp_path / "cloud.csv")
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(CASES[case])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    err = capsys.readouterr().err
    assert code in (0, 2, 3, 4), (code, err)
    assert err.count("\n") == (code != 0) and err.endswith("\n") == (code != 0), err
    assert err == "" or err.startswith("soblab: "), err


# each command with a setting it cannot run without, and some other setting
MISSING = {
    "derivs": ({"k": 12}, "--input is required (a point-cloud CSV)"),
    "rates": ({"k": 10}, "--resolutions is required (comma-separated point counts)"),
    "sweep": ({"param": "noise"}, "--values is required"),
}


@pytest.mark.parametrize("source", ["flags", "config"])
@pytest.mark.parametrize("command", sorted(MISSING))
def test_a_missing_required_setting_exits_3_naming_its_flag(tmp_path, capsys, command, source):
    settings, message = MISSING[command]
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

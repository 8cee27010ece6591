"""Cold start: importing the CLI and running the commands that build no
KD-tree load no scipy, nor do derivs and train refusing a basis or derivs
a K above the point count; derivs loads it when it builds its index."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from helpers import save_cloud_csv

import soblab
from soblab.geometry import PointCloud

SRC = Path(soblab.__file__).resolve().parents[1]

# runs in a fresh interpreter: argv[1] is the JSON list of (name, CLI argv)
# steps, argv[2] the file that receives {name: [exit code, scipy loaded]}
SCRIPT = """
import json, sys
import soblab.cli.main as cli
seen = {"import": [0, "scipy" in sys.modules]}
for name, argv in json.loads(sys.argv[1]):
    seen[name] = [cli.main(argv), "scipy" in sys.modules]
with open(sys.argv[2], "w") as fh:
    json.dump(seen, fh)
"""


def test_only_commands_that_build_an_index_load_scipy(tmp_path):
    rng = np.random.default_rng(0)
    points = rng.random((60, 2))
    cloud_csv = tmp_path / "cloud.csv"
    save_cloud_csv(PointCloud(points, points[:, 0] + 2.0 * points[:, 1]), cloud_csv)
    steps = [
        (name, ["--out-dir", str(tmp_path / name), *argv])
        for name, argv in (
            ("flow", ["flow"]),
            ("landscape", ["landscape"]),
            # the order-14 basis in 2-D has I = 120 functions: refused before any index is built
            ("derivs-basis", ["derivs", "--input", str(cloud_csv), "--m", "14"]),
            ("train-basis", ["train", "--task", "smoothing2d", "--m", "14", "--epochs", "1"]),
            ("derivs-k", ["derivs", "--input", str(cloud_csv), "--k", "61"]),
            ("derivs", ["derivs", "--input", str(cloud_csv), "--k", "8", "--m", "1"]),
        )
    ]
    result = tmp_path / "seen.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(steps), str(result)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(result.read_text())
    assert seen == {
        "import": [0, False],
        "flow": [0, False],
        "landscape": [0, False],
        "derivs-basis": [3, False],
        "train-basis": [3, False],
        "derivs-k": [3, False],
        "derivs": [0, True],
    }
    refusal = ("soblab: configuration error: --m 14 is too high in 2-D: its basis has I=120 "
               "functions, but the ridge bounds the condition number by 1e+12 only up to I=99")
    assert proc.stderr.splitlines() == [refusal, refusal,
                                        "soblab: configuration error: K=61 outside [1, 60]"]

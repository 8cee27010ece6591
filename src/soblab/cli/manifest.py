"""Run manifests: resolved config, seed, input digests, reproducibility.

Every command writes manifest.json next to its outputs.  Re-running a
command from its manifest replays the identical resolved configuration,
so all outputs (the manifest's wall-clock duration aside) are byte
identical.
"""

from __future__ import annotations

import hashlib
import json
import os

from .io import atomic_write_text

MANIFEST_NAME = "manifest.json"


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(out_dir, command, config, seed, version, input_files=(), duration_s=0.0):
    record = {
        "command": command,
        "config": config,
        "seed": seed,
        "version": version,
        "input_digests": {os.fspath(p): file_digest(p) for p in input_files},
        "duration_s": duration_s,
    }
    atomic_write_text(os.path.join(os.fspath(out_dir), MANIFEST_NAME),
                      json.dumps(record, indent=2, sort_keys=True) + "\n")


def load_manifest(path) -> dict:
    with open(path) as fh:
        return json.load(fh)

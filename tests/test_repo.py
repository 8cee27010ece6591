"""Repository hygiene: no tracked file is one that .gitignore excludes, and
every name the demos import from soblab exists."""

import ast
import importlib
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_no_tracked_file_is_ignored():
    if shutil.which("git") is None or not (ROOT / ".git").exists():
        pytest.skip("needs git and a git checkout of the repository")
    proc = subprocess.run(
        ["git", "ls-files", "-ci", "--exclude-standard"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    if proc.returncode != 0:
        pytest.skip(f"git cannot read the checkout: {proc.stderr.strip()}")
    assert proc.stdout.splitlines() == []


def _soblab_imports(path):
    """(line, module, name) of each `from soblab... import name` in path;
    name is None for a plain `import soblab...`."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "soblab":
            for alias in node.names:
                yield node.lineno, node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "soblab":
                    yield node.lineno, alias.name, None


def test_demo_imports_resolve():
    # parses the demos without running them, so an API removal that would
    # break one fails here
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert demos
    missing = []
    for path in demos:
        for line, module, name in _soblab_imports(path):
            try:
                owner = importlib.import_module(module)
            except ImportError:
                missing.append(f"{path.name}:{line}: module {module}")
                continue
            if name is not None and name != "*" and not hasattr(owner, name):
                try:
                    importlib.import_module(f"{module}.{name}")
                except ImportError:
                    missing.append(f"{path.name}:{line}: {module}.{name}")
    assert missing == []

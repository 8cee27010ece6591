"""Repository hygiene: no tracked file is one that .gitignore excludes, and
every name the demos and the README's Python examples import from soblab
exists."""

import ast
import importlib
import re
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


def _soblab_imports(source, filename):
    """(line, module, name) of each `from soblab... import name` in the
    source; name is None for a plain `import soblab...`."""
    for node in ast.walk(ast.parse(source, filename=filename)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "soblab":
            for alias in node.names:
                yield node.lineno, node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "soblab":
                    yield node.lineno, alias.name, None


def _sources():
    """(name, source) of every demo and of each README Python block."""
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert demos
    for path in demos:
        yield path.name, path.read_text()
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.M | re.S)
    assert blocks
    for i, block in enumerate(blocks):
        yield f"README.md python block {i + 1}", block


def test_demo_imports_resolve():
    # parses the demos and the README examples without running them, so an
    # API removal that would break one fails here
    missing = []
    for filename, source in _sources():
        for line, module, name in _soblab_imports(source, filename):
            try:
                owner = importlib.import_module(module)
            except ImportError:
                missing.append(f"{filename}:{line}: module {module}")
                continue
            if name is not None and name != "*" and not hasattr(owner, name):
                try:
                    importlib.import_module(f"{module}.{name}")
                except ImportError:
                    missing.append(f"{filename}:{line}: {module}.{name}")
    assert missing == []

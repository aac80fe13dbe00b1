"""The project metadata declares the package and its one runtime dependency."""

from __future__ import annotations

import re
import subprocess
import sys
import tomllib
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_pyproject_declares_name_and_numpy():
    project = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text())["project"]
    assert project["name"] == "repro"
    names = [re.split(r"[\s<>=!~;\[]", dep)[0] for dep in project["dependencies"]]
    assert "numpy" in names


def test_setup_shim_reads_the_metadata():
    """``setup.py`` defers to ``pyproject.toml`` (offline installs use it)."""
    result = subprocess.run(
        [sys.executable, "setup.py", "--name"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip().splitlines()[-1] == "repro"

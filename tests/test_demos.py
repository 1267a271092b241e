"""The narrative demos run to completion against the current API."""

import os
import re
import subprocess
import sys

import pytest

from .conftest import REPO_ROOT

DEMOS = [
    "01_graph_and_normalization.py",
    "02_surrogate_margins_weights.py",
    "03_gradient_vs_finite_differences.py",
    "04_margin_gradient_scatter.py",
    "05_poison_and_evaluate.py",
    "06_pseudo_label_regimes.py",
]


def _run(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(REPO_ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    proc = _run([os.path.join(REPO_ROOT, "demos", demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_runs(tmp_path):
    with open(os.path.join(REPO_ROOT, "README.md")) as fh:
        section = fh.read().split("\n## Quick start\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block, "README has no python block under '## Quick start'"
    proc = _run(["-c", block.group(1)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "+-" in proc.stdout

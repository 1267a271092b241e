"""The narrative demos run to completion against the current API."""

import os
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


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(REPO_ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, os.path.join(REPO_ROOT, "demos", demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr

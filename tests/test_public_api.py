"""Every public name has a reader outside the tests.

Code used only by tests becomes a test oracle in ``tests/oracles.py`` or is
deleted, so each name in ``graphpoison.__all__`` must be referenced, as a
name or an attribute, by a library module other than ``__init__.py`` or by
a demo. A definition or an import is not a reference. Importing the library
loads no heavy scipy subpackage.
"""

import ast
import glob
import os
import subprocess
import sys

import graphpoison

from .conftest import REPO_ROOT


def _referenced_names(paths) -> set:
    names = set()
    for path in paths:
        with open(path) as fh:
            for node in ast.walk(ast.parse(fh.read(), filename=path)):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    return names


def test_every_public_name_has_a_reader_in_the_library_or_a_demo():
    library = glob.glob(os.path.join(REPO_ROOT, "src", "graphpoison", "*.py"))
    demos = glob.glob(os.path.join(REPO_ROOT, "demos", "*.py"))
    paths = [p for p in library if os.path.basename(p) != "__init__.py"] + demos
    assert len(paths) > len(demos) > 0
    unread = sorted(set(graphpoison.__all__) - _referenced_names(paths))
    assert not unread, f"public names read only by tests (move to tests/oracles.py or delete): {unread}"


HEAVY_SCIPY = ("scipy.linalg", "scipy.optimize", "scipy.special", "scipy.stats", "scipy.sparse.csgraph")


def test_importing_graphpoison_loads_no_heavy_scipy_module(tmp_path):
    """A fresh ``import graphpoison`` loads none of HEAVY_SCIPY: each adds tens to
    hundreds of milliseconds to every process that imports the library."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (os.path.join(REPO_ROOT, "src"), env.get("PYTHONPATH")) if p)
    code = f"import sys, graphpoison; print(sorted(m for m in {HEAVY_SCIPY!r} if m in sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]", f"import graphpoison loads {proc.stdout.strip()}"

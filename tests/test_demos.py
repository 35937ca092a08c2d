"""The demos run against the current package.

Each quick demo runs in its own interpreter inside a temporary directory.
The training demo takes minutes, so it is only compiled, and every
``tsforge`` name it imports or reads off an imported module must exist.
"""

import ast
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"
QUICK = ["01_autodiff_basics.py", "02_networks_and_penalty.py", "03_data_pipeline.py",
         "04_stylized_facts.py", "06_compare_and_cli.py"]
SLOW = "05_train_small_gan.py"


def test_every_demo_is_covered():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(QUICK + [SLOW])


@pytest.mark.parametrize("name", QUICK)
def test_quick_demo_runs(name, tmp_path):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path, TMPDIR=str(tmp_path))
    done = subprocess.run([sys.executable, str(DEMOS / name)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_training_demo_names_resolve():
    tree = ast.parse((DEMOS / SLOW).read_text(encoding="utf-8"), SLOW)
    compile(tree, SLOW, "exec")
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "tsforge":
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
                bound[alias.asname or alias.name] = getattr(module, alias.name)
    assert bound
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and isinstance(bound.get(node.value.id), types.ModuleType)):
            assert hasattr(bound[node.value.id], node.attr), f"{node.value.id}.{node.attr}"

"""The demos run against the current package.

Each demo runs in its own interpreter inside a temporary directory. The
training demo trains for minutes, so it runs through a short runner that
cuts its configuration to 4 epochs with a checkpoint every 2; every
``tsforge`` name it imports or reads off an imported module must exist.
"""

import ast
import contextlib
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

SHORT_TRAINING = """\
import dataclasses, runpy, sys
from tsforge import gan
train = gan.train
gan.train = lambda cfg, *a, **kw: train(
    dataclasses.replace(cfg, epochs=4, checkpoint_every=2), *a, **kw)
runpy.run_path(sys.argv[1], run_name="__main__")
"""


def run_demo(argv: list[str], tmp_path) -> subprocess.CompletedProcess:
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path, TMPDIR=str(tmp_path))
    return subprocess.run([sys.executable, *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)


def test_every_demo_is_covered():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(QUICK + [SLOW])


@pytest.mark.parametrize("name", QUICK)
def test_quick_demo_runs(name, tmp_path):
    done = run_demo([str(DEMOS / name)], tmp_path)
    assert done.returncode == 0, done.stderr


def test_training_demo_runs(tmp_path):
    done = run_demo(["-c", SHORT_TRAINING, str(DEMOS / SLOW)], tmp_path)
    assert done.returncode == 0, done.stderr
    assert "checkpoints: [2, 4]" in done.stdout
    scores = done.stdout.split("mode-collapse scores:")[1].splitlines()[0]
    assert "np." not in scores, scores     # plain floats, not numpy scalar reprs


def test_training_demo_names_resolve():
    tree = ast.parse((DEMOS / SLOW).read_text(encoding="utf-8"), SLOW)
    compile(tree, SLOW, "exec")
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "tsforge":
            module = importlib.import_module(node.module)
            for alias in node.names:
                if not hasattr(module, alias.name):     # a submodule, which the
                    with contextlib.suppress(ModuleNotFoundError):    # statement imports
                        importlib.import_module(f"{node.module}.{alias.name}")
                assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
                bound[alias.asname or alias.name] = getattr(module, alias.name)
    assert bound
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and isinstance(bound.get(node.value.id), types.ModuleType)):
            assert hasattr(bound[node.value.id], node.attr), f"{node.value.id}.{node.attr}"

"""The package namespace holds ``__version__`` and the submodules, nothing else."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import oracles
import pytest

import ontorag

SUBMODULES = (
    "_kernels",
    "align",
    "cli",
    "engine",
    "errors",
    "evaluate",
    "fixtures",
    "infiltrate",
    "model",
    "parse",
    "ragstore",
    "subsume",
)


@pytest.mark.parametrize("name", SUBMODULES)
def test_attribute_is_the_submodule(name):
    # No function of the same name shadows a submodule, e.g. `ontorag.align`.
    assert importlib.import_module(f"ontorag.{name}") is getattr(ontorag, name)


def test_namespace_is_only_submodules():
    for name in SUBMODULES:
        importlib.import_module(f"ontorag.{name}")
    names = {n for n in vars(ontorag) if not n.startswith("__")}
    assert names == set(SUBMODULES)
    assert isinstance(ontorag.__version__, str)


def test_numpy_free_modules_do_not_load_numpy(child_pythonpath):
    # Exporting the fixtures or parsing an ontology needs no array code.
    probe = "import sys, ontorag.fixtures, ontorag.parse, ontorag.model, ontorag.errors; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, encoding="utf-8")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_oracles_import_no_ontorag(child_pythonpath):
    # The tests' references stay independent of the code they check.
    perfbench = str(Path(oracles.__file__).parent)
    env = dict(os.environ, PYTHONPATH=perfbench + os.pathsep + os.environ["PYTHONPATH"])
    probe = "import sys, oracles, gen; print(sorted(m for m in sys.modules if m.partition('.')[0] == 'ontorag'))"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, encoding="utf-8", env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"

"""The scripts under ``scripts/`` import only public pdeseries names.

Each script is loaded as a module (its ``main`` is not run), so a public
name that disappears from the package fails here instead of only when
somebody runs the script.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("name", ["run_worked_examples", "quadrature_accuracy"])
def test_script_imports(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)

"""The package's public names load their submodules on first use."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import prodcoef


def test_every_export_resolves_to_its_submodules_object():
    # A misspelt entry fails only on first access, so every one is read here.
    assert prodcoef.__all__ == list(prodcoef._EXPORTS)
    for name, module in prodcoef._EXPORTS.items():
        source = importlib.import_module(f"prodcoef.{module}")
        assert getattr(prodcoef, name) is getattr(source, name), name
    assert set(prodcoef.__all__) <= set(dir(prodcoef))
    assert "__version__" in dir(prodcoef)
    with pytest.raises(AttributeError, match="no_such_name"):
        prodcoef.no_such_name  # noqa: B018


def test_import_loads_no_submodule_and_no_numpy():
    code = "import json, sys, prodcoef; print(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(Path(prodcoef.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=60)
    loaded = json.loads(done.stdout)
    assert "prodcoef" in loaded
    assert [m for m in loaded if m.startswith("prodcoef.")
            or m.split(".")[0] == "numpy"] == []

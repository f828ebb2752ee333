"""Tests for the package namespace."""

import os
import subprocess
import sys

import systolab


def test_every_exported_name_resolves():
    missing = [name for name in systolab.__all__ if not hasattr(systolab, name)]
    assert missing == []
    assert len(set(systolab.__all__)) == len(systolab.__all__)


def test_import_does_not_load_scipy_special():
    # the Funk eigenvalues come from a recurrence, so importing the package
    # does not pay for scipy.special
    code = "import sys, systolab; print(any(m.startswith('scipy.special') for m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": os.path.dirname(systolab.__path__[0])})
    assert out.stdout.strip() == "False"

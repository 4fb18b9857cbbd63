"""Dropped dependencies must stay dropped.

``networkx`` used to be imported by every ``import repro`` (through the
grid package) although no table, figure or CLI path needed it.  Each
module below is imported in a fresh interpreter, so modules other tests
already loaded cannot mask the import.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("module", [
    "repro.hybrid.selector", "repro.model.ensemble", "repro.stream"])
def test_module_does_not_import_networkx(module):
    code = f"import sys, {module}; print('networkx' in sys.modules)"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"

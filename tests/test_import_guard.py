"""Dropped dependencies must stay dropped.

``networkx`` used to be imported by every ``import repro`` (through the
grid package) although no table, figure or CLI path needed it.
``scipy.stats`` used to load for one Student-t quantile in the bias
test, and the linter (``repro.check.engine``/``rules``) used to load
with the sanitizer hooks every codec and PVT module imports.
``scipy.interpolate`` (ISABELA's B-spline basis) and ``scipy.ndimage``
(SSIM's window filter) used to load with the codec registry and the
metrics package although only those two routines use them; they are now
imported on first use.  Each module below is imported in a fresh
interpreter, so modules other tests already loaded cannot mask the
import.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

PIPELINE_MODULES = ["repro.hybrid.selector", "repro.model.ensemble",
                    "repro.stream"]


def _loaded(module: str, candidates: list[str]) -> list[str]:
    """The ``candidates`` importing ``module`` loads, fresh interpreter."""
    code = (f"import sys, {module}; "
            f"print(*[m for m in {candidates!r} if m in sys.modules])")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.split()


@pytest.mark.parametrize("module", PIPELINE_MODULES)
def test_module_does_not_import_networkx(module):
    assert _loaded(module, ["networkx"]) == []


@pytest.mark.parametrize("module", PIPELINE_MODULES)
def test_module_loads_no_linter_and_no_scipy_stats(module):
    assert _loaded(module, ["scipy.stats", "repro.check.engine",
                            "repro.check.rules"]) == []


@pytest.mark.parametrize("module", ["repro.stream",
                                    "repro.compressors.registry",
                                    "repro.model.ensemble"])
def test_module_loads_no_scipy_interpolate_or_ndimage(module):
    assert _loaded(module, ["scipy.interpolate", "scipy.ndimage"]) == []

"""``repro.metrics`` is the numpy-only bottom layer.

The metric folds live there so that batch metrics, the PVT tests and the
streaming pipeline share one implementation; importing the metrics must
therefore not drag in the layers built on top of them.  The stream layer
sits beside the PVT, not on it: the RMSZ fold lives in ``repro.pvt``, and
importing ``repro.stream`` must load neither the PVT nor the model.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"
UPPER_LAYERS = ("repro.stream", "repro.parallel", "repro.compressors")


def loaded_modules(package: str) -> list[str]:
    """The ``repro`` modules a fresh interpreter loads to import
    ``package``."""
    probe = (
        f"import sys, {package}; "
        "print('\\n'.join(sorted(m for m in sys.modules "
        "if m.startswith('repro.'))))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def in_layers(loaded: list[str], layers) -> list[str]:
    return [m for m in loaded
            if any(m == p or m.startswith(p + ".") for p in layers)]


def test_importing_metrics_loads_no_upper_layer():
    loaded = loaded_modules("repro.metrics")
    assert "repro.metrics.streaming" in loaded
    upper = in_layers(loaded, UPPER_LAYERS)
    assert upper == [], f"repro.metrics imports upper layers: {upper}"


def test_importing_stream_loads_no_pvt_or_model():
    loaded = loaded_modules("repro.stream")
    assert "repro.stream.pipeline" in loaded
    upper = in_layers(loaded, ("repro.pvt", "repro.model"))
    assert upper == [], f"repro.stream imports the PVT or model: {upper}"

"""``repro.metrics`` is the numpy-only bottom layer.

The metric folds live there so that batch metrics, the PVT tests and the
streaming pipeline share one implementation; importing the metrics must
therefore not drag in the layers built on top of them.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"
UPPER_LAYERS = ("repro.stream", "repro.parallel", "repro.compressors")


def test_importing_metrics_loads_no_upper_layer():
    probe = (
        "import sys, repro.metrics; "
        "print('\\n'.join(sorted(m for m in sys.modules "
        "if m.startswith('repro.'))))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "repro.metrics.streaming" in loaded
    upper = [m for m in loaded
             if any(m == p or m.startswith(p + ".") for p in UPPER_LAYERS)]
    assert upper == [], f"repro.metrics imports upper layers: {upper}"

"""Every ``examples/`` script runs end-to-end (on an env-shrunk grid).

The examples accept the ``REPRO_*`` environment knobs via
:func:`repro.config.example_scale`, so each one is executed in a
subprocess at a tiny scale to keep this module fast while still driving
the real pipeline code the docs point newcomers at.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((REPO / "examples").glob("*.py"))

#: Tiny-grid knobs; port_verification keeps its 41 members because its
#: global-mean acceptance range is too tight with fewer runs.
TINY = {
    "REPRO_NE": "3",
    "REPRO_NLEV": "4",
    "REPRO_MEMBERS": "21",
    "REPRO_2D": "4",
    "REPRO_3D": "4",
    "REPRO_WORKERS": "1",
}
MEMBERS = {"port_verification.py": "41"}


def test_examples_are_discovered():
    assert [p.name for p in EXAMPLES] == [
        "ensemble_verification.py",
        "hybrid_compression.py",
        "port_verification.py",
        "quickstart.py",
    ]


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs_clean(script, tmp_path):
    env = dict(os.environ, **TINY)
    env["REPRO_MEMBERS"] = MEMBERS.get(script.name, TINY["REPRO_MEMBERS"])
    env["PYTHONPATH"] = str(REPO / "src")
    # Examples must not depend on an ambient cache or trace config.
    for var in ("REPRO_STORE", "REPRO_TRACE", "REPRO_TRACE_JSONL",
                "REPRO_TRACE_CHROME"):
        env.pop(var, None)
    proc = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, (
        f"{script.name} failed\n--- stdout ---\n{proc.stdout}"
        f"\n--- stderr ---\n{proc.stderr}"
    )
    assert proc.stdout.strip(), f"{script.name} printed nothing"

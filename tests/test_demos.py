"""Each demo runs in a fresh interpreter, exits 0 and prints exactly the
output it printed when its sha256 below was recorded."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gridforge

SRC = str(Path(gridforge.__file__).resolve().parents[1])
DEMOS = Path(__file__).resolve().parents[1] / "demos"

STDOUT_SHA256 = {
    "01_modular_grids.py":
        "7c72a5e19bc48574383ad33dd4929c9943fec2ba9597d414f25264a25bbf6450",
    "02_trace_operators.py":
        "dbe0e8883c63f394b285d5f430c397f6dcaa9f4e475df1435c2ee43410347d2a",
    "03_duality_classification.py":
        "d3f66801e47f8aca61f29d5de614a82335f85a7b41eae55ba3ff202f9b84afc9",
    "04_seed_synthesis.py":
        "23e19a6440a57d9f00b68db21ba46156966a67c31962dd8f0818257bb599bd35",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_demo_output_is_unchanged(name):
    proc = subprocess.run([sys.executable, str(DEMOS / name)],
                          capture_output=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[name]

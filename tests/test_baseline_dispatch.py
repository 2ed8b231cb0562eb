"""The golden digests of tests/test_golden.py, and the CSV writers' byte identity with ``%.17g``, checked again
with numpy's AVX-512 kernels switched off.

A CPU without AVX-512, or a numpy build without those kernels, runs other
loops, and a digest that depends on which loop ran passes on one CPU only.
The CSV writers take each cell's decimal exponent from ``log10``, whose
kernels round differently, and correct it where it is one off.
``NPY_DISABLE_CPU_FEATURES`` is set for a child pytest run alone.  This check
has a file of its own so that the child's run does not start it again.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
DISABLED = "X86_V4 AVX512_ICL AVX512_SPR"


def test_golden_bytes_under_baseline_dispatch():
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=DISABLED)
    # numpy refuses, at import, to disable a feature that is part of its baseline build
    probe = subprocess.run([sys.executable, "-c", "import numpy"], env=env, capture_output=True, text=True, timeout=120)
    if probe.returncode != 0:
        message = " ".join(probe.stderr.rpartition("Error: ")[2].split())
        pytest.skip(f"numpy refuses NPY_DISABLE_CPU_FEATURES={DISABLED!r}: {message}")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(REPO / "tests" / "test_golden.py"),
         str(REPO / "tests" / "test_io.py") + "::TestSameBytesAsPercentFill"],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]

"""Every CLI request runs on numpy alone: scipy is imported only by library routines that no request calls.

Each case runs one request through ``cli.main`` in a fresh ``-E -s``
interpreter, so nothing the test process has imported leaks into the check.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from curverecon import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[2:])
print(json.dumps({"exit": code, "scipy": sorted(m for m in sys.modules if m.startswith("scipy"))}))
"""

NUMPY_ONLY = {
    "reconstruct euclid": ["reconstruct", "euclid", "--curvature", "sinusoid:1,1,1/3", "--domain", "0:6.3",
                           "--out", "c.csv", "--svg", "c.svg"],
    "reconstruct affine": ["reconstruct", "affine", "--curvature", "mun:2/5", "--domain", "0:2"],
    "reconstruct series": ["reconstruct", "series", "--curvature", "monomial:1,1", "--domain", "0:3"],
    "compare euclid": ["compare", "euclid", "kn:10", "kn:51/5", "--domain", "0:6.3"],
    "compare affine": ["compare", "affine", "const:1", "const:1.1", "--domain", "0:3"],
    "classify exact hook": ["classify", "--curvature", "kn:5/3", "--period", "6.283185307179586"],
    "classify quadrature fallback": ["classify", "--curvature", "monomial:1,1", "--period", "6.283185307179586"],
}


def run_fresh(argv, cwd):
    proc = subprocess.run([sys.executable, "-E", "-s", "-c", CHILD, str(SRC), *argv],
                          cwd=cwd, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", NUMPY_ONLY)
def test_request_loads_no_scipy(name, tmp_path):
    child = run_fresh(NUMPY_ONLY[name], tmp_path)
    assert child["exit"] == 0
    assert child["scipy"] == []

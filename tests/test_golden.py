"""Pinned SHA-256 digests of the gallery SVGs and of CLI SVG/CSV output.

c10 checks that two runs of the same code agree; this checks that the bytes
do not change from one version of the code to the next.  A digest that moves
means a figure or an output file changed: regenerate it on purpose, look at
the difference, and update the digest in the same change (``gallery_digests``
and ``cli_digests`` return the current ones).
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

from curverecon import cli

REPO = Path(__file__).resolve().parents[1]

GALLERY = {
    "bump_family_closed.svg": "750775e65e252e3bf9288a4c8e7e08b0b9c1635342314da8e6bd38e7338a0905",
    "bump_family_one_period.svg": "8a359de44f2dd01ce7770b10e42818303c482ab2be598c7920c0a9088768e3f4",
    "constant_affine_curvature.svg": "e3b8154a03a82a32d520a074b03c6c68e79b1d767a9f4aff698705ef341878a0",
    "monomial_series_k1.svg": "6ee583936a57972e077f38ba43b03cd5e10bcfa06be6b0f0bfeef1837f9c4ddb",
    "monomial_series_k2.svg": "0a0545c7a5eecc28e1f1857b1b41e4a160f8b59c066f3776fe10a7746a3922d5",
    "picard_loop.svg": "95b5967e872192594d8953cef99ee647f010b38f0c72713797cc48053904241a",
    "threefold_closed.svg": "d658774d466c52f5e1339a2847cd79683a68b1d86af268c6ed0a75b6de16dd2b",
    "threefold_open.svg": "b72032e02d490de564b36c3f8ace9014bad97974e34a872fb64b7935f6ceb8d0",
}

CLI_OUTPUTS = [
    (("reconstruct", "affine", "--curvature", "mun:2/5", "--domain", "0:22", "--iterations", "200"),
     "--svg", "95b5967e872192594d8953cef99ee647f010b38f0c72713797cc48053904241a"),
    (("reconstruct", "series", "--curvature", "monomial:1,1", "--domain", "0:3"),
     "--svg", "787dfc5faaa78a4bc76a4e4e5b7657372a4ed9777f17a3ea05642677f1f7b10c"),
    (("reconstruct", "affine", "--curvature", "const:2", "--domain", "0:4"),
     "--out", "7468f057796a17a377ad853f129f805cb175424a61774046571601f65fa283fc"),
]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def gallery_digests(outdir: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    subprocess.run(
        [sys.executable, str(REPO / "demos" / "figures.py"), "--outdir", str(outdir)],
        check=True, env=env, capture_output=True,
    )
    return {p.name: _sha256(p) for p in sorted(outdir.glob("*.svg"))}


def cli_digests(outdir: Path) -> list:
    digests = []
    for i, (args, flag, _) in enumerate(CLI_OUTPUTS):
        path = outdir / f"out{i}"
        assert cli.main([*args, flag, str(path)]) == 0
        digests.append(_sha256(path))
    return digests


def test_gallery_svgs_are_golden(tmp_path):
    assert gallery_digests(tmp_path) == GALLERY


def test_cli_outputs_are_golden(tmp_path):
    assert cli_digests(tmp_path) == [digest for _, _, digest in CLI_OUTPUTS]

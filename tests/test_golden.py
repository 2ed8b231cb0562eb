"""Pinned SHA-256 digests of the gallery SVGs, of CLI SVG/CSV output, of the demos' stdout and of the benchmark's traffic.

c10 checks that two runs of the same code agree; this checks that the bytes
do not change from one version of the code to the next.  A digest that moves
means a figure or an output file changed: regenerate it on purpose, look at
the difference, and update the digest in the same change (``gallery_digests``,
``cli_digests``, ``demo_digests`` and ``traffic_digests`` return the current ones).
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import random
import runpy
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
     "--out", "f690d29ac50520a5a6ab5a62612a8bcc81542a35506ef7591c2a15163f8f0c7a"),
]

DEMOS = {
    "01_euclidean_reconstruction.py": "296dac5d8f49b4cc66ae66e43798877283a6ac6644b2e8c165de58d8d9e22c93",
    "02_closedness.py": "afb3b12ac3cdcad47617fcf116df86ec3c9e8cabf7760579e996af822c962319",
    "03_distance_bounds.py": "664f2bb23d5ba7a56cd96856360ad6a9f2fac92de04fbbd5eab1809bf317cccb",
    "04_affine_reconstruction.py": "7070a3a1ceb18bee9113a68b073cf81751665b718b921fe5e7f366b2d878064a",
    "05_monomial_series.py": "cd96fbca06076448f62025622d4c1fb816da025ec78785491bb333148deeecdb",
}

# every request class of perfbench/workloads.py at seed TRAFFIC_SEED: exit code, stdout, stderr and output files
TRAFFIC_SEED = 1
TRAFFIC = {
    "affine-recon/mun25_L10": "ef89eca03cda20efefc6d62b4ad71a7aaea0d52a8d50cfc5cf6e91d94a0efd95",
    "affine-recon/mun25_L2": "037f3a2d96fc2a5878560c913d9414f43a4bf217aa74d52ae03903105036f523",
    "affine-recon/mun35_L4": "de49ea07d04d4c98ce32695d72a791f62e6f6990ae6e0332340234aa94c1f068",
    "affine-recon/readme_L22": "cc50245173325a3771b29cc23a90d013dd1d4f434daf5a615b772553c11d8eff",
    "affine-recon/const3": "24c2c08a782db2cb2c2ef60f6da3fed3ba26a6230c6e7964c22e287d10752cd1",
    "affine-recon/const0": "59eec474cd687870e5ef2d9dab35b93a910fafbb9e810e50fe9584a6de32ce02",
    "affine-recon/const2": "3eb148459cba161197df9b0f21cf15512c3152683111a25bcc21663e00a3cb0f",
    "affine-recon/mono11": "cc3e49116e508f6ca110e8b70ca3e151e7fff68a71c313982baa669a508040d3",
    "affine-recon/series11": "db8651d8aa9bd91b5541f5c03326b0fa04131dd6f61731b675517c26b9003d4f",
    "affine-recon/mono12": "7528c98e8437acc223c7500ce0587d5d678890023bdcfce3251671f8c7a14049",
    "affine-recon/series12": "0e21975c3a081e4f4da83c11442565af604d6cce263dd940de2af8b0cf6a7ebd",
    "compare/euclid_linf_kn10": "46b18fa70ea4a1c91258c299924fbdb36ccc2d76586db1ef6d15c2682ee43971",
    "compare/euclid_l1_kn10": "92c0c8128415081ba475cfe43596f931ca73e6f4b8fdd81cd77a609ec747d2a5",
    "compare/euclid_linf_kn20": "30f81da0c960ffe68813a5d72d507f9cc063768601bb8660738d402d772188c1",
    "compare/euclid_l1_kn20": "c9a4a9de2d2e5182f4cfbf84a24bbffa78e4b584461f0c002c194b3ab9f75505",
    "compare/euclid_linf_kn40": "3e7b1ac367f2fa2b2a0d5438e22ffd6212b747e7cb03006d38ca2ffa98c5af98",
    "compare/euclid_l1_kn40": "6e9c07299c0360fc58922f8a6129e4dbcc6438fbb5ce2c0e58f4fce662f3759e",
    "compare/affine_const2": "c85446695b952e5375ca6184cde754df7cfae05d2c9ea21a8e38527d9ec5cd5b",
    "compare/affine_const1": "eca81ef958a73c17cee78558320325eba21bd4973c619a80b2de15ff0f160363",
    "compare/affine_mun": "d29109c20bca8788aced7b60b69c6ff1c92cc0bc40bfb968cc6806715946912d",
    "euclid-io/closed_1e6": "c16d7279ba573e3bc8f3f82a1db9451d71940b023c2139cab26e19715e95d31c",
    "euclid-io/kn_out": "5ca45caf90d98923c6706c717771327bfd7254ec39cf8cd80e1daf5061b465c4",
    "euclid-io/open_out": "b284feb19aa1d094acaeead0b045e21a75834a8adf6f012e26ca0a183f419ee5",
    "euclid-io/table_read": "ef444575c7c46454724a10ec5846ae03e62558abe9dafa9e51e0954797da8f79",
    "euclid-io/classify_kn_frac": "fbf0aa2787a47d9b571381f36fb7c7cae1848492a17a5892dd018481b2330beb",
    "euclid-io/classify_kn_int": "2d92c679a21fcb44c5a5089d89ef5b5476e3b0649567fcbed106d7974865d0a3",
    "euclid-io/classify_sin_closed": "1a827242b7226dbbaee7feb888bf02b1a49129fe8fd6f0569c9486397b93a765",
    "euclid-io/classify_sin_open": "83d954a20251bd8a896efcbaa46e78be4a571679d62fb4b753b4069b87fd0400",
    "euclid-io/bad_spec": "ba3372ffd982729f450e10888e7a86804da0225abb87935460632b03538b51d3",
    "euclid-io/bad_domain": "c0085f5fb66c6f05c8f4daf57531295440ba8480fcdcf7b9733c5083a69a5591",
}


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


def demo_digests() -> dict:
    """Each demo run in this interpreter, as its own ``__main__``; digests of the stdout it prints.

    ``demos/`` goes on ``sys.path`` for the runs, as for ``python demos/<demo>.py``, so ``import support`` works.
    """
    digests = {}
    demos = str(REPO / "demos")
    sys.path.insert(0, demos)
    try:
        for path in sorted((REPO / "demos").glob("[0-9]*.py")):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                runpy.run_path(str(path), run_name="__main__")
            digests[path.name] = hashlib.sha256(out.getvalue().encode()).hexdigest()
    finally:
        sys.path.remove(demos)
    return digests


def _perfbench_workloads():
    """perfbench/workloads.py as it is; its ``import oracles`` finds perfbench/oracles.py."""
    bench = str(REPO / "perfbench")
    sys.path.insert(0, bench)
    try:
        spec = importlib.util.spec_from_file_location("perfbench_workloads", REPO / "perfbench" / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(bench)
    return module


def traffic_digests(outdir: Path) -> dict:
    """Each benchmark request class built as the benchmark builds it and run in process through ``cli.main``."""
    digests = {}
    for name, build in _perfbench_workloads().WORKLOADS.items():
        for cls, request in build(random.Random(TRAFFIC_SEED), str(outdir)).requests.items():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(request.argv))
            record = [code, out.getvalue(), err.getvalue(), [_sha256(Path(p)) for p in request.outputs]]
            digests[f"{name}/{cls}"] = hashlib.sha256(json.dumps(record).encode()).hexdigest()
    return digests


def test_gallery_svgs_are_golden(tmp_path):
    assert gallery_digests(tmp_path) == GALLERY


def test_cli_outputs_are_golden(tmp_path):
    assert cli_digests(tmp_path) == [digest for _, _, digest in CLI_OUTPUTS]


def test_demo_stdout_is_golden():
    assert demo_digests() == DEMOS


def test_benchmark_traffic_is_golden(tmp_path):
    assert traffic_digests(tmp_path) == TRAFFIC

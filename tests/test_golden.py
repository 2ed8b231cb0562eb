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
     "--out", "7468f057796a17a377ad853f129f805cb175424a61774046571601f65fa283fc"),
]

DEMOS = {
    "01_euclidean_reconstruction.py": "296dac5d8f49b4cc66ae66e43798877283a6ac6644b2e8c165de58d8d9e22c93",
    "02_closedness.py": "afb3b12ac3cdcad47617fcf116df86ec3c9e8cabf7760579e996af822c962319",
    "03_distance_bounds.py": "2a70208e81061201ded1feca5f11c80187d3a23976658baf5fde9c198c8499ce",
    "04_affine_reconstruction.py": "aeafefbc0b8fba1eb212c023d5a88ab6d15abe43d2659054fb0949e501e38a22",
    "05_monomial_series.py": "cd96fbca06076448f62025622d4c1fb816da025ec78785491bb333148deeecdb",
}

# every request class of perfbench/workloads.py at seed TRAFFIC_SEED: exit code, stdout, stderr and output files
TRAFFIC_SEED = 1
TRAFFIC = {
    "affine-recon/mun25_L10": "15c9e5f7b21ea339d8c71ec0b1435274eaddf040f6d44a9ff0d69cef76ed10f1",
    "affine-recon/mun25_L2": "e48ab4b7b71a6163d47a58c3f025c09c4754c3ff9334c33719064842ad626f0b",
    "affine-recon/mun35_L4": "0aeec570bc0660d5d04b0b6892b584ca39b05d6e878f2bbac188b4929c80e1f9",
    "affine-recon/readme_L22": "cc50245173325a3771b29cc23a90d013dd1d4f434daf5a615b772553c11d8eff",
    "affine-recon/const3": "db5b60e4fbc597c7e618366523b2868b1dabad6ba52595c61c58330a1839f0ff",
    "affine-recon/const0": "9eb874e0a653030a82a60e9c3ad269bfcb9dba79423a284f475751a0196a83b1",
    "affine-recon/const2": "99fcfd5508340401cfa50484ea63e4a0072feac3767c18522667e0607b73ccaa",
    "affine-recon/mono11": "77dc51a4a6f1af37e076dc5fa1280494bafbf8072391d1c3a0bef7aaf5c9741d",
    "affine-recon/series11": "db8651d8aa9bd91b5541f5c03326b0fa04131dd6f61731b675517c26b9003d4f",
    "affine-recon/mono12": "e3079d741248bfa51a2845d3c41e9a9edfcfc150f5a5fac47bb6352df419a0e9",
    "affine-recon/series12": "0e21975c3a081e4f4da83c11442565af604d6cce263dd940de2af8b0cf6a7ebd",
    "compare/euclid_linf_kn10": "8f9431bf0de9dd44747f7ae4a91cbb7be570d6b1e8ef7828f0cefff408f104e5",
    "compare/euclid_l1_kn10": "b19da68da740f6eecc0abf2d07013c1ceb952e94d94cde03452958095698e081",
    "compare/euclid_linf_kn20": "3a53f34466a8279337a736b9b50ce927041d3184c3ef9ca0bc8efcaef7f1fd3a",
    "compare/euclid_l1_kn20": "e4850d621a6ec9021a6d2938d89a218792b34fbf64c768c6f47708bae3a874cc",
    "compare/euclid_linf_kn40": "53eab472e681bb9697d43376897a00a25882e67a8a01f7985937856348f864ee",
    "compare/euclid_l1_kn40": "0a7285b6b21366b6616aa42d80d1420e40d617cb388413bb6778d5c47fd54525",
    "compare/affine_const2": "e3608f2a56b043df97fa9bc739427552e31fc6908e2338d9d6f17ead95a43028",
    "compare/affine_const1": "541ebe461cc8b00d70c3329042c8e73117da0e3126465004b1f4569a30b33305",
    "compare/affine_mun": "04c6ec8dc60dc647ae1823172997c66ac21c7724248888033a6bbe31b5038dbe",
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
    """Each demo run in this interpreter, as its own ``__main__``; digests of the stdout it prints."""
    digests = {}
    for path in sorted((REPO / "demos").glob("[0-9]*.py")):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            runpy.run_path(str(path), run_name="__main__")
        digests[path.name] = hashlib.sha256(out.getvalue().encode()).hexdigest()
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

import importlib

import pytest

MODULES = ["curverecon"] + [
    f"curverecon.{m}" for m in ("affine", "curvatures", "curveio", "euclidean", "geometry", "series")
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []

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


def test_only_the_parse_errors_subclass_exception():
    # every solver refusal is a plain ValueError naming its cause; cli.main tells exit 2 from exit 3 by these two
    defined = {n for name in MODULES for n, obj in vars(importlib.import_module(name)).items()
               if isinstance(obj, type) and issubclass(obj, Exception) and obj.__module__ == name}
    assert defined == {"SpecParseError", "CsvFormatError"}

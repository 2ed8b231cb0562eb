"""The benchmark's tracer wraps attributes of this package by name.

``perfbench/tracer.py`` replaces each ``(owner, attribute)`` of its ``sites()``
list with a traced wrapper, and its ``install`` reads the attribute from
``vars(owner)``.  A refactor that renames or moves one of them breaks
``perfbench/run.py --trace 1`` without failing any other test, so this test
imports the tracer (without installing anything) and checks every site.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_site_exists():
    sites = _tracer().sites()
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr, _, _ in sites
               if not callable(vars(owner).get(attr))]
    assert missing == []
    assert [owner for owner, _, name, _ in sites if name == "curvatures.eval"]

"""The public surface: every exported name, and every function the benchmark
tracer wraps, resolves, so deleting a name cannot silently break either."""

import importlib
import importlib.util
from pathlib import Path

import panolayout

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_exports_and_traced_functions_resolve():
    names = panolayout.__all__
    assert len(names) == len(set(names)), "duplicate names in __all__"
    missing = [name for name in names if not hasattr(panolayout, name)]
    assert not missing, f"__all__ names that do not resolve: {missing}"

    traced = _traced()
    assert traced
    for span, (module, attr) in traced.items():
        target = getattr(importlib.import_module(module), attr, None)
        assert callable(target), f"traced span {span}: {module}.{attr} is not a callable"

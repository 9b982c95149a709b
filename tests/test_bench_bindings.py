"""The benchmark's traced names still exist.

`perfbench/spans.py` wraps program functions by (owner, attribute). A
binding that no longer resolves drops its calls from the per-layer
metrics, and once a span has none left, its metrics read null. This
loads the span table by file path and resolves every binding, without
installing the tracer or running the benchmark.
"""

import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
_spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)

@pytest.mark.parametrize("owner, attr", [(o, a) for _, o, a in spans.BINDINGS])
def test_binding_resolves(owner, attr):
    obj = spans._resolve(owner)
    assert obj is not None, owner
    assert callable(getattr(obj, attr, None)), f"{owner}.{attr}"


def test_bloch_wigner_keeps_its_cache():
    from volquandle import dilog, hypgeom

    assert hasattr(dilog.bloch_wigner, "cache_info")
    assert hypgeom.bloch_wigner is dilog.bloch_wigner

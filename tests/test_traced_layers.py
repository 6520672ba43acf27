"""The benchmark's traced layers must name functions that exist.

``bench/spans.py`` looks each traced function up by module and attribute
name, so renaming or deleting one of them would otherwise only fail in a
traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _layers():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.LAYERS


LAYERS = _layers()


@pytest.mark.parametrize("layer", sorted(LAYERS))
def test_traced_layer_resolves(layer):
    module, attr, _ = LAYERS[layer]
    target = importlib.import_module(f"symtest.{module}")
    for part in attr.split("."):
        target = getattr(target, part)
    assert callable(target)

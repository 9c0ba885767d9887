import importlib
import importlib.util
from pathlib import Path

import bellswap


def test_every_exported_name_resolves():
    missing = [name for name in bellswap.__all__ if not hasattr(bellswap, name)]
    assert missing == []


def test_every_traced_function_resolves():
    # the benchmark's tracer wraps these names; a rename must not break it
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bellswap_bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{layer}.{name}"
        for layer, names in tracing.LAYERS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"bellswap.{layer}"), name, None))
    ]
    assert missing == []

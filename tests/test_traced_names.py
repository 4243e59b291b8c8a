"""The benchmark's span tracer names package functions by string; keep them real.

``bench/spans.py`` wraps each function listed in ``TRACED`` by module and
name, so renaming one breaks ``bench/run.py --trace 1`` without failing any
other test.  Skipped where the ``bench/`` directory is not present.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


@pytest.mark.skipif(not SPANS.exists(), reason="bench/ is not present")
def test_every_traced_function_exists_and_is_callable():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for module_name, functions in spans.TRACED.items():
        module = importlib.import_module(f"{spans.PACKAGE}.{module_name}")
        missing += [f"{module_name}.{name}" for name in functions
                    if not callable(getattr(module, name, None))]
    assert missing == []

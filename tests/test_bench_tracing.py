"""The benchmark's tracer finds every function it wraps.

``bench/tracing.py`` looks each label of ``LABELS`` up by name when it
installs, so a library function deleted or renamed under a traced name
breaks ``bench/run.py --trace 1``; this test fails first.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

_TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _labels() -> tuple:
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LABELS


def test_every_traced_label_names_a_function_of_its_module():
    labels = [label.split(".") for label in _labels()]
    assert any(layer != "numpy" for layer, _ in labels)
    missing = []
    for layer, name in labels:
        owner = np.linalg if layer == "numpy" else importlib.import_module(f"qig.{layer}")
        if not callable(getattr(owner, name, None)):
            missing.append(f"{layer}.{name}")
    assert missing == []

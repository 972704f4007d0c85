"""``bench/spans.py`` wraps library functions and methods by name while it
traces a run; a name that no longer exists fails every traced run.  These
tests load it by path and check that every name it lists resolves."""

import importlib
import importlib.util
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("k2seq_bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_function_exists():
    spans = load_spans()
    missing = [f"k2seq.{module}.{attr}" for _, module, attr, _ in spans.FUNCTIONS
               if not callable(getattr(importlib.import_module(f"k2seq.{module}"), attr, None))]
    assert missing == []


def test_every_wrapped_method_exists():
    spans = load_spans()
    # instrument() replaces the method in the class's own dict.
    missing = [f"k2seq.{module}.{cls}.{attr}" for _, module, cls, attr in spans.METHODS
               if attr not in vars(getattr(importlib.import_module(f"k2seq.{module}"), cls))]
    assert missing == []

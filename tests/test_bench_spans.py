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


def test_encode_calls_the_ordering_functions_by_name(monkeypatch):
    """The traced ``graphs.order_ms`` and ``graphs.relabel_ms`` time
    ``order_nodes`` and ``apply_ordering`` where ``encode_graph`` looks them
    up, in ``k2seq.sequence``; an encode that stopped calling them there
    would read 0 in both."""
    import k2seq.sequence as sq
    from k2seq.generators import gen_grid

    calls = {"order_nodes": 0, "apply_ordering": 0}

    def counted(name):
        inner = getattr(sq, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(sq, name, counted(name))
    g = gen_grid(6, 6)
    s = sq.encode_graph(g, 2, ordering="cm")
    assert calls == {"order_nodes": 1, "apply_ordering": 1}
    assert s.perm is not None and sq.decode_graph(s) == g


def test_evaluate_calls_each_feature_and_mmd_by_name(monkeypatch):
    """The traced ``metrics.degree_ms``, ``metrics.clustering_ms``,
    ``metrics.orbit_ms`` and ``metrics.mmd_ms`` time these functions where
    ``evaluate_sets`` looks them up, in ``k2seq.metrics``: once per graph of
    each set, kept features or not, and ``mmd`` once per metric."""
    import k2seq.metrics as mt
    from k2seq.generators import gen_er

    features = ("degree_histogram", "clustering_histogram", "mean_orbit_vector")
    calls = {name: [] for name in features + ("mmd",)}

    def counted(name):
        inner = getattr(mt, name)

        def wrapper(*args, **kwargs):
            calls[name].append(args[0])
            return inner(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(mt, name, counted(name))
    ref = [gen_er(12, 0.3, seed) for seed in range(3)]
    gen = [gen_er(10, 0.4, seed) for seed in range(3, 5)]
    for _ in range(2):  # the second pass finds the features kept
        for name in calls:
            calls[name].clear()
        mt.evaluate_sets(ref, gen)
        for name in features:
            assert [id(g) for g in calls[name]] == [id(g) for g in ref + gen]
        assert len(calls["mmd"]) == len(mt.METRIC_NAMES)

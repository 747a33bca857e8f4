"""The names perfbench's span tracer reads off localelab.

`perfbench/tracer.py` is frozen with the benchmark and looks functions and
caches up by name; a traced run crashes, or silently loses a counter, when
one of them is renamed or removed. Its own smoke test lies outside the
Tier-1 test paths, so the names are pinned here.
"""
import importlib
import importlib.util
import inspect
import os

import pytest

TRACER = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracer.py")


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_cache_the_tracer_reads_has_cache_info(tracer):
    assert [(layer, attr) for layer, attr, _ in tracer.CACHES] == [
        ("sublocales", "_enumerate"),
        ("sublocales", "_transfer_cached"),
        ("hops", "complemented_fragment"),
    ]
    for layer, attr, _ in tracer.CACHES:
        fn = getattr(importlib.import_module(f"localelab.{layer}"), attr)
        assert callable(fn.cache_info), (layer, attr)


@pytest.mark.parametrize("layer, name, params", [
    ("maps", "enumerate_frame_homs", ["source", "target"]),
    ("points", "points_of", ["frame"]),
])
def test_observed_functions_keep_their_names(layer, name, params):
    # the tracer wraps a public, non-generator function of the layer module
    # and reads its leading arguments by position or by these names
    module = importlib.import_module(f"localelab.{layer}")
    fn = vars(module)[name]
    assert inspect.isfunction(fn) and fn.__module__ == module.__name__
    assert not inspect.isgeneratorfunction(fn)
    assert list(inspect.signature(fn).parameters)[:len(params)] == params


def test_check_ids_are_the_harness_checks(tracer):
    from localelab import verify

    assert tracer.CHECK_IDS == tuple(verify.CHECKS)

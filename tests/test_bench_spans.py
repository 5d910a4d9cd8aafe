"""The bench's span tracer against the package functions it wraps.

``bench/spans.py`` wraps package functions by the name their callers look
up, so deleting or renaming one of them breaks every traced bench run.
This test catches that with the rest of the package's tests.  It loads
``bench/spans.py`` from its file and changes nothing under ``bench/``.
"""

import importlib.util
from pathlib import Path

from treeq import branches, cli, search, toymodel

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
MODULES = (branches, cli, search, toymodel)


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def attributes():
    return {(m.__name__, name): getattr(m, name) for m in MODULES for name in dir(m)}


def test_install_finds_every_wrapped_attribute_and_restore_puts_them_back():
    spans = load_spans()
    before = attributes()
    tracer = spans.Tracer()
    try:
        # a missing attribute raises AttributeError here
        spans.install(tracer)
        planned = {(module.__name__, attr) for module, attr, _ in tracer._patched}
        during = attributes()
    finally:
        tracer.restore()
    changed = {key for key, value in before.items() if during[key] is not value}
    assert planned and changed == planned
    assert all(callable(before[key]) for key in planned)
    after = attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())

"""The benchmark's span recorder still finds every function it traces.

``bench/spans.py`` patches functions of ``ffunits`` by name; a function
that is deleted or renamed would make ``bench/run.py --trace 1`` fail.
"""

import importlib.util
import sys
from pathlib import Path

import ffunits.cli  # noqa: F401  (loads every module the recorder patches)

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("ffunits_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(spans):
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == spans.PACKAGE or name.startswith(spans.PACKAGE + ".")):
            out.update({(name, attr): value for attr, value in vars(mod).items()})
    for mod_name, cls_name, attr in spans.COUNT_TARGETS.values():
        if cls_name is not None:
            cls = getattr(sys.modules[f"{spans.PACKAGE}.{mod_name}"], cls_name)
            out[(cls_name, attr)] = cls.__dict__[attr]
    return out


def test_trace_targets_install_and_restore():
    spans = _load_spans()
    before = _bindings(spans)
    patch = spans.Patch()
    try:
        patch.install(spans.SpanRecorder())
        for mod_name, fns in spans.SPAN_TARGETS.items():
            mod = sys.modules[f"{spans.PACKAGE}.{mod_name}"]
            for fn in fns:
                assert getattr(mod, fn).__wrapped__ is before[(mod.__name__, fn)]
    finally:
        patch.restore()
    after = _bindings(spans)
    changed = [key for key, value in before.items() if after.get(key) is not value]
    assert changed == []

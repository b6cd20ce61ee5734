"""The benchmark's span targets still name functions of the library.

bench/spans.py wraps library functions by module and attribute name, so a
deletion or rename in src/ would otherwise first show up as a failed
benchmark run.  The benchmark harness is loaded by path and only read:
every target of TARGETS and of _criterion_targets() must resolve, and the
traced run (`bench/run.py --trace 1`) must record the criteria that reach
the gauging maps and the exact tensors without an error.
"""

import importlib.util
import pathlib
import sys

import pytest

SPANS = pathlib.Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class body runs.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


spans = _load_spans()
TARGETS = spans.TARGETS + spans._criterion_targets()


@pytest.mark.parametrize("target", TARGETS, ids=lambda t: f"{t.module}.{t.attr}")
def test_target_resolves(target):
    owner, key, original = spans._resolve(target)
    assert key == target.attr.split(".")[-1]
    assert callable(original)


# Criteria 4, 5, 6 and 11: the gauging maps, the stack symmetries, the
# exact tensors and their monomial products, and the tensor network.
TRACED_CRITERIA = (
    "criterion_frustration_free",
    "criterion_emergent_symmetry",
    "criterion_string_order_mapping",
    "criterion_tensor_network",
)


def test_traced_criteria_close_every_span_and_restore_every_slot():
    from latgauge import suite

    originals = [getattr(suite, name) for name in TRACED_CRITERIA]
    tracer = spans.Tracer("contract")
    tracer.install()
    try:
        # A counts function that raises propagates out of the wrapper
        # before its span closes, so each report must come back.
        reports = [getattr(suite, name)() for name in TRACED_CRITERIA]
    finally:
        tracer.uninstall()
    tracer.check_restored()
    assert [getattr(suite, name) for name in TRACED_CRITERIA] == originals
    assert [r["status"] for r in reports] == ["passed"] * len(TRACED_CRITERIA)
    recorded = tracer.closed_spans()
    assert None not in recorded
    names = {sp.name for sp in recorded}
    assert {"gauging.GaugingMap.apply", "gauging.verify_string_order_mapping", "cyclotomic.mono_mul"} <= names
    # No span runs inside another span of its own name, so no self time
    # is counted twice under one metric.
    for sp in recorded:
        parent = sp.parent
        while parent is not None:
            assert recorded[parent].name != sp.name
            parent = recorded[parent].parent
    assert min(tracer.self_times()) >= -1e-9
    metrics = tracer.layer_metrics()
    assert metrics["cyclotomic.mono_mul.calls"] > 0
    assert metrics["gauging.GaugingMap.exact_matrix.entries"] > 0

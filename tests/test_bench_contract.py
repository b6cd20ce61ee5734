"""The benchmark's span targets still name functions of the library.

bench/spans.py wraps library functions by module and attribute name, so a
deletion or rename in src/ would otherwise first show up as a failed
benchmark run.  The benchmark harness is loaded by path and only read:
every target of TARGETS and of _criterion_targets() must resolve.
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

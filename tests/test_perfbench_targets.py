import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_trace_target_resolves(monkeypatch):
    # a renamed or moved library function would leave its per-layer
    # benchmark metrics unmeasured; the tracer is imported as it is, and
    # no bytecode is written next to it
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    try:
        tracing = importlib.import_module("tracing")
        assert tracing.__file__ == str(PERFBENCH / "tracing.py")
        for dotted, _ in tracing.TARGETS:
            owner, attr = tracing._resolve(dotted)
            assert callable(getattr(owner, attr, None)), dotted
    finally:
        sys.modules.pop("tracing", None)

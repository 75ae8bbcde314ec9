"""The benchmark's tracer wraps package entry points by name
(``bench/workloads.py::trace_targets``).  A renamed or removed entry point
would leave its per-layer metric at zero without any error, so every
target is checked here."""

import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_trace_target_exists_and_is_callable(monkeypatch):
    """Loads bench/workloads.py without writing bytecode under bench/ and
    leaves sys.modules as it was."""
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    before = set(sys.modules)
    try:
        workloads = importlib.import_module("workloads")
        targets = workloads.trace_targets()
    finally:
        for name in set(sys.modules) - before:
            if name in ("workloads", "oracle"):
                del sys.modules[name]
    assert targets
    missing = [f"{module.__name__}.{attr}" for module, attr, _, _ in targets
               if not callable(getattr(module, attr, None))]
    assert missing == []

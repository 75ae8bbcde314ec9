"""The benchmark's tracer wraps package entry points by name
(``bench/workloads.py::trace_targets``).  A renamed or removed entry point
would leave its per-layer metric at zero without any error, so every
target is checked here, and so are the call sites of the export path."""

import contextlib
import importlib
import io
import os
import sys
from pathlib import Path

import pytest

from agcodes import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def bench(monkeypatch):
    """bench/workloads.py and bench/tracing.py, loaded without writing
    bytecode under bench/; sys.modules is left as it was."""
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    before = set(sys.modules)
    try:
        yield importlib.import_module("workloads"), importlib.import_module("tracing")
    finally:
        for name in set(sys.modules) - before:
            if name in ("workloads", "oracle", "tracing"):
                del sys.modules[name]


def test_every_trace_target_exists_and_is_callable(bench):
    targets = bench[0].trace_targets()
    assert targets
    missing = [f"{module.__name__}.{attr}" for module, attr, _, _ in targets
               if not callable(getattr(module, attr, None))]
    assert missing == []


def test_export_path_reaches_its_trace_targets(bench, tmp_path):
    """`dual --out` under the benchmark's own tracer: evaluate, the
    generator writer and the alist writer are each reached, so that the
    export workload's codes.evaluate_s, codes.write_bytes and alist.bytes
    do not read 0.  The two writers' counters read the size of the file
    named by their second argument, which therefore exists and is the
    file written."""
    workloads, tracing = bench
    out = str(tmp_path / "dual.txt")
    tracer = tracing.Tracer()
    tracer.install(workloads.trace_targets())
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["dual", "--q", "4", "--l", "2", "--m", "4", "--r", "2",
                           "--out", out])
    finally:
        tracer.uninstall()
    assert rc == 0
    seconds, counts = tracing.layer_totals(tracer.spans, tracer.pass_id)
    assert {"codes.evaluate", "codes.write", "alist.write"} <= set(seconds)
    assert counts["codes.evaluate_calls"] >= 1
    assert counts["codes.write_bytes"] == os.path.getsize(out) > 0
    assert counts["alist.bytes"] == os.path.getsize(out + ".alist") > 0

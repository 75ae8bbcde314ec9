"""Tests of the benchmark itself: span arithmetic, the oracle, and the
MacWilliams route to the pinned counts.

Run from the repository root:  python3 -m pytest -q bench/test_bench.py
"""

import itertools
import json
import math
import os
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from agcodes.codes import build_affine_grassmann  # noqa: E402


# ----------------------------------------------------------------- spans

def _span(parent, start, end, layer="x", pass_id=1):
    return tracing.Span(pass_id, parent, layer, start, end)


def test_self_time_subtracts_children_only_once():
    spans = [_span(None, 0.0, 10.0, "root"),
             _span(0, 1.0, 4.0, "a"),
             _span(1, 2.0, 3.0, "a.child"),
             _span(0, 5.0, 6.0, "b")]
    assert tracing.self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])
    assert sum(tracing.self_times(spans)) == pytest.approx(10.0)


def test_layer_totals_keep_passes_apart():
    spans = [_span(None, 0.0, 2.0, "l", pass_id=1),
             _span(None, 0.0, 5.0, "l", pass_id=2)]
    spans[0].counters = {"c": 3}
    seconds, counts = tracing.layer_totals(spans, 1)
    assert seconds == {"l": pytest.approx(2.0)} and counts == {"c": 3}


def test_tracer_nests_counts_and_restores():
    mod = types.ModuleType("pkg.fake")
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    original = (mod.inner, mod.outer)
    tracer = tracing.Tracer()
    tracer.install([(mod, "outer", "layer.outer", None),
                    (mod, "inner", "layer.inner", lambda a, k, r: {"n": a[0]})])
    assert mod.outer(3) == 8
    tracer.uninstall()
    assert (mod.inner, mod.outer) == original
    outer, inner = tracer.spans
    assert (outer.name, outer.parent, inner.parent) == ("layer.outer", None, 0)
    assert inner.counters == {"n": 3} and outer.start <= inner.start <= inner.end <= outer.end


def test_traced_pass_matches_untraced_on_a_small_code(tmp_path):
    small = workloads.Workload("small", (workloads.enum_step(2, 2, 4, 2, 10),), ())
    ctx = workloads.Context(seed=0, out_dir=str(tmp_path))
    untraced = run.run_pass(small, ctx)
    tracer = tracing.Tracer()
    tracer.install(workloads.trace_targets())
    try:
        traced = run.run_pass(small, ctx)
    finally:
        tracer.uninstall()
    assert untraced[0].problems == traced[0].problems == []
    assert untraced[0].summary == traced[0].summary
    seconds, counts = tracing.layer_totals(tracer.spans, 0)
    assert {"analysis.enum", "codes.build", "codes.evaluate", "linalg.rank"} <= set(seconds)
    assert counts["analysis.enum_words"] == 63
    assert sum(seconds.values()) <= traced[0].seconds


# ---------------------------------------------------------------- oracle

def test_oracle_accepts_the_truth_and_flags_off_by_one():
    step = workloads.report_step(2, 3, 6, 2, 10)
    record = dict(oracle.report_record(3, 6, 2, 2),
                  dual_weight_counts={"1": 0, "2": 0, "3": 0, "4": 68992},
                  dual_weight_report={"d": 4, "count": 68992})
    summary = {"rc": 0, "record": record, "stderr": "", "files": {}}
    assert step.check(summary) == []
    record["dual_weight_counts"] = dict(record["dual_weight_counts"], **{"4": 68993})
    assert len(step.check(summary)) == 1

    verify = workloads.verify_step(2, 2, 6, 40)
    checks = [{"name": n, "pass": True} for n in
              ["params-r0", "self-orth-r0", "params-r1", "dual-dim-r1", "self-orth-r1",
               "dual-min-weight-r1", "params-r2", "dual-dim-r2", "self-orth-r2",
               "dual-min-weight-r2", "automorphism-sample"]]
    searches = [{"n": 256, "k": 9, "counts": {1: 0, 2: 0, 3: 0, 4: 690880}},
                {"n": 256, "k": 15, "counts": {1: 0, 2: 0, 3: 0, 4: 27840}}]
    summary = {"rc": 0, "record": {"ok": True, "checks": checks}, "stderr": "",
               "files": {}, "searches": searches}
    assert verify.check(summary) == []
    searches[0]["counts"][4] = 690881  # d = 4 still holds; only the count is off
    assert len(verify.check(summary)) == 1

    enum = workloads.enum_step(2, 3, 6, 3, 10)
    truth = {"d": 168, "count": 512, "enumerated": 2 ** 20 - 1}
    assert enum.check(truth) == []
    assert enum.check(dict(truth, count=513)) != []
    assert enum.check(dict(truth, enumerated=2 ** 20)) != []


def test_closed_forms_match_the_paper_examples():
    assert oracle.params(3, 6, 2, 2) == {"n": 512, "k": 19, "d": 192, "min_weight_count": None}
    assert oracle.params(3, 6, 3, 2) == {"n": 512, "k": 20, "d": 168, "min_weight_count": 512}
    assert oracle.params(2, 5, 2, 3)["d"] == 432
    assert oracle.params(2, 5, 2, 3)["min_weight_count"] == 2106


# ----------------------------------------------------------- MacWilliams

def _mul_table(q):
    """Multiplication in F_q for prime q, or for q = 2^t modulo the
    package's fixed modulus (X^2+X+1, X^3+X+1, X^4+X+1)."""
    if all(q % p for p in range(2, q)):  # prime
        return np.array([[a * b % q for b in range(q)] for a in range(q)])
    modulus = {4: 0b111, 8: 0b1011, 16: 0b10011}[q]
    t = q.bit_length() - 1

    def mul(a, b):
        acc = 0
        for i in range(t):
            if b >> i & 1:
                acc ^= a << i
        for deg in range(2 * t - 2, t - 1, -1):
            if acc >> deg & 1:
                acc ^= modulus << (deg - t)
        return acc

    return np.array([[mul(a, b) for b in range(q)] for a in range(q)])


def weight_distribution(G, q):
    """{weight: count} over the row space of G, by brute force that shares
    no code with the package's searches or enumerations."""
    G = np.asarray(G, dtype=np.int64)
    k, n = G.shape
    if q == 2:  # meet in the middle on packed rows
        rows = np.packbits(G.astype(np.uint8), axis=1, bitorder="little")
        rows = np.pad(rows, ((0, 0), (0, -rows.shape[1] % 8))).view(np.uint64)

        def span(block):
            out = np.zeros((1, rows.shape[1]), dtype=np.uint64)
            for row in block:
                out = np.concatenate([out, out ^ row])
            return out

        low, high = span(rows[: k // 2]), span(rows[k // 2:])
        hist = sum(np.bincount(np.bitwise_count(low ^ w).sum(axis=1), minlength=n + 1)
                   for w in high)
    else:
        mul = _mul_table(q)
        prime = all(q % p for p in range(2, q))
        msgs = np.array(list(itertools.product(range(q), repeat=k)))
        words = np.zeros((len(msgs), n), dtype=np.int64)
        for j in range(k):
            term = mul[msgs[:, j][:, None], G[j][None, :]]
            words = (words + term) % q if prime else words ^ term
        hist = np.bincount(np.count_nonzero(words, axis=1), minlength=n + 1)
    return {w: int(c) for w, c in enumerate(hist) if c}


def test_krawtchouk_edges():
    n, q = 10, 3
    assert [oracle.krawtchouk(w, 0, n, q) for w in range(4)] == \
        [math.comb(n, w) * (q - 1) ** w for w in range(4)]
    # the repetition code [n, 1, n] over F_2 has dual B_2 = C(n, 2)
    assert oracle.macwilliams_dual_counts({0: 1, n: 1}, n, 2, 2) == {1: 0, 2: math.comb(n, 2)}


@pytest.mark.parametrize("key", sorted(oracle.PINNED_DUAL_COUNTS))
def test_macwilliams_confirms_pinned_dual_counts(key):
    ell, m, r, q = key
    C = build_affine_grassmann(ell, m, r, q)
    A = weight_distribution(C.generator, q)
    assert sum(A.values()) == q ** C.k
    want = oracle.PINNED_DUAL_COUNTS[key]
    assert oracle.macwilliams_dual_counts(A, C.n, q, max(want)) == want


@pytest.mark.parametrize("key", sorted(oracle.PINNED_MIN_WEIGHT_COUNTS))
def test_enumeration_confirms_pinned_min_weight_counts(key):
    ell, m, r, q = key
    A = weight_distribution(build_affine_grassmann(ell, m, r, q).generator, q)
    d = oracle.params(ell, m, r, q)["d"]
    assert min(w for w in A if w) == d
    assert A[d] == oracle.PINNED_MIN_WEIGHT_COUNTS[key]


# ------------------------------------------------------------- contract

def test_benchmark_json_lists_what_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    assert names == run.WORKLOAD_NAMES == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"job_s", "peak_rss_mb", "setup_s"}
    layer = workloads.per_layer_metrics({}, {}, 1.0, 1.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (v, u) in layer.items()}


def test_exits_nonzero_without_the_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "oddq", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=""))
    assert proc.returncode != 0 and proc.stdout == ""

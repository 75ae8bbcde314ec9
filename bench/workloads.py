"""The benchmark's workloads: steps, their oracles, and the trace targets.

A step's ``run`` is the timed call into the package; ``summarize`` turns
its result into plain data outside the timed region, and ``check``
compares that data with ``oracle`` and returns the mismatches.  Steps
reach the package only through module attributes (``analysis.X``,
``cli.main``), so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass

import numpy as np

from agcodes import alist, analysis, cli, codes, dual, linalg, transforms

import oracle


@dataclass(frozen=True)
class Step:
    name: str
    run: object        # run(ctx) -> raw result (timed)
    summarize: object  # summarize(raw, ctx) -> plain data
    check: object      # check(summary) -> list of mismatch messages
    deadline_s: float


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is recorded in BENCHMARK.json and NOTES.md."""

    name: str
    steps: tuple
    setup_codes: tuple  # (q, l, m, r) that set-up builds


@dataclass
class Context:
    seed: int
    out_dir: str


def _diff(label, got, want):
    return [] if got == want else [f"{label}: got {got!r}, want {want!r}"]


# ------------------------------------------------------------------ CLI steps

def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _cli_summary(raw, ctx):
    rc, out, err = raw
    record = json.loads(out) if rc == 0 else None
    for check in (record or {}).get("checks", ()):
        check.pop("seconds", None)  # times the comparison only; not an output
    files = {name: _sha256(os.path.join(ctx.out_dir, name))
             for name in sorted(os.listdir(ctx.out_dir))}
    return {"rc": rc, "record": record, "stderr": err, "files": files}


def _code_args(q, ell, m, r):
    return ["--q", str(q), "--l", str(ell), "--m", str(m), "--r", str(r)]


def report_step(q, ell, m, r, deadline_s):
    def check(s):
        if s["rc"] != 0:
            return [f"exit code {s['rc']}: {s['stderr'].strip()}"]
        rec = s["record"]
        bad = []
        for key, want in oracle.report_record(ell, m, r, q).items():
            bad += _diff(key, rec.get(key), want)
        counts = oracle.dual_counts(ell, m, r, q, 4)
        bad += _diff("dual_weight_counts", rec.get("dual_weight_counts"),
                     {str(w): c for w, c in counts.items()})
        d = oracle.dual_distance(ell, m, q)
        rep = rec.get("dual_weight_report") or {}
        bad += _diff("dual d", rep.get("d"), d)
        bad += _diff("dual count", rep.get("count"), counts[d])
        return bad

    return Step(f"report-agc{ell}{m}{r}-f{q}",
                lambda ctx: _cli(["report", *_code_args(q, ell, m, r), "--deep"]),
                _cli_summary, check, deadline_s)


def verify_step(q, ell, m, deadline_s):
    """`verify --deep`, whose record holds only pass flags.  The dual weight
    counts of the searches it runs (r = 1..l, in that order) are kept from
    the calls themselves and checked exactly as well."""
    names = []
    for r in range(ell + 1):
        names += [f"params-r{r}"] + ([f"dual-dim-r{r}"] if r else [])
        names += [f"self-orth-r{r}"]
        if r and oracle.dual_distance(ell, m, q) is not None:
            names += [f"dual-min-weight-r{r}"]
    names.append("automorphism-sample")

    def run(ctx):
        searches, search = [], analysis.low_weight_dual_search

        def recording(C, *args, **kwargs):
            rep = search(C, *args, **kwargs)
            searches.append({"n": C.n, "k": C.k, "counts": dict(rep.weight_counts)})
            return rep

        analysis.low_weight_dual_search = recording
        try:
            return _cli(["verify", "--deep", "--q", str(q), "--l", str(ell),
                         "--m", str(m), "--seed", str(ctx.seed)]), searches
        finally:
            analysis.low_weight_dual_search = search

    def summarize(raw, ctx):
        return dict(_cli_summary(raw[0], ctx), searches=raw[1])

    def check(s):
        if s["rc"] != 0:
            return [f"exit code {s['rc']}: {s['stderr'].strip()}"]
        rec = s["record"]
        got = {c["name"]: c["pass"] for c in rec["checks"]}
        want = []
        for r in range(1, ell + 1):
            p = oracle.params(ell, m, r, q)
            want.append({"n": p["n"], "k": p["k"], "counts": oracle.dual_counts(ell, m, r, q, 4)})
        return (_diff("ok", rec["ok"], True)
                + _diff("checks", got, {n: True for n in names})
                + _diff("searches", s["searches"], want))

    return Step(f"verify-agc{ell}{m}-f{q}", run, summarize, check, deadline_s)


def dual_step(q, ell, m, r, deadline_s):
    base = f"dual-agc{ell}{m}{r}-f{q}.txt"

    def check(s):
        if s["rc"] != 0:
            return [f"exit code {s['rc']}: {s['stderr'].strip()}"]
        p = oracle.params(ell, m, r, q)
        want = {"schema": 1, "q": q, "l": ell, "m": m, "r": r,
                "n": p["n"], "k": p["n"] - p["k"]}
        digests = {base + suffix: h
                   for suffix, h in oracle.PINNED_DIGESTS[(ell, m, r, q)].items()}
        return _diff("record", s["record"], want) + _diff("files", s["files"], digests)

    return Step(f"dual-agc{ell}{m}{r}-f{q}",
                lambda ctx: _cli(["dual", *_code_args(q, ell, m, r),
                                  "--out", os.path.join(ctx.out_dir, base)]),
                _cli_summary, check, deadline_s)


# -------------------------------------------------------------- library steps

def enum_step(q, ell, m, r, deadline_s):
    def run(ctx):
        C = codes.build_affine_grassmann(ell, m, r, q)
        return analysis.min_distance_exhaustive(C)

    def summarize(rep, ctx):
        return {"d": rep.min_distance, "count": rep.min_weight_count,
                "enumerated": rep.enumerated}

    def check(s):
        p = oracle.params(ell, m, r, q)
        return _diff("enumeration", s, {"d": p["d"],
                                        "count": oracle.min_weight_count(ell, m, r, q),
                                        "enumerated": q ** p["k"] - 1})

    return Step(f"enum-agc{ell}{m}{r}-f{q}", run, summarize, check, deadline_s)


def search_step(q, ell, m, r, w_max, deadline_s):
    def run(ctx):
        C = codes.build_affine_grassmann(ell, m, r, q)
        return analysis.low_weight_dual_search(C, w_max=w_max)

    def summarize(rep, ctx):
        return {"counts": dict(rep.weight_counts), "d": rep.min_distance,
                "count": rep.min_weight_count, "examined": rep.enumerated}

    def check(s):
        counts = oracle.dual_counts(ell, m, r, q, w_max)
        d = oracle.dual_distance(ell, m, q)
        return (_diff("counts", s["counts"], counts) + _diff("d", s["d"], d)
                + _diff("count", s["count"], counts[d]))

    return Step(f"search{w_max}-agc{ell}{m}{r}-f{q}", run, summarize, check, deadline_s)


def span_step(q, ell, m, r, deadline_s):
    """Weight-4 dual words of AGC(l,m;r) and the rank of their span."""
    def run(ctx):
        C = codes.build_affine_grassmann(ell, m, r, q)
        D = dual.build_dual_code(C)
        words = analysis.dual_codewords_of_weight(C, 4)
        return words, analysis.span_generation_test(D, words)

    def summarize(raw, ctx):
        words, res = raw
        weights, supports = set(), set()
        for lo in range(0, len(words), 4096):
            block = np.stack(words[lo:lo + 4096]) != 0
            weights.update(np.count_nonzero(block, axis=1).tolist())
            supports.update(row.tobytes() for row in np.packbits(block, axis=1))
        return {"words": len(words), "distinct_supports": len(supports),
                "weights": sorted(weights), "rank": res["rank"],
                "generates": res["generates"]}

    def check(s):
        p = oracle.params(ell, m, r, q)
        classes = oracle.dual_counts(ell, m, r, q, 4)[4] // (q - 1)
        rank = oracle.PINNED_SPAN_RANKS[(ell, m, r, q)]
        return _diff("span", s, {"words": classes, "distinct_supports": classes,
                                 "weights": [4], "rank": rank,
                                 "generates": rank == p["n"] - p["k"]})

    return Step(f"span-agc{ell}{m}{r}-f{q}", run, summarize, check, deadline_s)


def automorphism_step(q, ell, m, r, count, deadline_s):
    """Seeded affine maps P -> B P A^-1 + u; each induces an automorphism."""
    def run(ctx):
        C = codes.build_affine_grassmann(ell, m, r, q)
        pe = codes.PointEnumeration(C.rect, C.field)
        rng = np.random.default_rng(ctx.seed)
        out = []
        for _ in range(count):
            T = transforms.random_transform(C.rect, C.field, rng)
            perm = transforms.induced_permutation(T, pe)
            out.append((T, perm, transforms.is_automorphism(C, perm)))
        return out

    def summarize(raw, ctx):
        return [{"automorphism": bool(ok),
                 "permutation_ok": np.array_equal(perm.map, _image_indices(T, ell, m - ell, q)),
                 "permutation": hashlib.sha256(perm.map.tobytes()).hexdigest()}
                for T, perm, ok in raw]

    def check(s):
        return [f"transform {i}: {item}" for i, item in enumerate(s)
                if not (item["automorphism"] and item["permutation_ok"])]

    return Step(f"automorphisms-agc{ell}{m}{r}-f{q}", run, summarize, check, deadline_s)


def _image_indices(T, ell, lp, p):
    """Point index of B P A^-1 + u for every point P, over a prime field,
    with A^-1 checked first; independent of the package's own routine."""
    B, A, A_inv, u = (np.asarray(x, dtype=np.int64) for x in (T.B, T.A, T.A_inv, T.u))
    if not np.array_equal(A @ A_inv % p, np.eye(lp, dtype=np.int64)):
        return None
    n = p ** (ell * lp)
    weights = p ** np.arange(ell * lp, dtype=np.int64)
    pts = (np.arange(n, dtype=np.int64)[:, None] // weights % p).reshape(n, ell, lp)
    imgs = (B @ pts @ A_inv + u) % p
    return imgs.reshape(n, -1) @ weights


# ---------------------------------------------------------------- workloads

# The last argument of each step is its deadline in seconds: at least three
# times the step's slowest time seen on the machine in NOTES.md.
WORKLOADS = {w.name: w for w in [
    Workload(
        "gf2-512",
        (report_step(2, 3, 6, 2, 15), report_step(2, 3, 6, 3, 15),
         verify_step(2, 2, 6, 40), dual_step(2, 3, 6, 3, 15),
         enum_step(2, 3, 6, 2, 10), enum_step(2, 3, 6, 3, 10),
         span_step(2, 3, 6, 2, 40)),
        ((2, 3, 6, 2), (2, 3, 6, 3), (2, 2, 6, 0), (2, 2, 6, 1), (2, 2, 6, 2))),
    Workload(
        "oddq",
        (report_step(3, 2, 4, 2, 30), report_step(16, 1, 2, 1, 60),
         dual_step(3, 2, 5, 2, 30), dual_step(4, 2, 4, 2, 20),
         enum_step(3, 2, 5, 2, 30), search_step(4, 2, 4, 2, 3, 20)),
        ((3, 2, 4, 2), (16, 1, 2, 1), (3, 2, 5, 2), (4, 2, 4, 2))),
    Workload(
        "gf2-4096-export",
        (dual_step(2, 3, 7, 2, 90), automorphism_step(2, 3, 7, 2, 3, 30)),
        ((2, 3, 7, 2),)),
]}


# ----------------------------------------------------------------- tracing

def _matmul_counts(args, kwargs, result):
    a, b, F = np.shape(args[0]), np.shape(args[1]), args[2]
    copies = 8 * (int(np.prod(a)) + int(np.prod(b))) if F.t == 1 else 0
    return {"linalg.matmul_macs": a[0] * a[1] * (b[1] if len(b) > 1 else 1),
            "linalg.matmul_tmp_bytes": copies}


def _search_counts(args, kwargs, result):
    rep = result[0] if isinstance(result, tuple) else result
    return {"analysis.search_examined": rep.enumerated,
            "analysis.search_found": sum(rep.weight_counts.values())}


def _file_bytes(metric, index):
    return lambda args, kwargs, result: {metric: os.path.getsize(args[index])}


def trace_targets():
    """(module, attribute, layer, counter) for every traced call site."""
    evaluate = lambda a, k, res: {"codes.evaluate_calls": 1,
                                  "codes.evaluate_coords": a[1].n}
    return [
        (cli, "main", "cli.self", None),
        (cli, "build_affine_grassmann", "codes.build", None),
        (codes, "build_affine_grassmann", "codes.build", None),
        (codes, "evaluate", "codes.evaluate", evaluate),
        (dual, "evaluate", "codes.evaluate", evaluate),
        (analysis, "evaluate", "codes.evaluate", evaluate),
        (cli, "write_generator", "codes.write", _file_bytes("codes.write_bytes", 1)),
        (alist, "write_alist", "alist.write", _file_bytes("alist.bytes", 1)),
        (alist, "write_qval", "alist.write", _file_bytes("alist.bytes", 1)),
        (codes, "make_field", "field.make_field", None),
        (dual, "make_field", "field.make_field", None),
        (analysis, "make_field", "field.make_field", None),
        (dual, "dual_basis", "dual.basis",
         lambda a, k, res: {"dual.basis_polys": len(res)}),
        (dual, "build_dual_code", "dual.build",
         lambda a, k, res: {"dual.h_bytes": res.generator.nbytes}),
        (dual, "self_orthogonality_check", "dual.selforth", None),
        (analysis, "low_weight_dual_search", "analysis.search", _search_counts),
        (analysis, "min_distance_exhaustive", "analysis.enum",
         lambda a, k, res: {"analysis.enum_words": res.enumerated}),
        (analysis, "dual_codewords_of_weight", "analysis.collect",
         lambda a, k, res: {"analysis.collect_words": len(res)}),
        (analysis, "span_generation_test", "analysis.span", None),
        (linalg, "rank", "linalg.rank",
         lambda a, k, res: {"linalg.rank_rows": len(a[0]), "linalg.rank_found": res}),
        (linalg, "rref", "linalg.rref",
         lambda a, k, res: {"linalg.rref_cells": int(np.size(a[0]))}),
        (linalg, "nullspace", "linalg.nullspace", None),
        (linalg, "matmul", "linalg.matmul", _matmul_counts),
        (transforms, "induced_permutation", "transforms.perm",
         lambda a, k, res: {"transforms.perms": 1}),
        (transforms, "is_automorphism", "transforms.auto", None),
    ]


LAYERS = list(dict.fromkeys(layer for _, _, layer, _ in trace_targets()))

COUNTERS = {"analysis.search_examined": "count", "analysis.search_found": "count",
            "analysis.enum_words": "count", "analysis.collect_words": "count",
            "linalg.rank_rows": "count", "linalg.rref_cells": "count",
            "linalg.matmul_macs": "count", "linalg.matmul_tmp_bytes": "B",
            "codes.evaluate_calls": "count", "codes.evaluate_coords": "count",
            "codes.write_bytes": "B", "alist.bytes": "B",
            "dual.basis_polys": "count", "dual.h_bytes": "B", "transforms.perms": "count"}


def _ratio(a, b):
    return a / b if b else 0.0


def per_layer_metrics(seconds, counts, traced_job_s, untraced_job_s):
    """Every per-layer metric, as (value, unit), from one traced pass."""
    out = {f"{layer}_s": (seconds.get(layer, 0.0), "s") for layer in LAYERS}
    out.update({name: (counts.get(name, 0), unit) for name, unit in COUNTERS.items()})
    out["analysis.search_yield"] = (_ratio(counts.get("analysis.search_found", 0),
                                           counts.get("analysis.search_examined", 0)), "ratio")
    out["analysis.enum_words_per_s"] = (_ratio(counts.get("analysis.enum_words", 0),
                                               seconds.get("analysis.enum", 0.0)), "1/s")
    out["linalg.rank_yield"] = (_ratio(counts.get("linalg.rank_found", 0),
                                       counts.get("linalg.rank_rows", 0)), "ratio")
    out["trace.job_s"] = (traced_job_s, "s")
    out["trace.overhead_s"] = (traced_job_s - untraced_job_s, "s")
    out["trace.residual_s"] = (traced_job_s - sum(seconds.values()), "s")
    return out

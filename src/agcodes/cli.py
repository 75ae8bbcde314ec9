"""Command-line front end: build | dual | verify | export-alist | report.

Every run is deterministic: identical arguments produce byte-identical
output files, and JSON reports carry a "schema": 1 field and sorted keys.
Failures exit nonzero with a machine-parsable error record on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

import numpy as np

from . import analysis, dual as dual_mod, transforms
from .alist import export_parity_alist
from .codes import (PointEnumeration, build_affine_grassmann,
                    theoretical_params, write_generator)
from .errors import AGCError, SizeOutOfRange, TooLarge, UsageError
from .field import make_field

DEFAULT_MAX_COORDS = 2 ** 20


def _emit(obj, stream=None):
    print(json.dumps(obj, sort_keys=True), file=stream or sys.stdout)


def _coord_cap():
    env = os.environ.get("AGC_MAX_COORDS")
    if env is None:
        return DEFAULT_MAX_COORDS
    try:
        return int(env)
    except ValueError:
        raise SizeOutOfRange(f"AGC_MAX_COORDS must be an integer, got {env!r}") from None


def _check_cap(args):
    make_field(args.q)
    delta, cap = args.l * (args.m - args.l), _coord_cap()
    if delta > cap.bit_length() or args.q ** delta > cap:  # n >= 2^delta
        raise TooLarge(f"n = {args.q}^{delta} exceeds AGC_MAX_COORDS = {cap}")


def _build(args):
    _check_cap(args)
    C = build_affine_grassmann(args.l, args.m, args.r, args.q)
    params = theoretical_params(args.l, args.m, args.r, args.q)
    record = {
        "schema": 1,
        "q": args.q, "l": args.l, "m": args.m, "r": args.r,
        "n": C.n, "k": C.k,
        "n_theory": params.n, "k_theory": params.k, "d_theory": params.d,
        "match": C.n == params.n and C.k == params.k,
    }
    if args.out is not None:
        write_generator(C, args.out)
        with open(args.out + ".json", "w") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    _emit(record)
    return 0 if record["match"] else 1


def _dual(args):
    _check_cap(args)
    C = build_affine_grassmann(args.l, args.m, args.r, args.q)
    D = dual_mod.build_dual_code(C)  # exact orthogonality verified inside
    record = {"schema": 1, "q": args.q, "l": args.l, "m": args.m,
              "r": args.r, "n": D.n, "k": D.k}
    if args.out is not None:
        write_generator(D, args.out)
        export_parity_alist(D.generator, args.out + ".alist", args.q)
    _emit(record)
    return 0


def _export_alist(args):
    _check_cap(args)
    C = build_affine_grassmann(args.l, args.m, args.r, args.q)
    D = dual_mod.build_dual_code(C)
    export_parity_alist(D.generator, args.out, args.q)
    _emit({"schema": 1, "written": args.out, "n": D.n, "rows": D.k})
    return 0


def _verify(args):
    if args.seed < 0:
        raise SizeOutOfRange(f"--seed must be nonnegative, got {args.seed}")
    _check_cap(args)
    q, ell, m = args.q, args.l, args.m
    rng = np.random.default_rng(args.seed)
    checks = []

    def check(name, fn):
        t0 = time.perf_counter()
        try:
            ok = bool(fn())
            err = None
        except Exception as exc:  # report, do not abort the battery
            ok, err = False, f"{type(exc).__name__}: {exc}"
        entry = {"name": name, "pass": ok,
                 "seconds": round(time.perf_counter() - t0, 3)}
        if err:
            entry["error"] = err
        checks.append(entry)

    def dual_dim(r, p):  # the symbolic proof alone: no H is evaluated
        basis = dual_mod.dual_basis(ell, m, r, q)
        dual_mod.check_dual_basis(basis, ell, m, r, q)
        return len(basis) == p.n - p.k

    # each check does its own work, so one that cannot run (TooLarge, say)
    # fails with its error and the others still report
    for r in range(ell + 1):
        C = build_affine_grassmann(ell, m, r, q)
        params = theoretical_params(ell, m, r, q)
        check(f"params-r{r}", lambda C=C, p=params: C.n == p.n and C.k == p.k)
        if r >= 1:
            check(f"dual-dim-r{r}", lambda r=r, p=params: dual_dim(r, p))
        so = dual_mod.self_orthogonality_check(ell, m, r, q, code=C)
        check(f"self-orth-r{r}",
              lambda so=so: so["selfOrthogonal"] == so["expectedByTheorem"])
        expected_d = 3 if q > 2 else (4 if m - ell > 1 else None)
        if args.deep and r >= 1 and expected_d is not None:
            check(f"dual-min-weight-r{r}", lambda C=C, e=expected_d:
                  analysis.low_weight_dual_search(C, w_max=e).min_distance == e)

    # a random affine map must induce an automorphism of the top-level
    # code, the r = l code of the last pass
    T = transforms.random_transform(C.rect, C.field, rng)
    perm = transforms.induced_permutation(T, PointEnumeration(C.rect, C.field))
    check("automorphism-sample", lambda: transforms.is_automorphism(C, perm))

    ok = all(c["pass"] for c in checks)
    _emit({"schema": 1, "q": q, "l": ell, "m": m,
           "ok": ok, "checks": checks})
    return 0 if ok else 1


def _report(args):
    _check_cap(args)
    params = theoretical_params(args.l, args.m, args.r, args.q)
    forb, nonforb, bino = dual_mod.is_forbidden_counts(args.l, args.m,
                                                      args.r, args.q)
    record = {
        "schema": 1,
        "q": args.q, "l": args.l, "m": args.m, "r": args.r,
        "n": params.n, "k": params.k, "d": params.d,
        "min_weight_count": params.min_weight_count,
        "forbidden": forb, "non_forbidden": nonforb, "binomials": bino,
        "automorphism_subgroup_order":
            transforms.subgroup_order_bound(args.l, args.m, args.q),
    }
    if args.deep and args.r >= 1:
        C = build_affine_grassmann(args.l, args.m, args.r, args.q)
        rep = analysis.low_weight_dual_search(C, w_max=4)
        record["dual_weight_report"] = json.loads(rep.to_json())
        record["dual_weight_counts"] = {str(w): c
                                        for w, c in rep.weight_counts.items()}
    _emit(record)
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error as a UsageError, so that it leaves as an error
    record with exit code 2 like every other failure."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


@functools.lru_cache(maxsize=None)
def _parser():
    """The parser and its subparsers, built once per process: parse_args
    fills a new namespace each call, so no option carries over."""
    parser = _ArgumentParser(
        prog="agcodes",
        description="Affine Grassmann codes: construction, duals, verification")
    sub = parser.add_subparsers(dest="command", required=True)
    r = ("--r", {"type": int, "required": True})
    out = ("--out", {"help": "output path (optional)"})
    deep = ("--deep", {"action": "store_true", "help": "enable checks above ~1 second"})
    for name, fn, options in [
        ("build", _build, [r, out]),
        ("dual", _dual, [r, out]),
        ("verify", _verify, [("--seed", {"type": int, "default": 0}), deep]),
        ("export-alist", _export_alist,
         [r, ("--out", {"required": True, "help": "output path"})]),
        ("report", _report, [r, deep]),
    ]:
        sp = sub.add_parser(name)
        sp.set_defaults(handler=fn)
        sp.add_argument("--q", type=int, required=True)
        sp.add_argument("--l", type=int, required=True)
        sp.add_argument("--m", type=int, required=True)
        for flag, kwargs in options:
            sp.add_argument(flag, **kwargs)
    return parser


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
        return args.handler(args)
    except (AGCError, OSError) as exc:
        _emit({"schema": 1, "error": type(exc).__name__, "message": str(exc)},
              stream=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

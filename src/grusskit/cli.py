"""Command-line front end.

Reports go to standard output as a JSON document; human diagnostics go to
standard error.  Exit codes: 0 success, 1 input or evaluation error, 2
inequality violation found by ``verify``.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import sys

from . import __version__, battery, jsonio
from .errors import GrussKitError, SchemaError
from .functionals import (cheby_T, functional_D, identity_residual_D,
                          weighted_Tw)
from .funcrep import require_certificate
from .quadrature import (Partition, adaptive_quadrature, holder_remainder,
                         partition_quadrature)
from .sharpness import run_catalogue
from .stieltjes import riemann_integral, rs_integral, rs_product_integral
from .theorems import THEOREMS


def _load_spec(args) -> jsonio.ParsedSpec:
    if getattr(args, "json", None):
        return jsonio.loads_document(args.json)
    if getattr(args, "input", None):
        with open(args.input, "r", encoding="utf-8") as handle:
            return jsonio.loads_document(handle.read())
    raise SchemaError("$", "supply --input PATH or --json TEXT")


def _report(args, results, seed=None) -> dict:
    return {
        "tool": "grusskit",
        "version": __version__,
        "command": list(args.argv_echo),
        "seed": seed,
        "timestamp": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(),
        "results": results,
    }


def _emit(args, results, seed=None) -> None:
    print(jsonio.dumps_report(_report(args, results, seed)))


def _cmd_integrate(args) -> int:
    spec = _load_spec(args)
    a, b = spec.domain
    c = a if args.from_ is None else args.from_
    d = b if args.to is None else args.to
    f = spec.require("f").restrict(c, d)
    u = spec.functions.get("u")
    if u is None:
        res = riemann_integral(f)
    else:
        res = rs_integral(f, u.restrict(c, d))
    _emit(args, {"integral": jsonio.integral_to_jsonable(res)})
    return 0


def _cmd_cheby(args) -> int:
    spec = _load_spec(args)
    f, g = spec.require("f"), spec.require("g")
    if "u" in spec.functions:
        res = cheby_T(f, g, spec.functions["u"])
    else:
        res = weighted_Tw(f, g, spec.require("w"))
    _emit(args, {"functional": jsonio.functional_to_jsonable(res)})
    return 0


def _cmd_dfunc(args) -> int:
    spec = _load_spec(args)
    f, u = spec.require("f"), spec.require("u")
    res = functional_D(f, u)
    results = {"functional": jsonio.functional_to_jsonable(res)}
    if args.residual:
        results["identity_residual"] = identity_residual_D(f, u)
    _emit(args, results)
    return 0


def _cmd_bound(args) -> int:
    spec = _load_spec(args)
    theorem = THEOREMS.get(args.theorem)
    if theorem is None or theorem.takes_partition:
        raise SchemaError("theorem", f"unknown theorem id {args.theorem!r}")
    reports = theorem.run(spec, args.p)
    _emit(args, {"bounds": [jsonio.bound_report_to_jsonable(r)
                            for r in reports]})
    return 0


def _counts(option: str, text: str, k: int, form: str, cap: int) -> list[int]:
    """``k`` colon-separated cell counts from an option value, each at
    least 1 and none above ``cap``, the cell budget of ``--max-cells``;
    checked before any partition is built."""
    try:
        counts = [int(x) for x in text.split(":")]
    except ValueError:
        counts = []
    if len(counts) != k:
        raise SchemaError(option, f"expected {form}, got {text!r}")
    if min(counts) < 1:
        raise SchemaError(option, f"cell counts must be >= 1, got {text!r}")
    if max(counts) > cap:
        raise SchemaError(option, f"{text!r} exceeds --max-cells {cap}")
    return counts


def _cmd_quad(args) -> int:
    spec = _load_spec(args)
    f, g, u = spec.require("f"), spec.require("g"), spec.require("u")
    a, b = spec.domain
    if args.max_cells < 1:
        raise SchemaError("max-cells", f"must be >= 1, got {args.max_cells}")
    if not args.tol > 0:
        raise SchemaError("tol", f"must be > 0, got {args.tol}")
    results: dict = {}
    if args.sweep:
        lo_n, hi_n = _counts("sweep", args.sweep, 2, "<nmin>:<nmax>",
                             args.max_cells)
        if lo_n > hi_n:
            raise SchemaError("sweep", f"nmin {lo_n} exceeds nmax {hi_n}")
        holder = next((c for c in spec.certificates.get("f", [])
                       if c.kind == "holder"), None)
        rows = []
        exact = rs_product_integral([f, g], u).value
        n = lo_n
        while n <= hi_n:
            part = Partition.uniform(a, b, n)
            if holder is not None and n == lo_n:
                require_certificate(f, holder, "f")
            res = partition_quadrature(f, g, u, part)
            bound = res.remainder_bound if holder is None \
                else holder_remainder(res, u, holder).stated
            rows.append((part.mesh, bound, abs(exact - res.value)))
            n *= 2
        results["sweep"] = [list(r) for r in rows]
        if args.csv:
            with open(args.csv, "w", encoding="utf-8") as handle:
                handle.write("mesh,bound,true_error\n")
                for mesh, bound, err in rows:
                    handle.write(f"{mesh!r},{bound!r},{err!r}\n")
    elif args.partition:
        kind, _, count = args.partition.partition(":")
        if kind != "uniform":
            raise SchemaError("partition", "expected uniform:<n>")
        (n,) = _counts("partition", count, 1, "uniform:<n>", args.max_cells)
        res = partition_quadrature(f, g, u, Partition.uniform(a, b, n))
        results["quadrature"] = jsonio.quadrature_to_jsonable(
            res, per_cell=False)
    else:
        res = adaptive_quadrature(f, g, u, args.tol, args.max_cells)
        results["quadrature"] = jsonio.quadrature_to_jsonable(res)
    _emit(args, results)
    return 0


def _cmd_sharpness(args) -> int:
    rows = run_catalogue(args.a, args.b)
    print(f"{'id':12s} {'theorem':12s} {'ratio':>22s} {'expected':>9s} pass",
          file=sys.stderr)
    for wid, tid, ratio, expected, ok in rows:
        print(f"{wid:12s} {tid:12s} {ratio:22.17f} {expected:9.3f} "
              f"{'yes' if ok else 'NO'}", file=sys.stderr)
    _emit(args, {"sharpness": [
        {"id": wid, "theorem": tid, "ratio": ratio,
         "expected": expected, "pass": ok}
        for wid, tid, ratio, expected, ok in rows]})
    return 0 if all(r[4] for r in rows) else 2


def _cmd_verify(args) -> int:
    if args.theorem != "all" and args.theorem not in battery.THEOREMS:
        raise SchemaError("theorem", f"unknown theorem id {args.theorem!r}")
    if args.trials < 0:
        raise SchemaError("trials", f"must be >= 0, got {args.trials}")
    seed = 0 if args.seed is None else args.seed
    ids = battery.THEOREM_IDS if args.theorem == "all" else (args.theorem,)
    summaries = [battery.verify_theorem(t, args.trials, seed) for t in ids]
    _emit(args, {"verify": [s.to_jsonable() for s in summaries]}, seed=seed)
    bad = [s for s in summaries if not s.ok]
    if bad:
        for s in bad:
            print(f"violations in {s.theorem_id}: {len(s.violations)}",
                  file=sys.stderr)
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="grusskit",
        description="Certified Stieltjes integration and Gruss-type "
                    "inequality verification")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def add_spec_args(p):
        p.add_argument("--input", help="path to a function-spec JSON file")
        p.add_argument("--json", help="inline function-spec JSON")

    p = sub.add_parser("integrate", help="Stieltjes or Riemann integral")
    p.set_defaults(handler=_cmd_integrate)
    add_spec_args(p)
    p.add_argument("--from", dest="from_", type=float, default=None)
    p.add_argument("--to", dest="to", type=float, default=None)

    p = sub.add_parser("cheby", help="normalised product-mean functional")
    p.set_defaults(handler=_cmd_cheby)
    add_spec_args(p)

    p = sub.add_parser("dfunc", help="Stieltjes/Riemann mismatch functional")
    p.set_defaults(handler=_cmd_dfunc)
    add_spec_args(p)
    p.add_argument("--residual", action="store_true",
                   help="also report the kernel-identity residual")

    p = sub.add_parser("bound", help="evaluate one certified bound")
    p.set_defaults(handler=_cmd_bound)
    add_spec_args(p)
    p.add_argument("--theorem", required=True)
    p.add_argument("--p", type=float, default=None,
                   help="exponent for the L^p branches")

    p = sub.add_parser("quad", help="composite quadrature")
    p.set_defaults(handler=_cmd_quad)
    add_spec_args(p)
    p.add_argument("--partition", help="uniform:<n>")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--max-cells", type=int, default=4096)
    p.add_argument("--sweep", help="<nmin>:<nmax> doubling mesh sweep")
    p.add_argument("--csv", help="write (mesh, bound, true_error) rows here")

    p = sub.add_parser("sharpness", help="run the extremal witness table")
    p.set_defaults(handler=_cmd_sharpness)
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--b", type=float, default=1.0)

    p = sub.add_parser("verify", help="randomised soundness battery")
    p.set_defaults(handler=_cmd_verify)
    p.add_argument("--theorem", default="all")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=None)
    return ap


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The one parser ``run`` uses in this process, built at the first
    request rather than at import; ``parse_args`` leaves it unchanged, so
    every request parses against the same state."""
    return build_parser()


def run(argv: list[str]) -> int:
    """Parse argv, execute, print the report; returns the exit code."""
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    args.argv_echo = list(argv)
    try:
        return args.handler(args)
    except SchemaError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except GrussKitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

"""Span tracer for the traced benchmark pass.

Wrappers are installed from outside the package: every binding of a traced
function in every loaded ``grusskit`` module is replaced, because
``bounds``, ``functionals``, ``quadrature``, ``sharpness`` and ``cli`` bind
``funcrep``/``stieltjes`` names with ``from .x import y`` while ``poly`` is
reached as ``poly.f`` through the module attribute.  Patching each module
dict entry that *is* the original object covers both styles, including
calls a module makes to its own globals.

Each wrapped call records a span (name, start, end, parent, op index) in
compact arrays held in memory and written out by :meth:`Tracer.dump`.
Self time is the span duration minus the time covered by child spans.
"""

from __future__ import annotations

import inspect
import sys
from array import array
from collections import defaultdict
from time import perf_counter

# Spans kept in memory (40 bytes each); calls past this are still
# aggregated into calls and self time, but not stored.
MAX_STORED_SPANS = 500_000


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.op = array("q")
        self.dropped = 0
        self.current_op = -1
        self._stack: list[list] = []   # [span index or -1, child seconds]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def call(self, name: str, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1][0] if stack else -1
        if len(self.start) < MAX_STORED_SPANS:
            idx = len(self.start)
            self.start.append(0.0)
            self.end.append(0.0)
            self.parent.append(parent)
            self.name.append(self._name_id(name))
            self.op.append(self.current_op)
        else:
            idx = -1
            self.dropped += 1
        frame = [idx, 0.0]
        stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            dur = t1 - t0
            if idx >= 0:
                self.start[idx] = t0
                self.end[idx] = t1
            self.calls[name] += 1
            self.self_s[name] += dur - frame[1]
            if stack:
                stack[-1][1] += dur

    def dump(self, path) -> None:
        """Write the stored spans as an ``.npz`` of parallel arrays: span
        ``k`` is ``names[name[k]]``, running from ``start[k]`` to ``end[k]``
        (perf_counter seconds) under span ``parent[k]`` (-1 for an op's
        root) within op ``op[k]``."""
        import numpy as np
        np.savez(path, names=np.array(self.names), dropped=self.dropped,
                 **{col: np.frombuffer(getattr(self, col),
                                       dtype=getattr(self, col).typecode)
                    for col in ("name", "start", "end", "parent", "op")})


def _rebind(original, replacement) -> None:
    """Replace every binding of ``original`` in loaded grusskit modules."""
    hits = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "grusskit"
                               or mod_name.startswith("grusskit.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                hits += 1
    if hits == 0:
        raise RuntimeError(f"no binding of {original!r} found to trace")


def _spanned(tracer: Tracer, name: str, fn):
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)
    return wrapper


def _counted(tracer: Tracer, key: str, fn):
    counts = tracer.counts

    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)
    return wrapper


def _cert_kind(cert) -> str:
    if cert.kind == "holder":
        return "holder_r1" if cert.params[1] == 1.0 else "holder_frac"
    return cert.kind


POLY_SPANS = ("proots", "pminmax_on", "pcritical")
FUNCREP_SPANS = ("inf_sup_on", "sup_norm_on", "total_variation", "p_norm")
STIELTJES_SPANS = ("rs_integral", "rs_product_integral", "riemann_integral")
FUNCTIONALS_SPANS = ("cheby_T", "functional_D", "identity_residual_D",
                     "weighted_Tw")
BOUNDS_SPANS = ("bound_T_bv", "bound_T_monotone", "bound_T_lipschitz_u",
                "bound_T_holder_bv", "bound_T_holder_monotone",
                "bound_T_holder_lipschitz", "weighted_bounds",
                "bound_D_prior", "bound_D_kernel", "positivity_check_D",
                "bound_D_monotone_K", "bound_D_monotone_Q")
QUADRATURE_SPANS = ("composite_S", "remainder_bound_osc",
                    "remainder_bound_holder")
INSTANCES_FUNCS = ("rand_interval", "rand_piecewise", "rand_continuous",
                   "rand_monotone", "rand_lipschitz", "rand_holder",
                   "rand_bounds_cert", "rand_bv_cert", "rand_nonneg_weight",
                   "rand_signed_weight", "rand_convex", "ensure_span")
CORRECTIONS = ("a12", "a13", "a14")
CERT_KINDS = ("bounds", "lipschitz", "holder_r1", "holder_frac", "bv",
              "monotone")


def span_names() -> list[str]:
    """Every span name the tracer can report, in a fixed order."""
    names = [f"poly.{n}" for n in POLY_SPANS]
    names += [f"funcrep.{n}" for n in FUNCREP_SPANS]
    names += ["funcrep.PiecewiseFunction.restrict"]
    names += [f"funcrep.verify_certificate.{k}" for k in CERT_KINDS]
    names += ["funcrep.gauss_integral"]
    names += [f"stieltjes.{n}" for n in STIELTJES_SPANS]
    names += [f"functionals.{n}" for n in FUNCTIONALS_SPANS]
    names += [f"bounds.{n}" for n in BOUNDS_SPANS]
    names += [f"bounds.bound_D_corollaries.{v}" for v in CORRECTIONS]
    names += ["quadrature.adaptive_quadrature"]
    names += [f"quadrature.{n}" for n in QUADRATURE_SPANS]
    names += ["instances", "jsonio.loads_document", "jsonio.dumps_report",
              "cli.run", "sharpness.run_catalogue"]
    return names


COUNT_NAMES = ("poly.pvalue.calls", "funcrep.gauss_integral.nodes",
               "funcrep.gauss_integral.unconverged",
               "quadrature.adaptive.cells", "quadrature.adaptive.capped")


def install(tracer: Tracer) -> None:
    """Wrap the traced grusskit functions at every binding site."""
    from grusskit import (bounds, cli, funcrep, functionals, instances,
                          jsonio, poly, quadrature, sharpness, stieltjes)

    def span(mod, attr, name):
        _rebind(getattr(mod, attr), _spanned(tracer, name,
                                             getattr(mod, attr)))

    for attr in POLY_SPANS:
        span(poly, attr, f"poly.{attr}")
    _rebind(poly.pvalue, _counted(tracer, "poly.pvalue.calls", poly.pvalue))
    for attr in FUNCREP_SPANS:
        span(funcrep, attr, f"funcrep.{attr}")
    restrict = funcrep.PiecewiseFunction.restrict
    funcrep.PiecewiseFunction.restrict = _spanned(
        tracer, "funcrep.PiecewiseFunction.restrict", restrict)
    for mod, names in ((stieltjes, STIELTJES_SPANS),
                       (functionals, FUNCTIONALS_SPANS),
                       (bounds, BOUNDS_SPANS),
                       (quadrature, QUADRATURE_SPANS)):
        prefix = mod.__name__.rsplit(".", 1)[1]
        for attr in names:
            span(mod, attr, f"{prefix}.{attr}")
    for attr in INSTANCES_FUNCS:
        span(instances, attr, "instances")
    span(jsonio, "loads_document", "jsonio.loads_document")
    span(jsonio, "dumps_report", "jsonio.dumps_report")
    span(cli, "run", "cli.run")
    span(sharpness, "run_catalogue", "sharpness.run_catalogue")

    verify = funcrep.verify_certificate
    verify_sig = inspect.signature(verify)

    def verify_certificate(*args, **kwargs):
        cert = verify_sig.bind(*args, **kwargs).arguments["cert"]
        return tracer.call(f"funcrep.verify_certificate.{_cert_kind(cert)}",
                           verify, args, kwargs)
    _rebind(verify, verify_certificate)

    corollaries = bounds.bound_D_corollaries
    corollaries_sig = inspect.signature(corollaries)

    def bound_D_corollaries(*args, **kwargs):
        which = corollaries_sig.bind(*args, **kwargs).arguments["which"]
        return tracer.call(f"bounds.bound_D_corollaries.{which}",
                           corollaries, args, kwargs)
    _rebind(corollaries, bound_D_corollaries)

    gauss = funcrep.gauss_integral
    gauss_sig = inspect.signature(gauss)
    counts = tracer.counts

    def gauss_integral(*args, **kwargs):
        bound = gauss_sig.bind(*args, **kwargs)
        bound.apply_defaults()
        fun = bound.arguments["fun"]
        evaluations = 0

        def counted_fun(ts):
            nonlocal evaluations
            evaluations += 1
            counts["funcrep.gauss_integral.nodes"] += ts.size
            return fun(ts)
        bound.arguments["fun"] = counted_fun
        out = tracer.call("funcrep.gauss_integral", gauss, bound.args,
                          bound.kwargs)
        if evaluations == bound.arguments["max_doublings"] + 1:
            counts["funcrep.gauss_integral.unconverged"] += 1
        return out
    _rebind(gauss, gauss_integral)

    adaptive = quadrature.adaptive_quadrature
    adaptive_sig = inspect.signature(adaptive)

    def adaptive_quadrature(*args, **kwargs):
        tol = adaptive_sig.bind(*args, **kwargs).arguments["tol"]
        res = tracer.call("quadrature.adaptive_quadrature", adaptive, args,
                          kwargs)
        counts["quadrature.adaptive.cells"] += res.partition.n
        if res.tight_bound > tol:
            counts["quadrature.adaptive.capped"] += 1
        return res
    _rebind(adaptive, adaptive_quadrature)


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """``<name>.calls`` / ``<name>.self_ms`` for every span name (zero when
    the workload never reached it) plus the counters."""
    out: dict[str, tuple[float, str]] = {}
    for name in span_names():
        out[f"{name}.calls"] = (tracer.calls.get(name, 0), "count")
        out[f"{name}.self_ms"] = (tracer.self_s.get(name, 0.0) * 1e3, "ms")
    for key in COUNT_NAMES:
        out[key] = (tracer.counts.get(key, 0), "count")
    return out

"""The three benchmark workloads.

Each workload turns a seed into inputs (``__init__``, part of set-up),
runs one op per call to :meth:`execute` (the only timed code), and checks
an op's output afterwards in :meth:`check`, which returns the per-op values
written to the ops file.  Ops are numbered from 0; :meth:`label` names an
op so that a failure can be replayed.

All grusskit calls go through module attributes so that the traced pass
sees the wrappers that ``spans.install`` puts in place.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random

from grusskit import (battery, cli, funcrep, functionals, instances, jsonio,
                      poly, quadrature, stieltjes)

# The suite's slack on certified enclosures (tests/test_quadrature.py).
SLACK = 1e-9


def _within(err: float, bound: float) -> bool:
    return err <= bound + SLACK * (1.0 + bound)


class Battery:
    """One op is one seeded soundness trial, cycling through every family
    in catalogue order and seeded exactly as ``battery.verify_theorem``."""

    def __init__(self, seed: int):
        self.seed = seed
        self.ids = battery.THEOREM_IDS

    def family(self, i: int) -> str:
        return self.ids[i % len(self.ids)]

    def label(self, i: int) -> dict:
        return {"theorem": self.family(i), "seed": self.seed,
                "trial": i // len(self.ids)}

    def execute(self, i: int):
        tid = self.family(i)
        rng = random.Random(f"{self.seed}:{tid}:{i // len(self.ids)}")
        return battery.THEOREMS[tid](rng)

    def check(self, i: int, reports) -> tuple[bool, list]:
        reports = list(reports)
        values = [[r.theorem_id, r.lhs, r.rhs, r.ratio] for r in reports]
        return bool(reports) and all(r.holds for r in reports), values


class QuadAdaptive:
    """One op is one ``adaptive_quadrature`` solve of a seeded problem: f, g
    continuous, u a monotone integrator with a non-degenerate span."""

    TOL = 1e-3
    MAX_CELLS = 128
    POOL = 2048

    def __init__(self, seed: int):
        self.seed = seed
        rng = random.Random(f"quad_adaptive:{seed}")
        self.problems = []
        for _ in range(self.POOL):
            a, b = instances.rand_interval(rng)
            f = instances.rand_continuous(rng, a, b)
            g = instances.rand_continuous(rng, a, b)
            u = instances.ensure_span(
                rng, lambda: instances.rand_monotone(rng, a, b))
            self.problems.append((f, g, u))

    def label(self, i: int) -> dict:
        f, g, u = self.problems[i % self.POOL]
        return {"seed": self.seed, "problem": i % self.POOL,
                "document": {"domain": list(u.domain),
                             "f": jsonio.function_to_jsonable(f),
                             "g": jsonio.function_to_jsonable(g),
                             "u": jsonio.function_to_jsonable(u)},
                "tol": self.TOL, "max_cells": self.MAX_CELLS}

    def execute(self, i: int):
        f, g, u = self.problems[i % self.POOL]
        return quadrature.adaptive_quadrature(f, g, u, self.TOL,
                                              self.MAX_CELLS)

    def check(self, i: int, res) -> tuple[bool, list]:
        f, g, u = self.problems[i % self.POOL]
        exact = stieltjes.rs_product_integral([f, g], u).value
        ok = _within(abs(exact - res.value), res.tight_bound)
        return ok, [res.value, res.tight_bound, res.remainder_bound,
                    res.partition.n]


# -- cli_mix document builders ----------------------------------------------

def _lipschitz_cert(f) -> funcrep.RegularityCertificate:
    L = 0.0
    for i, c in enumerate(f.pieces):
        mn, mx = poly.pminmax_on(poly.pderiv(c), f.breakpoints[i],
                                 f.breakpoints[i + 1])
        L = max(L, abs(mn), abs(mx))
    return funcrep.RegularityCertificate.lipschitz(L * (1.0 + 1e-9) + 1e-12)


def _smooth_doc(rng: random.Random, fractional: bool) -> jsonio.ParsedSpec:
    """f Lipschitz (so also bounded, BV and Holder), g continuous, u a
    continuous monotone Lipschitz integrator, w a positive weight.  Meets
    every hypothesis class except 'f monotone'."""
    Cert = funcrep.RegularityCertificate
    a, b = instances.rand_interval(rng)
    f, f_lip = instances.rand_lipschitz(rng, a, b)
    g = instances.rand_continuous(rng, a, b)
    u = instances.ensure_span(
        rng, lambda: instances.rand_monotone(rng, a, b, with_jumps=False))
    w = instances.rand_nonneg_weight(rng, a, b)
    L = f_lip.params[0]
    if fractional:
        r = rng.choice((0.5, 0.75))
        holder = Cert.holder(L * (b - a) ** (1.0 - r) * (1.0 + 1e-9) + 1e-12,
                             r)
    else:
        holder = Cert.holder(L, 1.0)
    return jsonio.ParsedSpec(
        (a, b), {"f": f, "g": g, "u": u, "w": w},
        {"f": [instances.rand_bounds_cert(f), f_lip, holder,
               instances.rand_bv_cert(f)],
         "u": [_lipschitz_cert(u), Cert.monotone()]})


def _monotone_doc(rng: random.Random) -> jsonio.ParsedSpec:
    """f monotone with jumps, u convex (hence continuous)."""
    a, b = instances.rand_interval(rng)
    f = instances.rand_monotone(rng, a, b)
    u = instances.rand_convex(rng, a, b)
    return jsonio.ParsedSpec(
        (a, b), {"f": f, "u": u},
        {"f": [funcrep.RegularityCertificate.monotone()]})


def _jump_doc(rng: random.Random) -> jsonio.ParsedSpec:
    """f, g continuous, u of bounded variation with jumps and a span."""
    a, b = instances.rand_interval(rng)
    f = instances.rand_continuous(rng, a, b)
    g = instances.rand_continuous(rng, a, b)
    u = instances.ensure_span(
        rng, lambda: instances.rand_piecewise(rng, a, b, jumps=True))
    return jsonio.ParsedSpec((a, b), {"f": f, "g": g, "u": u})


def _quad_doc(rng: random.Random, holder: bool) -> jsonio.ParsedSpec:
    """The quad_adaptive problem class, optionally with a Lipschitz
    (Holder r = 1) certificate on f so that ``--sweep`` takes the Holder
    remainder.  Every sweep gets the same certificate kind, so sweep
    latencies form one cluster and the tail percentile does not sit on the
    edge between two."""
    a, b = instances.rand_interval(rng)
    if holder:
        f, lip = instances.rand_lipschitz(rng, a, b)
        certs = {"f": [funcrep.RegularityCertificate.holder(lip.params[0],
                                                            1.0)]}
    else:
        f, certs = instances.rand_continuous(rng, a, b), {}
    g = instances.rand_continuous(rng, a, b)
    u = instances.ensure_span(rng, lambda: instances.rand_monotone(rng, a, b))
    return jsonio.ParsedSpec((a, b), {"f": f, "g": g, "u": u}, certs)


# theorem id -> (document class, choices for --p or None)
BOUND_THEOREMS = {
    "thm_2_1a": ("smooth", None), "thm_2_2": ("smooth", None),
    "thm_2_3a": ("smooth", None), "thm_2_1": ("fractional", None),
    "cor_2_2": ("smooth", None), "thm_2_3": ("fractional", None),
    "cor_2_4": ("smooth", None), "thm_2_5": ("fractional", (1.5, 2.0, 3.0)),
    "cor_2_6": ("smooth", (1.5, 2.0, 3.0)),
    "item_1": ("smooth", None), "item_2": ("smooth", None),
    "item_3": ("smooth", None), "item_4": ("fractional", None),
    "item_5": ("smooth", None), "item_6": ("smooth", (1.5, 2.0, 3.0)),
    "thm_a_1": ("smooth", None), "thm_a_2": ("smooth", None),
    "thm_a_6_i": ("smooth", None), "thm_a_6_ii": ("smooth", None),
    "thm_a_6_iii": ("monotone", None), "cor_a_7": ("smooth", None),
    "cor_a_8": ("smooth", (1.5, 2.0, 4.0)),
    "cor_a_9": ("monotone", (2.0, 3.0)), "thm_a_11": ("monotone", None), "thm_b_1": ("smooth", None),
    "thm_b_2": ("smooth", None),
}

# Request kinds in the order one cycle of the mix issues them.
CLI_CYCLE = ("integrate", "bound", "cheby", "bound", "dfunc", "quad",
             "sharpness", "sweep")


def _strict_loads(text: str):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=reject)


class CliMix:
    """One op is one in-process ``cli.run(argv)`` request with stdout
    captured; the request stream cycles through ``CLI_CYCLE`` over seeded
    function-spec documents."""

    POOL = 2048

    def __init__(self, seed: int):
        self.seed = seed
        rng = random.Random(f"cli_mix:{seed}")
        bound_ids = list(BOUND_THEOREMS)
        self.requests = []
        n_bound = 0
        for i in range(self.POOL):
            kind = CLI_CYCLE[i % len(CLI_CYCLE)]
            if kind == "sharpness":
                self.requests.append((kind, ["sharpness"], None))
                continue
            extra: list[str] = []
            if kind == "bound":
                tid = bound_ids[n_bound % len(bound_ids)]
                n_bound += 1
                doc_class, p_choices = BOUND_THEOREMS[tid]
                if doc_class == "monotone":
                    spec = _monotone_doc(rng)
                else:
                    spec = _smooth_doc(rng, doc_class == "fractional")
                extra = ["--theorem", tid]
                if p_choices:
                    extra += ["--p", repr(rng.choice(p_choices))]
            elif kind in ("quad", "sweep"):
                spec = _quad_doc(rng, holder=kind == "sweep")
                extra = (["--partition", f"uniform:{rng.randint(4, 64)}"]
                         if kind == "quad" else ["--sweep", "4:256"])
            else:
                spec = _jump_doc(rng)
                if kind == "dfunc":
                    extra = ["--residual"]
            text = json.dumps(jsonio.document_to_jsonable(spec))
            command = "quad" if kind == "sweep" else kind
            self.requests.append((kind, [command, "--json", text] + extra,
                                  text))

    def label(self, i: int) -> dict:
        argv = self.requests[i % self.POOL][1]
        return {"seed": self.seed, "request": i % self.POOL, "argv": argv}

    def execute(self, i: int):
        argv = self.requests[i % self.POOL][1]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
        return code, out.getvalue()

    def check(self, i: int, output) -> tuple[bool, list]:
        kind, _, text = self.requests[i % self.POOL]
        code, stdout = output
        if code != 0:
            return False, [code]
        results = _strict_loads(stdout)["results"]
        if kind == "sharpness":
            rows = results["sharpness"]
            return all(r["pass"] for r in rows), [r["ratio"] for r in rows]
        if kind == "bound":
            reps = results["bounds"]
            return all(r["holds"] for r in reps), [r["ratio"] for r in reps]
        spec = jsonio.loads_document(text)
        fs = spec.functions
        if kind == "sweep":
            rows = results["sweep"]
            ok = all(_within(err, bound) for _, bound, err in rows)
            return ok, [x for row in rows for x in row[1:]]
        if kind == "quad":
            q = results["quadrature"]
            exact = stieltjes.rs_product_integral([fs["f"], fs["g"]],
                                                  fs["u"]).value
            return (_within(abs(exact - q["value"]), q["tight_bound"]),
                    [q["value"], q["tight_bound"]])
        if kind == "integrate":
            got = results["integral"]["value"]
            want = stieltjes.rs_integral(fs["f"], fs["u"]).value
            return got == want, [got]
        if kind == "cheby":
            got = results["functional"]["value"]
            want = functionals.cheby_T(fs["f"], fs["g"], fs["u"]).value
            return got == want, [got]
        got = results["functional"]["value"]
        residual = results["identity_residual"]
        want = functionals.functional_D(fs["f"], fs["u"]).value
        want_res = functionals.identity_residual_D(fs["f"], fs["u"])
        ok = got == want and residual == want_res and math.isfinite(residual)
        return ok, [got, residual]


WORKLOADS = {"battery": Battery, "quad_adaptive": QuadAdaptive,
             "cli_mix": CliMix}

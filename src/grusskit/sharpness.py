"""Executable catalogue of extremal witnesses.

Each witness is a concrete (f, g, u) triple on a parametric interval that
drives one bound operation to its sharp constant: the reported tightness
ratio must equal the expected value (1 for every attained constant).  The
constructions are affine in the interval, so ratios are interval-invariant.

The bounded-variation witness for the monotone-integrator bound uses a
steep continuous ramp against a pure endpoint step: the constant 1 is only
approached within the class where the Stieltjes integral exists, and the
ramp realises it to 5e-11.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .bounds import (BoundReport, bound_D_monotone_K, bound_D_monotone_Q,
                     bound_T_bv, bound_T_holder_bv, bound_T_holder_lipschitz,
                     bound_T_holder_monotone, bound_T_lipschitz_u,
                     bound_T_monotone)
from .errors import UnknownWitness
from .funcrep import PiecewiseFunction, RegularityCertificate
from .quadrature import (Partition, composite_S, remainder_bound_osc)
from .stieltjes import rs_product_integral

RAMP_FRACTION = 1e-10  # width of the near-extremal ramp, relative to b - a


@dataclass(frozen=True)
class Witness:
    id: str
    theorem_id: str
    interval: tuple[float, float]
    f: PiecewiseFunction
    g: PiecewiseFunction | None
    u: PiecewiseFunction
    certificates: tuple[tuple[str, RegularityCertificate], ...]
    expected_ratio: float
    evaluate: Callable[["Witness"], BoundReport]

    def cert(self, slot: str) -> RegularityCertificate:
        for name, c in self.certificates:
            if name == slot:
                return c
        raise KeyError(slot)


def _identity(a: float, b: float) -> PiecewiseFunction:
    return PiecewiseFunction.from_coeffs((0.0, 1.0), a, b)


def _endpoint_jump(a: float, b: float) -> PiecewiseFunction:
    return PiecewiseFunction.endpoint_step(a, b, -1.0, 0.0, 1.0)


def _pm_step(a: float, b: float) -> PiecewiseFunction:
    m0 = 0.5 * (a + b)
    return PiecewiseFunction.step(a, b, m0, -1.0, 1.0, value=-1.0)


def _centred_line(a: float, b: float) -> PiecewiseFunction:
    m0 = 0.5 * (a + b)
    return PiecewiseFunction.from_coeffs((-m0, 1.0), a, b)


def _step_at_right_end(a: float, b: float) -> PiecewiseFunction:
    return PiecewiseFunction((a, b), ((0.0,),), (0.0, 1.0))


def _endpoint_ramp(a: float, b: float) -> PiecewiseFunction:
    """0 on [a, b - eps], then a steep linear climb near 1 at b; continuous
    with total variation within rounding of 1.

    The ramp width is the power of two at or below RAMP_FRACTION * (b - a),
    so c1 = 1/eps and the products knee * c1 and c1 * t are exact and the
    intercept -knee * c1 cancels exactly at the knee; the top value is
    whatever the float climb reaches, and the certificate below uses the
    computed variation.
    """
    eps = 2.0 ** math.floor(math.log2(RAMP_FRACTION * (b - a)))
    knee = b - eps
    c1 = 1.0 / eps
    return PiecewiseFunction.build((a, knee, b), ((0.0,), (-knee * c1, c1)))


def _ratio_vs(report: BoundReport, label: str) -> float:
    rhs = report.tier(label)
    return report.lhs / rhs if rhs > 0 else 0.0


def _make_catalogue() -> dict[str, Callable[[float, float], Witness]]:
    cat: dict[str, Callable[[float, float], Witness]] = {}

    def thm_2_1a(a, b):
        f = _identity(a, b)
        cb = RegularityCertificate.bounds(a, b)
        return Witness("thm_2_1a", "thm_2_1a", (a, b), f, f,
                       _endpoint_jump(a, b), (("f", cb),), 1.0,
                       lambda w: bound_T_bv(w.f, w.g, w.u, w.cert("f")))
    cat["thm_2_1a"] = thm_2_1a

    def thm_2_2(a, b):
        f = _identity(a, b)
        cb = RegularityCertificate.bounds(a, b)
        return Witness("thm_2_2", "thm_2_2", (a, b), f, f,
                       _endpoint_jump(a, b), (("f", cb),), 1.0,
                       lambda w: bound_T_monotone(w.f, w.g, w.u, w.cert("f")))
    cat["thm_2_2"] = thm_2_2

    def thm_2_3a(a, b):
        f = _pm_step(a, b)
        certs = (("f", RegularityCertificate.bounds(-1.0, 1.0)),
                 ("u", RegularityCertificate.lipschitz(1.0)))
        return Witness("thm_2_3a", "thm_2_3a", (a, b), f, f,
                       _identity(a, b), certs, 1.0,
                       lambda w: bound_T_lipschitz_u(w.f, w.g, w.u,
                                                     w.cert("f"),
                                                     w.cert("u")))
    cat["thm_2_3a"] = thm_2_3a

    def cor_2_2(a, b):
        f = _identity(a, b)
        ch = RegularityCertificate.holder(1.0, 1.0)
        return Witness("cor_2_2", "cor_2_2", (a, b), f, f,
                       _endpoint_jump(a, b), (("f", ch),), 1.0,
                       lambda w: bound_T_holder_bv(w.f, w.g, w.u,
                                                   w.cert("f")))
    cat["cor_2_2"] = cor_2_2

    def cor_2_4(a, b):
        f = _identity(a, b)
        ch = RegularityCertificate.holder(1.0, 1.0)
        return Witness("cor_2_4", "cor_2_4", (a, b), f, f,
                       _endpoint_jump(a, b), (("f", ch),), 1.0,
                       lambda w: bound_T_holder_monotone(w.f, w.g, w.u,
                                                         w.cert("f")))
    cat["cor_2_4"] = cor_2_4

    def cor_2_6(a, b):
        f = _centred_line(a, b)
        certs = (("f", RegularityCertificate.holder(1.0, 1.0)),
                 ("u", RegularityCertificate.lipschitz(1.0)))
        return Witness("cor_2_6", "cor_2_6", (a, b), f, _pm_step(a, b),
                       _identity(a, b), certs, 1.0,
                       lambda w: bound_T_holder_lipschitz(w.f, w.g, w.u,
                                                          w.cert("f"),
                                                          w.cert("u"), p=2.0))
    cat["cor_2_6"] = cor_2_6

    def thm_b_1(a, b):
        f = _centred_line(a, b)
        cl = RegularityCertificate.lipschitz(1.0)
        return Witness("thm_b_1", "thm_b_1", (a, b), f, None,
                       _step_at_right_end(a, b), (("f", cl),), 1.0,
                       lambda w: bound_D_monotone_K(w.f, w.u, w.cert("f")))
    cat["thm_b_1"] = thm_b_1

    def thm_b_2(a, b):
        f = _endpoint_ramp(a, b)
        from .funcrep import total_variation
        cv = RegularityCertificate.bounded_variation(total_variation(f).hi)
        return Witness("thm_b_2", "thm_b_2", (a, b), f, None,
                       _step_at_right_end(a, b), (("f", cv),), 1.0,
                       lambda w: bound_D_monotone_Q(w.f, w.u, w.cert("f")))
    cat["thm_b_2"] = thm_b_2

    def thm_3_2a(a, b):
        f = _identity(a, b)

        def run(w: Witness) -> BoundReport:
            part = Partition((a, b))
            exact = rs_product_integral([w.f, w.g], w.u).value
            approx = composite_S(w.f, w.g, w.u, part)
            rb = remainder_bound_osc(w.f, w.g, w.u, part)
            lhs = abs(exact - approx)
            ratio = lhs / rb.stated if rb.stated > 0 else 0.0
            return BoundReport("thm_3_2a", lhs, rb.stated, ratio,
                               lhs <= rb.stated + 1e-9 * (1.0 + rb.stated),
                               (("f", "continuous"), ("u", "bv(var)")),
                               (("stated", rb.stated), ("tight", rb.tight)))
        return Witness("thm_3_2a", "thm_3_2a", (a, b), f, f,
                       _endpoint_jump(a, b), (), 1.0, run)
    cat["thm_3_2a"] = thm_3_2a

    return cat


_CATALOGUE = _make_catalogue()

WITNESS_IDS = tuple(sorted(_CATALOGUE))


def witness(witness_id: str, a: float = 0.0, b: float = 1.0) -> Witness:
    try:
        builder = _CATALOGUE[witness_id]
    except KeyError:
        raise UnknownWitness(f"no witness registered under {witness_id!r}") \
            from None
    if not (a < b):
        raise UnknownWitness("need a < b")
    return builder(float(a), float(b))


def sharpness_ratio(w: Witness) -> float:
    return w.evaluate(w).ratio


def evaluate_witness(w: Witness) -> BoundReport:
    return w.evaluate(w)


def p_branch_constant_estimate(q: float, a: float = 0.0,
                               b: float = 1.0) -> float:
    """Estimated sharp factor of the L^p branch from the extremal triple:
    lhs * (q+1)^(1/q) |u(b)-u(a)| / (L K (b-a)^(1+1/q) ||g - mean||_p).
    Tends to 1/2 as q -> 1+."""
    if q <= 1.0:
        raise UnknownWitness("q must exceed 1")
    p = q / (q - 1.0)
    w = witness("cor_2_6", a, b)
    rep = bound_T_holder_lipschitz(w.f, w.g, w.u, w.cert("f"), w.cert("u"),
                                   p=p)
    ratio_p = _ratio_vs(rep, "p_norm")
    return 0.5 * ratio_p


def run_catalogue(a: float = 0.0, b: float = 1.0) \
        -> list[tuple[str, str, float, float, bool]]:
    """(id, theorem, ratio, expected, pass) rows for every witness."""
    rows = []
    for wid in WITNESS_IDS:
        w = witness(wid, a, b)
        ratio = sharpness_ratio(w)
        ok = math.isfinite(ratio) and abs(ratio - w.expected_ratio) <= 1e-9
        rows.append((wid, w.theorem_id, ratio, w.expected_ratio, ok))
    return rows

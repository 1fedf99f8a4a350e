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
from dataclasses import dataclass, replace
from typing import Callable

from .bounds import BoundReport
from .errors import UnknownWitness
from .funcrep import PiecewiseFunction, RegularityCertificate, total_variation
from .jsonio import ParsedSpec
from .quadrature import Partition
from .theorems import THEOREMS

RAMP_FRACTION = 1e-10  # width of the near-extremal ramp, relative to b - a


@dataclass(frozen=True)
class Witness:
    """An extremal instance of one registered theorem.  ``p`` is what the
    theorem's evaluator takes besides the functions: the L^p exponent (or
    None), or the Partition for ``thm_3_2a``."""

    id: str
    theorem_id: str
    interval: tuple[float, float]
    f: PiecewiseFunction
    g: PiecewiseFunction | None
    u: PiecewiseFunction
    certificates: tuple[tuple[str, RegularityCertificate], ...]
    expected_ratio: float
    p: float | Partition | None = None

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
    Cert = RegularityCertificate

    def endpoint_jump_t(tid, holder):
        """f = g = t against the pure endpoint-jump integrator, with a
        Lipschitz (Holder r = 1) or a bounds certificate on f."""
        def build(a, b):
            f = _identity(a, b)
            cert = Cert.holder(1.0, 1.0) if holder else Cert.bounds(a, b)
            return Witness(tid, tid, (a, b), f, f, _endpoint_jump(a, b),
                           (("f", cert),), 1.0)
        return build

    def thm_2_3a(a, b):
        f = _pm_step(a, b)
        certs = (("f", Cert.bounds(-1.0, 1.0)), ("u", Cert.lipschitz(1.0)))
        return Witness("thm_2_3a", "thm_2_3a", (a, b), f, f, _identity(a, b),
                       certs, 1.0)

    def cor_2_6(a, b):
        certs = (("f", Cert.holder(1.0, 1.0)), ("u", Cert.lipschitz(1.0)))
        return Witness("cor_2_6", "cor_2_6", (a, b), _centred_line(a, b),
                       _pm_step(a, b), _identity(a, b), certs, 1.0, p=2.0)

    def thm_b_1(a, b):
        return Witness("thm_b_1", "thm_b_1", (a, b), _centred_line(a, b),
                       None, _step_at_right_end(a, b),
                       (("f", Cert.lipschitz(1.0)),), 1.0)

    def thm_b_2(a, b):
        f = _endpoint_ramp(a, b)
        cv = Cert.bounded_variation(total_variation(f).hi)
        return Witness("thm_b_2", "thm_b_2", (a, b), f, None,
                       _step_at_right_end(a, b), (("f", cv),), 1.0)

    def thm_3_2a(a, b):
        f = _identity(a, b)
        return Witness("thm_3_2a", "thm_3_2a", (a, b), f, f,
                       _endpoint_jump(a, b), (), 1.0, p=Partition((a, b)))

    return {
        "thm_2_1a": endpoint_jump_t("thm_2_1a", holder=False),
        "thm_2_2": endpoint_jump_t("thm_2_2", holder=False),
        "thm_2_3a": thm_2_3a,
        "cor_2_2": endpoint_jump_t("cor_2_2", holder=True),
        "cor_2_4": endpoint_jump_t("cor_2_4", holder=True),
        "cor_2_6": cor_2_6,
        "thm_b_1": thm_b_1,
        "thm_b_2": thm_b_2,
        "thm_3_2a": thm_3_2a,
    }


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


def evaluate_witness(w: Witness) -> BoundReport:
    """The witness's report from its theorem's registry evaluator."""
    functions = {slot: fn for slot, fn in (("f", w.f), ("g", w.g), ("u", w.u))
                 if fn is not None}
    certificates: dict[str, list[RegularityCertificate]] = {}
    for slot, cert in w.certificates:
        certificates.setdefault(slot, []).append(cert)
    spec = ParsedSpec(w.interval, functions, certificates)
    return THEOREMS[w.theorem_id].run(spec, w.p)[0]


def sharpness_ratio(w: Witness) -> float:
    return evaluate_witness(w).ratio


def p_branch_constant_estimate(q: float, a: float = 0.0,
                               b: float = 1.0) -> float:
    """Estimated sharp factor of the L^p branch from the extremal triple:
    lhs * (q+1)^(1/q) |u(b)-u(a)| / (L K (b-a)^(1+1/q) ||g - mean||_p).
    Tends to 1/2 as q -> 1+."""
    if q <= 1.0:
        raise UnknownWitness("q must exceed 1")
    p = q / (q - 1.0)
    rep = evaluate_witness(replace(witness("cor_2_6", a, b), p=p))
    return 0.5 * _ratio_vs(rep, "p_norm")


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

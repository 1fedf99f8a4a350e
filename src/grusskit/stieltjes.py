"""Riemann-Stieltjes integrals of piecewise-polynomial pairs.

``rs_integral``, ``rs_product_integral``, ``riemann_integral`` and
``riemann_product_integral`` share one closed-form core: the smooth part is
the piecewise polynomial integral of f * u' (of f alone for dt) and every
jump of the integrator contributes f(t) times the jump.  Every integral
runs over the whole common domain; for a sub-interval [c, d], integrate
the functions restricted by ``PiecewiseFunction.restrict(c, d)``.  Jump
bookkeeping at the domain ends follows the half-jump convention: at the
left end only the (value -> right-limit) half counts, at the right end only
(left-limit -> value), so integrals over adjacent sub-intervals add up.
``_product_core`` takes an optional map of cell antiderivatives, which one
quadrature solve keeps for all its cells; without one it forms each afresh.
``rs_oracle`` is a slow independent check based on midpoint-tagged
Stieltjes sums with the jump part split off exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import poly
from .errors import DomainError, SharedDiscontinuity
from .funcrep import PiecewiseFunction, aligned_pieces

_EPS = 2.220446049250313e-16


@dataclass(frozen=True)
class IntegralResult:
    value: float
    abs_error: float
    method: str  # "closed_form" | "refined" | "oracle"

    def __post_init__(self):
        if self.abs_error < 0:
            raise DomainError("abs_error must be nonnegative")


def _same_domain(f: PiecewiseFunction, u: PiecewiseFunction) -> None:
    if f.domain != u.domain:
        raise DomainError(f"functions live on different intervals "
                          f"{f.domain!r} vs {u.domain!r}")


def _check_shared_jumps(fs: list[PiecewiseFunction],
                        u: PiecewiseFunction) -> None:
    u_disc = set(u.discontinuity_points())
    if not u_disc:
        return
    for f in fs:
        for t in f.discontinuity_points():
            if t in u_disc:
                raise SharedDiscontinuity(t)


def _cell_antiderivative(pcs: list, integrator: bool,
                         products: dict | None) -> tuple:
    """The antiderivative of one aligned cell's integrand: the product of
    the pieces in the list ``pcs``, the last one differentiated (in place)
    when ``integrator``.  With a product map it is looked up there by the
    pieces and formed only on the first miss."""
    if products is not None:
        key = tuple(pcs)
        prim = products.get(key)
        if prim is not None:
            return prim
    if integrator:
        pcs[-1] = poly.pderiv(pcs[-1])
    prim = poly.pinteg(reduce(poly.pmul, pcs))
    if products is not None:
        products[key] = prim
    return prim


def _error_bound(value: float, scale: float, fv_worst: float,
                 slack: float) -> float:
    """The certified error of a closed-form integral ``value`` whose terms
    sum to ``scale`` in magnitude, with jump slack ``slack`` weighted by
    the largest factor value ``fv_worst`` at a jump."""
    return 64.0 * _EPS * (scale + abs(value) + 1.0) + fv_worst * slack


def _piece_integral(f_piece: tuple, u_piece: tuple, lo: float, hi: float,
                    products: dict | None = None) -> float | None:
    """``rs_integral(f, u).value`` for f and u that are each one piece on
    [lo, hi] with no breakpoint there, such as two functions restricted to
    a cell inside a piece of each: the same floats ``_product_core`` forms
    for that one aligned cell, with no jump of u and no slack, and the
    antiderivative from ``products`` as there.  None where
    ``_product_core`` raises: when the value or its error bound is not
    finite."""
    prim = _cell_antiderivative([f_piece, u_piece], True, products)
    term = poly.pvalue(prim, hi) - poly.pvalue(prim, lo)
    value = 0.0 + term
    if math.isfinite(value) and \
            math.isfinite(_error_bound(value, abs(term), 1.0, 0.0)):
        return value
    return None


def _product_core(factors: list[PiecewiseFunction],
                  u: PiecewiseFunction | None,
                  products: dict | None = None) -> IntegralResult:
    """Closed-form integral of (prod factors) du over the domain, or of
    (prod factors) dt when u is None: the product is formed on the
    coefficients of each aligned cell and integrated exactly, and every
    jump of u adds the factors' point values times its mass.  With a
    product map, kept by the caller for integrals against pieces of one
    u, each cell's antiderivative is looked up there by its pieces and
    formed only on the first miss; either way it is evaluated at the cell
    ends exactly as ``poly.pintegrate`` evaluates it.

    Raises DomainError when the value or its error bound is not finite."""
    ref = factors[0] if u is None else u
    for f in factors:
        _same_domain(f, ref)
    if u is not None:
        _check_shared_jumps(factors, u)
    value = 0.0
    scale = 0.0
    for lo, hi, *pcs in aligned_pieces(*factors, *([] if u is None else [u])):
        prim = _cell_antiderivative(pcs, u is not None, products)
        term = poly.pvalue(prim, hi) - poly.pvalue(prim, lo)
        value += term
        scale += abs(term)
    fv_worst = 1.0
    slack = 0.0
    if u is not None:
        for t, mass in u.jump_masses():
            fv = 1.0
            for f in factors:
                fv *= f(t)
            fv_worst = max(fv_worst, abs(fv))
            value += fv * mass
            scale += abs(fv * mass)
        slack = u.jump_slack()
    err = _error_bound(value, scale, fv_worst, slack)
    if not (math.isfinite(value) and math.isfinite(err)):
        raise DomainError(f"integral is not finite (value {value!r}, "
                          f"error {err!r}): the inputs overflow")
    return IntegralResult(value, err, "closed_form")


def rs_integral(f: PiecewiseFunction, u: PiecewiseFunction) -> IntegralResult:
    """Closed-form Riemann-Stieltjes integral of f du over the domain.

    Raises SharedDiscontinuity when f and u jump at the same point, which
    signals that the integral need not exist.
    """
    return _product_core([f], u)


def rs_product_integral(factors: list[PiecewiseFunction],
                        u: PiecewiseFunction) -> IntegralResult:
    """Integral of (f1 * f2 * ...) du without forming the product function."""
    return _product_core(list(factors), u)


def riemann_integral(f: PiecewiseFunction) -> IntegralResult:
    """Exact piecewise antiderivative evaluation of the Riemann integral."""
    return _product_core([f], None)


def riemann_product_integral(
        factors: list[PiecewiseFunction]) -> IntegralResult:
    """Riemann integral of a pointwise product, formed on coefficients."""
    return _product_core(list(factors), None)


def _continuous_part_values(u: PiecewiseFunction,
                            ts: np.ndarray) -> np.ndarray:
    """Values of u minus its accumulated jumps: a continuous function whose
    increments carry exactly the smooth part of du.

    Evaluation uses the right-limit basis (left limit at b), so subtracting
    the running jump total makes the result continuous across breakpoints.
    """
    ts = np.asarray(ts, dtype=float)
    base = u.piece_values(ts)
    cum = np.zeros_like(ts)
    for t, mass in u.jump_masses():
        if t == u.b:
            continue  # base already holds the left limit at b
        cum += np.where(ts >= t, mass, 0.0)
    return base - cum


def rs_oracle(f: PiecewiseFunction, u: PiecewiseFunction,
              n: int = 4096) -> IntegralResult:
    """Independent slow check: midpoint-tagged Stieltjes sum against the
    continuous part of u on a uniform n-grid, plus exact jump terms.  The
    error estimate is the doubling difference |S_2n - S_n|."""
    if n < 1:
        raise DomainError("n must be >= 1")
    _same_domain(f, u)
    _check_shared_jumps([f], u)
    jump_total = 0.0
    for t, mass in u.jump_masses():
        jump_total += f(t) * mass

    def sum_at(m: int) -> float:
        xs = np.linspace(u.a, u.b, m + 1)
        mids = 0.5 * (xs[:-1] + xs[1:])
        fv = f.values_at(mids)
        uc = _continuous_part_values(u, xs)
        return float(np.sum(fv * np.diff(uc))) + jump_total

    s1 = sum_at(n)
    s2 = sum_at(2 * n)
    err = 2.0 * abs(s2 - s1) + 1e-12 * (1.0 + abs(s2))
    return IntegralResult(s2, err, "oracle")

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
``_integral`` is the one loop of the closed form: ``_product_core`` runs
it on the functions' fields and memoized jump tables, and a quadrature
cell on the fields of ``funcrep._view`` and the jump rows of the cell,
with the map of cell antiderivatives that one solve keeps for all its
cells.
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
from .funcrep import PiecewiseFunction, _aligned, _value_at

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


def _check_shared_jumps(factor_tables: list, u_jumps) -> None:
    """Raise SharedDiscontinuity at the first jump row of a factor, in
    factor order, where u has a jump row too, given the factors' jump
    tables and u's jump rows."""
    u_disc = {t for t, *_ in u_jumps}
    for jumps, _ in factor_tables:
        for t, *_ in jumps:
            if t in u_disc:
                raise SharedDiscontinuity(t)


def _cell_antiderivative(pcs: tuple, integrator: bool,
                         products: dict | None) -> tuple:
    """The antiderivative of one aligned cell's integrand: the product of
    the pieces in the tuple ``pcs``, the last one differentiated when
    ``integrator``.  With a product map it is looked up there by the
    pieces and formed only on the first miss."""
    if products is not None:
        prim = products.get(pcs)
        if prim is not None:
            return prim
    factors = pcs[:-1] + (poly.pderiv(pcs[-1]),) if integrator else pcs
    prim = poly.pinteg(reduce(poly.pmul, factors))
    if products is not None:
        products[pcs] = prim
    return prim


def _product_core(factors: list[PiecewiseFunction],
                  u: PiecewiseFunction | None) -> IntegralResult:
    """Closed-form integral of (prod factors) du over the domain, or of
    (prod factors) dt when u is None: ``_integral`` on the functions'
    fields and memoized jump tables.

    Raises SharedDiscontinuity when a factor jumps where u jumps, and
    DomainError when the value or its error bound is not finite."""
    ref = factors[0] if u is None else u
    for f in factors:
        _same_domain(f, ref)
    fns = factors if u is None else [*factors, u]
    value, err = _integral(
        [(f.breakpoints, f.pieces, f.point_values) for f in fns],
        None if u is None else [f._sided_values() for f in fns], None)
    return IntegralResult(value, err, "closed_form")


def _integral(columns: list[tuple], tables: list[tuple] | None,
              products: dict | None) -> tuple[float, float]:
    """(value, error) of the closed-form integral of the product of the
    factors against the last function, u, given the jump tables of all of
    them in ``tables``; or, when ``tables`` is None, of the product of all
    of them dt.  Each function is given by its fields, whose first three
    are its breakpoints, pieces and point values, in ``columns``: the
    whole functions or ``funcrep._view``s of one cell, over their common
    interval.  The one loop of the closed form:

    - the product is formed on the coefficients of each aligned cell and
      integrated exactly; with a product map ``products``, kept by the
      caller for integrals against pieces of one u, each cell's
      antiderivative is looked up there by its pieces and formed only on
      the first miss; either way it is evaluated at the cell ends exactly
      as ``poly.pintegrate`` evaluates it;
    - every jump row of u with nonzero mass adds the factors' point values
      times its mass;
    - a factor with a jump row where u has one raises SharedDiscontinuity,
      which signals that the integral need not exist;
    - the error bound, 64 eps times the terms' magnitude, the value's and
      1, plus u's jump slack weighed by the largest factor value at a
      jump; DomainError is raised when the value or the bound is not
      finite."""
    value = 0.0
    scale = 0.0
    for cell in _aligned(columns):
        prim = _cell_antiderivative(cell[2:], tables is not None, products)
        term = poly.pvalue(prim, cell[1]) - poly.pvalue(prim, cell[0])
        value += term
        scale += abs(term)
    fv_worst = 1.0
    slack = 0.0
    if tables is not None:
        u_jumps, slack = tables[-1]
        for t, left, _, right in u_jumps:
            if right == left:
                continue
            mass = right - left
            fv = 1.0
            for bp, pieces, values, *_ in columns[:-1]:
                fv *= _value_at(bp, pieces, values, t)
            fv_worst = max(fv_worst, abs(fv))
            value += fv * mass
            scale += abs(fv * mass)
        if u_jumps:
            _check_shared_jumps(tables[:-1], u_jumps)
    err = 64.0 * _EPS * (scale + abs(value) + 1.0) + fv_worst * slack
    if not (math.isfinite(value) and math.isfinite(err)):
        raise DomainError(f"integral is not finite (value {value!r}, "
                          f"error {err!r}): the inputs overflow")
    return value, err


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
    _check_shared_jumps([f._sided_values()], u._sided_values()[0])
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

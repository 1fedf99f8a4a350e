"""Riemann-Stieltjes integrals of piecewise-polynomial pairs.

``rs_integral`` evaluates the integral in closed form: the smooth part is
the piecewise polynomial integral of f * u' and every jump of the
integrator contributes f(t) times the jump.  Jump bookkeeping at the window
ends follows the one-sided convention: at c only the (value -> right-limit)
half counts, at d only (left-limit -> value).  ``rs_oracle`` is a slow
independent check based on midpoint-tagged Stieltjes sums with the jump
part split off exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import poly
from .errors import DomainError, SharedDiscontinuity
from .funcrep import PiecewiseFunction, merge_grids

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


def _window(f: PiecewiseFunction, c, d) -> tuple[float, float]:
    a, b = f.domain
    c = a if c is None else float(c)
    d = b if d is None else float(d)
    if not (a <= c < d <= b):
        raise DomainError(f"bad window [{c!r}, {d!r}] inside [{a!r}, {b!r}]")
    return c, d


def _check_shared_jumps(fs: list[PiecewiseFunction],
                        u: PiecewiseFunction) -> None:
    u_disc = set(u.discontinuity_points())
    if not u_disc:
        return
    for f in fs:
        for t in f.discontinuity_points():
            if t in u_disc:
                raise SharedDiscontinuity(t)


def _rs_product_core(factors: list[PiecewiseFunction], u: PiecewiseFunction,
                     c: float | None, d: float | None) -> tuple[float, float]:
    """Closed-form integral of (prod factors) du over [c, d]; returns
    (value, error)."""
    for f in factors:
        _same_domain(f, u)
    c, d = _window(u, c, d)
    rf = [f.restrict(c, d) for f in factors]
    ru = u.restrict(c, d)
    _check_shared_jumps(rf, ru)

    grid = merge_grids(*(f.breakpoints for f in rf), ru.breakpoints)
    value = 0.0
    scale = 0.0
    for i in range(len(grid) - 1):
        lo, hi = grid[i], grid[i + 1]
        mid = 0.5 * (lo + hi)
        prod: tuple[float, ...] = (1.0,)
        for f in rf:
            prod = poly.pmul(prod, f.pieces[f._piece_index(mid)])
        du = poly.pderiv(ru.pieces[ru._piece_index(mid)])
        term = poly.pintegrate(poly.pmul(prod, du), lo, hi)
        value += term
        scale += abs(term)
    fv_worst = 1.0
    for t, mass in ru.jump_masses():
        fv = 1.0
        for f in rf:
            fv *= f(t)
        fv_worst = max(fv_worst, abs(fv))
        value += fv * mass
        scale += abs(fv * mass)
    err = 64.0 * _EPS * (scale + abs(value) + 1.0) \
        + fv_worst * ru.jump_slack()
    return value, err


def rs_integral(f: PiecewiseFunction, u: PiecewiseFunction,
                c: float | None = None, d: float | None = None) -> IntegralResult:
    """Closed-form Riemann-Stieltjes integral of f du over [c, d].

    Raises SharedDiscontinuity when f and u jump at the same point, which
    signals that the integral need not exist.
    """
    value, err = _rs_product_core([f], u, c, d)
    return IntegralResult(value, err, "closed_form")


def rs_product_integral(factors: list[PiecewiseFunction], u: PiecewiseFunction,
                        c: float | None = None,
                        d: float | None = None) -> IntegralResult:
    """Integral of (f1 * f2 * ...) du without forming the product function."""
    value, err = _rs_product_core(list(factors), u, c, d)
    return IntegralResult(value, err, "closed_form")


def riemann_integral(f: PiecewiseFunction, c: float | None = None,
                     d: float | None = None) -> IntegralResult:
    """Exact piecewise antiderivative evaluation of the Riemann integral."""
    c, d = _window(f, c, d)
    g = f.restrict(c, d)
    value = 0.0
    scale = 0.0
    for i, coeffs in enumerate(g.pieces):
        term = poly.pintegrate(coeffs, g.breakpoints[i], g.breakpoints[i + 1])
        value += term
        scale += abs(term)
    err = 64.0 * _EPS * (scale + abs(value) + 1.0)
    return IntegralResult(value, err, "closed_form")


def riemann_product_integral(factors: list[PiecewiseFunction],
                             c: float | None = None,
                             d: float | None = None) -> IntegralResult:
    """Riemann integral of a pointwise product, formed on coefficients."""
    base = factors[0]
    for f in factors[1:]:
        _same_domain(base, f)
    c, d = _window(base, c, d)
    rf = [f.restrict(c, d) for f in factors]
    grid = merge_grids(*(f.breakpoints for f in rf))
    value = 0.0
    scale = 0.0
    for i in range(len(grid) - 1):
        lo, hi = grid[i], grid[i + 1]
        mid = 0.5 * (lo + hi)
        prod: tuple[float, ...] = (1.0,)
        for f in rf:
            prod = poly.pmul(prod, f.pieces[f._piece_index(mid)])
        term = poly.pintegrate(prod, lo, hi)
        value += term
        scale += abs(term)
    err = 64.0 * _EPS * (scale + abs(value) + 1.0)
    return IntegralResult(value, err, "closed_form")


def _continuous_part_values(u: PiecewiseFunction,
                            ts: np.ndarray) -> np.ndarray:
    """Values of u minus its accumulated jumps: a continuous function whose
    increments carry exactly the smooth part of du.

    Evaluation uses the right-limit basis (left limit at b), so subtracting
    the running jump total makes the result continuous across breakpoints.
    """
    from numpy.polynomial import polynomial as nppoly
    ts = np.asarray(ts, dtype=float)
    bp = np.asarray(u.breakpoints)
    idx = np.clip(np.searchsorted(bp, ts, side="right") - 1,
                  0, len(u.pieces) - 1)
    base = np.empty_like(ts)
    for i, coeffs in enumerate(u.pieces):
        m = idx == i
        if m.any():
            base[m] = nppoly.polyval(ts[m], np.asarray(coeffs))
    cum = np.zeros_like(ts)
    for t, mass in u.jump_masses():
        if t == u.b:
            continue  # base already holds the left limit at b
        cum += np.where(ts >= t, mass, 0.0)
    return base - cum


def rs_oracle(f: PiecewiseFunction, u: PiecewiseFunction,
              c: float | None = None, d: float | None = None,
              n: int = 4096) -> IntegralResult:
    """Independent slow check: midpoint-tagged Stieltjes sum against the
    continuous part of u on a uniform n-grid, plus exact jump terms.  The
    error estimate is the doubling difference |S_2n - S_n|."""
    if n < 1:
        raise DomainError("n must be >= 1")
    _same_domain(f, u)
    c, d = _window(u, c, d)
    rf = f.restrict(c, d)
    ru = u.restrict(c, d)
    _check_shared_jumps([rf], ru)
    jump_total = 0.0
    for t, mass in ru.jump_masses():
        jump_total += rf(t) * mass

    def sum_at(m: int) -> float:
        xs = np.linspace(c, d, m + 1)
        mids = 0.5 * (xs[:-1] + xs[1:])
        fv = rf.values_at(mids)
        uc = _continuous_part_values(ru, xs)
        return float(np.sum(fv * np.diff(uc))) + jump_total

    s1 = sum_at(n)
    s2 = sum_at(2 * n)
    err = 2.0 * abs(s2 - s1) + 1e-12 * (1.0 + abs(s2))
    return IntegralResult(s2, err, "oracle")

"""Mean-product functionals for Stieltjes integrals and their kernel forms.

* ``cheby_T(f, g, u)``  -- normalised mean of f*g du minus the product of the
  normalised means.
* ``weighted_Tw(f, g, w)`` -- the weighted variant, realised through the
  integrator u(t) = integral of w from a to t.
* ``functional_D(f, u)`` -- integral of f du minus [u(b)-u(a)] times the
  average of f.
* ``functional_E(f, g, w)`` -- weighted mean of f*g minus weighted mean of g
  times the plain average of f.

The D functional admits three equivalent kernel representations against
df: an affine-interpolation defect ``phi``, its unnormalised sibling
``gamma = (b-a) * phi``, and the divided-difference form
``(t-a)(b-t) * delta``.  ``identity_residual_D`` evaluates all three
independently and reports the worst deviation from D; the
divided-difference form is one ``integrate_against`` pass over the cells
of f and u, reading u by ``values_at`` at every node: its point value at
its breakpoints, its piece elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import poly
from .errors import DegenerateIntegrator, DegenerateWeight, DomainError
from .funcrep import PiecewiseFunction, integrate_against
from .stieltjes import (riemann_integral, riemann_product_integral,
                        rs_integral, rs_product_integral)

_DEGENERACY_FLOOR = 1e-13


@dataclass(frozen=True)
class FunctionalValue:
    value: float
    abs_error: float
    components: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.abs_error < 0:
            raise DomainError("abs_error must be nonnegative")


def integrator_span(u: PiecewiseFunction) -> float:
    """u(b) - u(a); raises when the normalisation would be degenerate."""
    du = u(u.b) - u(u.a)
    scale = max(abs(u(u.b)), abs(u(u.a)), 1.0)
    if du == 0.0 or abs(du) < _DEGENERACY_FLOOR * scale:
        raise DegenerateIntegrator("u(b) == u(a)")
    return du


def cheby_T(f: PiecewiseFunction, g: PiecewiseFunction,
            u: PiecewiseFunction) -> FunctionalValue:
    du = integrator_span(u)
    i_fg = rs_product_integral([f, g], u)
    i_f = rs_integral(f, u)
    i_g = rs_integral(g, u)
    mfg = i_fg.value / du
    mf = i_f.value / du
    mg = i_g.value / du
    value = mfg - mf * mg
    err = (i_fg.abs_error + abs(mf) * i_g.abs_error
           + abs(mg) * i_f.abs_error) / abs(du) + 1e-15 * (1.0 + abs(value))
    return FunctionalValue(value, err,
                           {"mean_fg": mfg, "mean_f": mf, "mean_g": mg})


def _weight_total(w: PiecewiseFunction) -> float:
    """The integral of w dt, which must not vanish (else
    DegenerateWeight)."""
    total = riemann_integral(w).value
    if total == 0.0 or abs(total) < _DEGENERACY_FLOOR:
        raise DegenerateWeight("weight integrates to zero")
    return total


def weighted_Tw(f: PiecewiseFunction, g: PiecewiseFunction,
                w: PiecewiseFunction) -> FunctionalValue:
    total_w = _weight_total(w)
    u = w.antiderivative()
    out = cheby_T(f, g, u)
    comps = dict(out.components)
    comps["weight_total"] = total_w
    return FunctionalValue(out.value, out.abs_error, comps)


def functional_D(f: PiecewiseFunction, u: PiecewiseFunction) -> FunctionalValue:
    i_fu = rs_integral(f, u)
    i_f = riemann_integral(f)
    span = u(u.b) - u(u.a)
    width = f.b - f.a
    value = i_fu.value - span * i_f.value / width
    err = i_fu.abs_error + abs(span) * i_f.abs_error / width \
        + 1e-15 * (1.0 + abs(value))
    return FunctionalValue(value, err,
                           {"stieltjes": i_fu.value,
                            "span": span,
                            "mean_f": i_f.value / width})


def functional_E(f: PiecewiseFunction, g: PiecewiseFunction,
                 w: PiecewiseFunction) -> FunctionalValue:
    W = _weight_total(w)
    i_wfg = riemann_product_integral([w, f, g])
    i_wg = riemann_product_integral([w, g])
    i_f = riemann_integral(f)
    width = f.b - f.a
    value = i_wfg.value / W - (i_wg.value / W) * (i_f.value / width)
    err = (i_wfg.abs_error + i_wg.abs_error + i_f.abs_error) / abs(W) \
        + 1e-15 * (1.0 + abs(value))
    return FunctionalValue(value, err,
                           {"weighted_mean_fg": i_wfg.value / W,
                            "weighted_mean_g": i_wg.value / W,
                            "mean_f": i_f.value / width})


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def kernel_phi(u: PiecewiseFunction, t: float) -> float:
    """Affine-interpolation defect
    ((t-a) u(b) + (b-t) u(a)) / (b-a) - u(t), for t in [a, b): the value
    of ``phi_kernel(u)`` at t."""
    a, b = u.domain
    if not (a <= t < b):
        raise DomainError("phi kernel needs t in [a, b)")
    return phi_kernel(u)(t)


def kernel_gamma(u: PiecewiseFunction, t: float) -> float:
    """(t-a)[u(b) - u(t)] - (b-t)[u(t) - u(a)], for t in [a, b]: the value
    of ``gamma_kernel(u)`` at t."""
    a, b = u.domain
    if not (a <= t <= b):
        raise DomainError("gamma kernel needs t in [a, b]")
    return gamma_kernel(u)(t)


def kernel_delta(u: PiecewiseFunction, t: float) -> float:
    """Divided-difference gap [u; b, t] - [u; t, a], for t in (a, b), from
    point values of u: an independent reference for ``gamma_kernel``."""
    a, b = u.domain
    if not (a < t < b):
        raise DomainError("delta kernel needs t in (a, b)")
    ut = u(t)
    return (u(b) - ut) / (b - t) - (ut - u(a)) / (t - a)


def phi_kernel(u: PiecewiseFunction) -> PiecewiseFunction:
    """phi as a piecewise function (assembled from its own formula)."""
    a, b = u.domain
    width = b - a
    affine = ((-a * u(b) + b * u(a)) / width, (u(b) - u(a)) / width)
    pieces = tuple(poly.psub(affine, c) for c in u.pieces)
    values = tuple(
        poly.pvalue(affine, t) - v for t, v in zip(u.breakpoints,
                                                   u.point_values))
    return PiecewiseFunction(u.breakpoints, pieces, values)


def gamma_kernel(u: PiecewiseFunction) -> PiecewiseFunction:
    """gamma as a piecewise function.  It is also the numerator
    (t-a)(b-t) * delta(t) of the divided-difference form;
    ``_delta_form_numeric`` rebuilds that form from pointwise values of u,
    independently of this assembly."""
    a, b = u.domain
    pieces = []
    for c in u.pieces:
        term1 = poly.pmul((-a, 1.0), poly.psub((u(b),), c))
        term2 = poly.pmul((b, -1.0), poly.psub(c, (u(a),)))
        pieces.append(poly.psub(term1, term2))
    values = tuple((t - a) * (u(b) - v) - (b - t) * (v - u(a))
                   for t, v in zip(u.breakpoints, u.point_values))
    return PiecewiseFunction(u.breakpoints, tuple(pieces), values)


def identity_residual_D(f: PiecewiseFunction,
                        u: PiecewiseFunction) -> float:
    """Worst absolute deviation of the three kernel representations of D
    from its direct evaluation.

    The phi form integrates without a 1/(b-a) prefactor; the gamma and
    divided-difference forms carry it.  The divided-difference route is
    evaluated numerically from pointwise kernel values, making it an
    independent check of the closed-form assembly.
    """
    a, b = u.domain
    width = b - a
    d_val = functional_D(f, u).value

    via_phi = rs_integral(phi_kernel(u), f).value
    via_gamma = rs_integral(gamma_kernel(u), f).value / width

    via_delta = _delta_form_numeric(f, u) / width
    return max(abs(d_val - via_phi), abs(d_val - via_gamma),
               abs(d_val - via_delta))


def _delta_form_numeric(f: PiecewiseFunction, u: PiecewiseFunction) -> float:
    """integral of (t-a)(b-t) delta(t) df(t), via pointwise values of u in
    one ``integrate_against`` pass over the cells of f split at u's
    breakpoints: every node reads ``u.values_at``, so a node that rounds
    onto a breakpoint of u reads u's point value there.  On a cell the
    integrand is a polynomial of degree at most 16 for u and f of degree 8
    at most (``build``'s cap), which one round of the Gauss pair
    integrates exactly (24 points are exact to degree 47 in s, 23 in t);
    more rounds would only chase the rounding of its cancelling terms."""
    a, b = u.domain
    ua, ub = u(a), u(b)

    def weighted_delta(ts: np.ndarray) -> list[np.ndarray]:
        uv = u.values_at(ts)
        return [(ts - a) * (ub - uv) - (b - ts) * (uv - ua)]

    (total,) = integrate_against(weighted_delta, f, u.breakpoints,
                                 max_doublings=0)
    return total

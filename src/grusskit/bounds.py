"""Certified evaluation of every Gruss-type upper bound in the catalogue.

Each operation returns a :class:`BoundReport` with the functional magnitude
(lhs), the bound value (rhs, tightest tier first), the tightness ratio
lhs/rhs and a conservative ``holds`` verdict, all decided by the one rule
``_mk_report``.  Certificates are re-verified against their functions
before use; integrals with |.| factors are split at certified sign changes
so that every bound value is a closed form wherever one exists.
Divided-difference integrals that have no closed form go through one
``funcrep.integrate_against`` pass per bound (``_delta_integrals``: doubled
Gauss panels split at the breakpoints and in-piece roots of the kernel
numerator, every power of |delta| a row of the same rule), whose residual
is discarded: it does not enter the report tolerance.  Every
divided-difference bound builds the kernel numerator ``gamma_kernel(u)``
once and hands it to the norms.  A non-finite lhs or tier raises
DomainError in ``_mk_report``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np
from numpy.polynomial import polynomial as nppoly

from . import poly
from .errors import (BadExponent, CertificateInvalid, ClassMismatch,
                     DegenerateIntegrator, DegenerateWeight, DomainError,
                     GrussKitError, HypothesisFailed, NegativeWeight,
                     NotMonotone)
from .funcrep import (PiecewiseFunction, RegularityCertificate,
                      aligned_pieces, extremum_point, inf_sup_on,
                      integrate_against, p_norm, require_certificate,
                      sign_segments, sup_norm_on, total_variation,
                      verify_certificate)
from .functionals import (_weight_total, cheby_T, functional_D,
                          gamma_kernel, integrator_span, phi_kernel)
from .quadrature import Partition, partition_quadrature
from .stieltjes import (riemann_integral, riemann_product_integral,
                        rs_integral, rs_product_integral)


@dataclass(frozen=True)
class BoundReport:
    theorem_id: str
    lhs: float
    rhs: float
    ratio: float
    holds: bool
    inputs_digest: tuple[tuple[str, str], ...]
    tiers: tuple[tuple[str, float], ...]
    extras: tuple[tuple[str, float], ...] = ()
    lhs_error: float = 0.0

    def tier(self, label: str) -> float:
        for name, value in self.tiers:
            if name == label:
                return value
        raise KeyError(label)

    def extra(self, label: str) -> float:
        for name, value in self.extras:
            if name == label:
                return value
        raise KeyError(label)


def _mk_report(theorem_id: str, lhs: float, lhs_err: float,
               tiers: list[tuple[str, float]],
               digest: list[tuple[str, str]],
               mode: str = "chain",
               extras: tuple[tuple[str, float], ...] = (),
               rhs: float | None = None,
               premise: bool = True) -> BoundReport:
    """The one verdict rule: ``holds`` iff ``premise`` (a hypothesis the
    caller checked) and lhs and the tiers keep their order within
    tol = lhs_err + 1e-9 * max(1, |lhs|, |tiers|).

    mode: 'chain'   tiers must be nondecreasing;
          'fan'     tiers[0] must not exceed any later tier;
          'refine'  no later tier may exceed tiers[0];
          'min'     unordered variants, rhs = smallest.
    rhs defaults to tiers[0] (the smallest in 'min'); ratio = lhs / rhs.
    A non-finite lhs, lhs_err or tier (one that overflowed) decides
    nothing: it raises DomainError."""
    values = [v for _, v in tiers]
    if not all(map(math.isfinite, [lhs, lhs_err, *values])):
        raise DomainError(f"{theorem_id}: non-finite value in lhs {lhs!r}, "
                          f"error {lhs_err!r} or tiers {tiers!r}")
    scale = max([1.0, abs(lhs)] + [abs(v) for v in values])
    tol = lhs_err + 1e-9 * scale
    if rhs is None:
        rhs = min(values) if mode == "min" else values[0]
    order = {"chain": zip(values, values[1:]),
             "fan": ((values[0], v) for v in values[1:]),
             "refine": ((v, values[0]) for v in values[1:]),
             "min": ()}[mode]
    pairs = [(lhs, v) for v in values] + list(order)
    holds = premise and all(x <= y + tol for x, y in pairs)
    ratio = lhs / rhs if rhs > tol else 0.0 if lhs <= tol else math.inf
    return BoundReport(theorem_id, lhs, rhs, ratio, holds,
                       tuple(digest), tuple(tiers), tuple(extras), lhs_err)


# ---------------------------------------------------------------------------
# shared machinery
# ---------------------------------------------------------------------------

def _require_monotone(u: PiecewiseFunction) -> None:
    chk = verify_certificate(u, RegularityCertificate.monotone())
    if not chk.ok:
        raise NotMonotone(f"u is not monotone nondecreasing: {chk.detail}",
                          witness=chk.witness)


def _require_continuous(u: PiecewiseFunction) -> None:
    pts = u.discontinuity_points()
    if pts:
        raise ClassMismatch(f"u must be continuous; jump at {pts[0]!r}")


def _monotone_span(u: PiecewiseFunction) -> float:
    """u(b) - u(a) of a monotone nondecreasing u, which must be positive."""
    _require_monotone(u)
    span = integrator_span(u)
    if span <= 0:
        raise DegenerateIntegrator("need u(b) > u(a)")
    return span


def _conjugate(p: float) -> float:
    """The conjugate exponent q = p/(p-1) of an L^p branch, the one check
    of an exponent: p must be finite and > 1, else BadExponent.  The
    p = 1 and p = inf ends are the branches' own L^1 and sup tiers."""
    if not 1.0 < p < math.inf:
        raise BadExponent(f"p-branch needs a finite p > 1, got {p!r}")
    return p / (p - 1.0)


def _centred(f: PiecewiseFunction, g: PiecewiseFunction,
             u: PiecewiseFunction):
    """(cheby_T(f, g, u), g minus its u-mean) for the T bounds."""
    T = cheby_T(f, g, u)
    return T, g - T.components["mean_g"]


def _weighted_abs_segment(q: tuple[float, ...], r: float, m0: float,
                          x0: float, x1: float) -> float:
    """integral of |t-m0|^r q(t) dt over [x0, x1] lying on one side of m0."""
    d = poly.precenter(q, m0)
    if x0 >= m0:
        s0, s1 = x0 - m0, x1 - m0
        sign_pow = [1.0] * len(d)
    else:
        s0, s1 = m0 - x1, m0 - x0
        sign_pow = [(-1.0) ** j for j in range(len(d))]
    total = 0.0
    for j, dj in enumerate(d):
        e = r + j + 1.0
        total += dj * sign_pow[j] * (s1 ** e - s0 ** e) / e
    return total


def abs_integral(h: PiecewiseFunction, u: PiecewiseFunction | None = None,
                 weight: tuple[float, float] | None = None) -> float:
    """integral of |h| du for monotone nondecreasing u, or of |h| dt when u
    is None; weight = (r, m0) puts |t-m0|^r into the integrand.

    Closed form: each cell is split at the certified sign changes of h (and
    at m0); a segment is then an exact polynomial integral, or an exact
    fractional-power moment of a recentred polynomial.
    """
    segment, splits, weight_at = poly.pintegrate, (), lambda t: 1.0
    if weight is not None:
        r, m0 = weight
        splits = (m0,)

        def segment(q, x0, x1):
            return _weighted_abs_segment(q, r, m0, x0, x1)

        def weight_at(t):
            return abs(t - m0) ** r
    total = 0.0
    for lo, hi, hc, *uc in aligned_pieces(h, *([] if u is None else [u])):
        q = hc if u is None else poly.pmul(hc, poly.pderiv(uc[0]))
        for x0, x1, sgn in sign_segments(hc, lo, hi, splits):
            total += sgn * segment(q, x0, x1)
    if u is not None:
        for t, mass in u.jump_masses():
            total += weight_at(t) * abs(h(t)) * mass
    return total


# -- divided-difference kernel norms ---------------------------------------
# delta(t) = N(t) / ((t-a)(b-t)) with N = gamma_kernel(u) for a continuous u;
# callers check continuity and build N once per bound.

def sup_abs_delta(N: PiecewiseFunction) -> float:
    """sup over (a, b) of |delta| from its numerator N."""
    a, b = N.domain
    dpoly = (-a * b, a + b, -1.0)  # (t-a)(b-t)
    dprime = (a + b, -2.0)
    worst = 0.0
    for lo, hi, c in aligned_pieces(N):
        q = poly.psub(poly.pmul(poly.pderiv(c), dpoly), poly.pmul(c, dprime))
        for t in poly.proots(q, lo, hi) + [lo, hi]:
            if t == a or t == b:
                val = abs(poly.pvalue(poly.pderiv(c), t)) / (b - a)
            else:
                val = abs(poly.pvalue(c, t) / ((t - a) * (b - t)))
            worst = max(worst, val)
    return worst


def _delta_integrals(N: PiecewiseFunction, f: PiecewiseFunction,
                     powers: tuple[float, ...],
                     tol: float = 1e-10) -> list[float]:
    """The integral of |delta|^r df over (a, b) for each r in ``powers``,
    from delta's numerator N, in one ``integrate_against`` pass: its cells
    are split at N's breakpoints (where delta' jumps) and at the roots of
    each piece inside it (where |delta| kinks), so a Gauss panel sees a
    smooth integrand.  On a cell delta is one piece of N over (t-a)(b-t).
    Where a node rounds onto a cell end, and at the jumps of f, it is N's
    piece value there over (t-a)(b-t), and at a and b its one-sided
    limit."""
    a, b = N.domain
    lim_a = poly.pvalue(poly.pderiv(N.pieces[0]), a) / (b - a)
    lim_b = -poly.pvalue(poly.pderiv(N.pieces[-1]), b) / (b - a)
    roots = [t for lo, hi, c in aligned_pieces(N)
             for t in poly.proots(c, lo, hi) if lo < t < hi]

    def rows(ts, c):
        denom = (ts - a) * (b - ts)
        if c is not None:
            delta = nppoly.polyval(ts, c) / denom
        else:
            regular = denom != 0.0
            delta = np.empty_like(ts)
            delta[regular] = N.piece_values(ts[regular]) / denom[regular]
            delta[ts == a] = lim_a
            delta[ts == b] = lim_b
        delta = np.abs(delta)
        return [delta ** r for r in powers]
    return integrate_against(rows, f, N, roots, tol)


# ---------------------------------------------------------------------------
# bounds on the normalised product functional T
# ---------------------------------------------------------------------------

def bound_T_bv(f: PiecewiseFunction, g: PiecewiseFunction,
               u: PiecewiseFunction,
               f_bounds: RegularityCertificate) -> BoundReport:
    """|T| <= (1/2)(M-m) |u(b)-u(a)|^-1 ||g - mean|| * Var(u)."""
    require_certificate(f, f_bounds, "f")
    span = integrator_span(u)
    m, M = f_bounds.params
    T, G = _centred(f, g, u)
    rhs = 0.5 * (M - m) / abs(span) * sup_norm_on(G).hi * total_variation(u).hi
    return _mk_report("thm_2_1a", abs(T.value), T.abs_error,
                      [("bv", rhs)],
                      [("f", f_bounds.describe()), ("u", "bv(var)")])


def bound_T_monotone(f: PiecewiseFunction, g: PiecewiseFunction,
                     u: PiecewiseFunction,
                     f_bounds: RegularityCertificate) -> BoundReport:
    """|T| <= (1/2)(M-m) (u(b)-u(a))^-1 * integral |g - mean| du."""
    require_certificate(f, f_bounds, "f")
    span = _monotone_span(u)
    m, M = f_bounds.params
    T, G = _centred(f, g, u)
    rhs = 0.5 * (M - m) / span * abs_integral(G, u)
    return _mk_report("thm_2_2", abs(T.value), T.abs_error,
                      [("monotone", rhs)],
                      [("f", f_bounds.describe()), ("u", "monotone()")])


def bound_T_lipschitz_u(f: PiecewiseFunction, g: PiecewiseFunction,
                        u: PiecewiseFunction,
                        f_bounds: RegularityCertificate,
                        u_lipschitz: RegularityCertificate) -> BoundReport:
    """|T| <= (1/2) L (M-m) |u(b)-u(a)|^-1 * integral |g - mean| dt."""
    require_certificate(f, f_bounds, "f")
    require_certificate(u, u_lipschitz, "u")
    span = integrator_span(u)
    m, M = f_bounds.params
    (L,) = u_lipschitz.params
    T, G = _centred(f, g, u)
    rhs = 0.5 * L * (M - m) / abs(span) * abs_integral(G)
    return _mk_report("thm_2_3a", abs(T.value), T.abs_error,
                      [("lipschitz_u", rhs)],
                      [("f", f_bounds.describe()),
                       ("u", u_lipschitz.describe())])


def bound_T_holder_bv(f: PiecewiseFunction, g: PiecewiseFunction,
                      u: PiecewiseFunction,
                      f_holder: RegularityCertificate) -> BoundReport:
    """|T| <= H (b-a)^r 2^-r |u(b)-u(a)|^-1 ||g - mean|| * Var(u)."""
    require_certificate(f, f_holder, "f")
    span = integrator_span(u)
    H, r = f_holder.params
    width = f.b - f.a
    T, G = _centred(f, g, u)
    rhs = H * width ** r / (2.0 ** r) / abs(span) \
        * sup_norm_on(G).hi * total_variation(u).hi
    tid = "cor_2_2" if r == 1.0 else "thm_2_1"
    return _mk_report(tid, abs(T.value), T.abs_error,
                      [("holder_bv", rhs)],
                      [("f", f_holder.describe()), ("u", "bv(var)")])


def bound_T_holder_monotone(f: PiecewiseFunction, g: PiecewiseFunction,
                            u: PiecewiseFunction,
                            f_holder: RegularityCertificate) -> BoundReport:
    """Two tiers:
    |T| <= (H/(u(b)-u(a))) integral |t-mid|^r |g - mean| du
        <= (H (b-a)^r / (2^r (u(b)-u(a)))) integral |g - mean| du."""
    require_certificate(f, f_holder, "f")
    span = _monotone_span(u)
    H, r = f_holder.params
    a, b = f.domain
    m0 = 0.5 * (a + b)
    T, G = _centred(f, g, u)
    rhs1 = H / span * abs_integral(G, u, (r, m0))
    rhs2 = H * (b - a) ** r / (2.0 ** r * span) * abs_integral(G, u)
    tid = "cor_2_4" if r == 1.0 else "thm_2_3"
    return _mk_report(tid, abs(T.value), T.abs_error,
                      [("pointwise", rhs1), ("uniform", rhs2)],
                      [("f", f_holder.describe()), ("u", "monotone()")])


def bound_T_holder_lipschitz(f: PiecewiseFunction, g: PiecewiseFunction,
                             u: PiecewiseFunction,
                             f_holder: RegularityCertificate,
                             u_lipschitz: RegularityCertificate,
                             p: float | None = None) -> BoundReport:
    """First tier plus the sup / L^p / L^1 norm branches; the L^p branch
    runs when p is given, and p must be finite and > 1 (``_conjugate``):
    its ends are the sup and L^1 tiers."""
    require_certificate(f, f_holder, "f")
    require_certificate(u, u_lipschitz, "u")
    span = integrator_span(u)
    H, r = f_holder.params
    (K,) = u_lipschitz.params
    a, b = f.domain
    width = b - a
    m0 = 0.5 * (a + b)
    T, G = _centred(f, g, u)
    tier1 = H * K / abs(span) * abs_integral(G, weight=(r, m0))
    tiers = [("pointwise", tier1)]
    sup_g = sup_norm_on(G).hi
    tiers.append(("sup", H * K * width ** (r + 1.0)
                  / (2.0 ** r * (r + 1.0) * abs(span)) * sup_g))
    if p is not None:
        q = _conjugate(p)
        tiers.append(("p_norm", H * K * width ** (r + 1.0 / q)
                      / (2.0 ** r * (q * r + 1.0) ** (1.0 / q) * abs(span))
                      * p_norm(G, p).hi))
    tiers.append(("one_norm", H * K * width ** r / (2.0 ** r * abs(span))
                  * p_norm(G, 1.0).hi))
    tid = "cor_2_6" if r == 1.0 else "thm_2_5"
    return _mk_report(tid, abs(T.value), T.abs_error, tiers,
                      [("f", f_holder.describe()),
                       ("u", u_lipschitz.describe())],
                      mode="fan")


# ---------------------------------------------------------------------------
# weighted wrappers
# ---------------------------------------------------------------------------

# item: (the certificate of f it takes, the class of u = integral of w,
# the unweighted bound it applies to u); the monotone items need w >= 0.
# ``theorems`` samples and evaluates each item from its row.
_WEIGHT_ITEMS = {
    "item1": ("bounds", "bv", bound_T_bv),
    "item2": ("bounds", "monotone", bound_T_monotone),
    "item3": ("bounds", "lipschitz", bound_T_lipschitz_u),
    "item4": ("holder", "bv", bound_T_holder_bv),
    "item5": ("holder", "monotone", bound_T_holder_monotone),
    "item6": ("holder", "lipschitz", bound_T_holder_lipschitz),
}


def _weight_checks(w: PiecewiseFunction, nonneg: bool) -> None:
    """With ``nonneg``, w >= 0 (else NegativeWeight at its minimum); then
    a total integral of w that does not vanish (``_weight_total``) and,
    with ``nonneg``, is positive (else DegenerateWeight)."""
    if nonneg:
        inf_e, _ = inf_sup_on(w)
        if inf_e.lo < -1e-12 * (1.0 + abs(inf_e.lo)):
            raise NegativeWeight(extremum_point(w, want_min=True))
    if _weight_total(w) < 0.0 and nonneg:
        raise DegenerateWeight("weight integrates to zero")


def weighted_bounds(f: PiecewiseFunction, g: PiecewiseFunction,
                    w: PiecewiseFunction, which: str,
                    f_bounds: RegularityCertificate | None = None,
                    f_holder: RegularityCertificate | None = None,
                    p: float | None = None) -> BoundReport:
    """Weighted variants realised through u(t) = integral of w over [a, t],
    one row of ``_WEIGHT_ITEMS`` each: item1/item2/item3 need a bounds
    certificate on f, item4/item5/item6 a Holder certificate, and
    item2/item5 (monotone u) require w >= 0.  Only item6 reads ``p``.
    """
    if which not in _WEIGHT_ITEMS:
        raise DomainError(f"unknown weighted item {which!r}")
    kind, u_class, bound = _WEIGHT_ITEMS[which]
    _weight_checks(w, u_class == "monotone")
    u = w.antiderivative()
    if u_class == "bv":
        var_u = total_variation(u).mid
        abs_w = abs_integral(w)
        if abs(var_u - abs_w) > 1e-9 * (1.0 + abs_w):
            raise GrussKitError("variation of the weight antiderivative "
                                "does not match integral |w|")
    args = [f, g, u, f_bounds if kind == "bounds" else f_holder]
    if u_class == "lipschitz":
        args.append(RegularityCertificate.lipschitz(sup_norm_on(w).hi))
    rep = bound(*args, p=p) if bound is bound_T_holder_lipschitz \
        else bound(*args)
    return replace(rep, theorem_id=which,
                   inputs_digest=rep.inputs_digest + (("w", "weight"),))


# ---------------------------------------------------------------------------
# bounds on the Stieltjes/Riemann mismatch functional D
# ---------------------------------------------------------------------------

def bound_D_prior(f: PiecewiseFunction, u: PiecewiseFunction,
                  f_bounds: RegularityCertificate | None = None,
                  f_lipschitz: RegularityCertificate | None = None,
                  u_lipschitz: RegularityCertificate | None = None) \
        -> list[BoundReport]:
    """|D| <= (1/2) L (M-m)(b-a) for Lipschitz u and bounded f, and
    |D| <= (1/2) K (b-a) Var(u) for Lipschitz f; whichever certificates are
    supplied decide which reports come back."""
    out: list[BoundReport] = []
    width = f.b - f.a
    D = functional_D(f, u)
    if f_bounds is not None and u_lipschitz is not None:
        require_certificate(f, f_bounds, "f")
        require_certificate(u, u_lipschitz, "u")
        m, M = f_bounds.params
        (L,) = u_lipschitz.params
        rhs = 0.5 * L * (M - m) * width
        out.append(_mk_report("thm_a_1", abs(D.value), D.abs_error,
                              [("prior_lipschitz_u", rhs)],
                              [("f", f_bounds.describe()),
                               ("u", u_lipschitz.describe())]))
    if f_lipschitz is not None:
        require_certificate(f, f_lipschitz, "f")
        (K,) = f_lipschitz.params
        rhs = 0.5 * K * width * total_variation(u).hi
        out.append(_mk_report("thm_a_2", abs(D.value), D.abs_error,
                              [("prior_lipschitz_f", rhs)],
                              [("f", f_lipschitz.describe()),
                               ("u", "bv(var)")]))
    if not out:
        raise CertificateInvalid("no applicable certificate supplied")
    return out


def bound_D_kernel(f: PiecewiseFunction, u: PiecewiseFunction,
                   f_class: str,
                   f_lipschitz: RegularityCertificate | None = None) \
        -> BoundReport:
    """Kernel bounds on |D| in the three equivalent forms (phi, gamma,
    weighted divided difference); the smallest is reported as rhs.

    f_class: 'bv' (u continuous), 'lipschitz' (certificate required) or
    'monotone' (u continuous)."""
    width = f.b - f.a
    phi = phi_kernel(u)
    # gamma is also the divided-difference numerator (t-a)(b-t) delta, so
    # the "gamma" and "delta" tiers share one value
    gam = gamma_kernel(u)
    if f_class == "bv":
        _require_continuous(u)
        V = total_variation(f).hi
        phi_tier = sup_norm_on(phi).hi * V
        gam_tier = sup_norm_on(gam).hi / width * V
        tid = "thm_a_6_i"
        digest = [("f", "bv(var)"), ("u", "continuous")]
    elif f_class == "lipschitz":
        if f_lipschitz is None:
            raise ClassMismatch("lipschitz class needs a certificate")
        require_certificate(f, f_lipschitz, "f")
        (L,) = f_lipschitz.params
        phi_tier = L * abs_integral(phi)
        gam_tier = L / width * abs_integral(gam)
        tid = "thm_a_6_ii"
        digest = [("f", f_lipschitz.describe()), ("u", "integrable")]
    elif f_class == "monotone":
        chk = verify_certificate(f, RegularityCertificate.monotone())
        if not chk.ok:
            raise ClassMismatch(f"f is not monotone: {chk.detail}")
        _require_continuous(u)
        phi_tier = abs_integral(phi, f)
        gam_tier = abs_integral(gam, f) / width
        tid = "thm_a_6_iii"
        digest = [("f", "monotone()"), ("u", "continuous")]
    else:
        raise ClassMismatch(f"unknown class {f_class!r}")
    tiers = sorted([("phi", phi_tier), ("gamma", gam_tier),
                    ("delta", gam_tier)], key=lambda kv: kv[1])
    D = functional_D(f, u)
    return _mk_report(tid, abs(D.value), D.abs_error, tiers, digest,
                      mode="min")


def beta_int(x: float, y: float) -> float:
    """Euler beta.  Integer arguments use the exact factorial formula;
    anything else exp(lgamma(x) + lgamma(y) - lgamma(x + y))."""
    if float(x).is_integer() and float(y).is_integer():
        xi, yi = int(x), int(y)
        if xi < 1 or yi < 1:
            raise BadExponent("integer beta needs arguments >= 1")
        return float(Fraction(math.factorial(xi - 1) * math.factorial(yi - 1),
                              math.factorial(xi + yi - 1)))
    if x <= 0 or y <= 0:
        raise BadExponent("beta needs positive arguments")
    return math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y))


def _beta_root(q: float) -> float:
    """B(q+1, q+1)^(1/q): exact for integer q while B is a normal float,
    otherwise in log space, since B underflows as q grows (p -> 1)."""
    if float(q).is_integer():
        beta = beta_int(q + 1.0, q + 1.0)
        if beta >= sys.float_info.min:
            return beta ** (1.0 / q)
    return math.exp((2.0 * math.lgamma(q + 1.0)
                     - math.lgamma(2.0 * q + 2.0)) / q)


def bound_D_corollaries(f: PiecewiseFunction, u: PiecewiseFunction,
                        which: str, p: float | None = None,
                        f_lipschitz: RegularityCertificate | None = None) \
        -> BoundReport:
    """Divided-difference chains for |D|: 'a12' (f of bounded variation),
    'a13' (f Lipschitz, three norm branches), 'a14' (f monotone, integrals
    against df)."""
    a, b = f.domain
    width = b - a
    _require_continuous(u)
    dnum = gamma_kernel(u)
    D = functional_D(f, u)
    if which == "a12":
        V = total_variation(f).hi
        tier1 = sup_norm_on(dnum).hi / width * V
        tier2 = width / 4.0 * sup_abs_delta(dnum) * V
        return _mk_report("cor_a_7", abs(D.value), D.abs_error,
                          [("weighted_sup", tier1), ("plain_sup", tier2)],
                          [("f", "bv(var)"), ("u", "continuous")])
    if which == "a13":
        if f_lipschitz is None:
            raise CertificateInvalid("a13 needs a Lipschitz certificate")
        require_certificate(f, f_lipschitz, "f")
        (L,) = f_lipschitz.params
        tier1 = L / width * abs_integral(dnum)
        tiers = [("weighted_l1", tier1),
                 ("sup", L * width ** 2 / 6.0 * sup_abs_delta(dnum))]
        powers = (1.0,)
        if p is not None:
            q = _conjugate(p)
            powers = (1.0, p)
        ident = PiecewiseFunction.from_coeffs((0.0, 1.0), a, b)
        int_absdelta, *int_deltap = _delta_integrals(dnum, ident, powers,
                                                     tol=1e-11)
        if p is not None:
            tiers.append(("p_norm", L * width ** (1.0 + 1.0 / q)
                          * _beta_root(q)
                          * max(int_deltap[0], 0.0) ** (1.0 / p)))
        tiers.append(("one_norm",
                      L * width / 4.0 * max(int_absdelta, 0.0)))
        return _mk_report("cor_a_8", abs(D.value), D.abs_error, tiers,
                          [("f", f_lipschitz.describe()),
                           ("u", "continuous")], mode="fan")
    if which == "a14":
        chk = verify_certificate(f, RegularityCertificate.monotone())
        if not chk.ok:
            raise CertificateInvalid(f"a14 needs monotone f: {chk.detail}")
        tier1 = abs_integral(dnum, f) / width
        powers = (1.0,)
        if p is not None:
            q = _conjugate(p)
            powers = (1.0, p)
        int_absdelta_df, *int_deltap_df = _delta_integrals(dnum, f, powers)
        tiers = [("weighted", tier1),
                 ("plain", width / 4.0 * int_absdelta_df)]
        if p is not None:
            (int_dq_df,) = integrate_against(
                lambda ts, _: [((ts - a) * (b - ts)) ** q], f)
            tiers.append(("p_norm", int_dq_df ** (1.0 / q)
                          * int_deltap_df[0] ** (1.0 / p) / width))
        dpf = PiecewiseFunction.from_coeffs((-a * b, a + b, -1.0), a, b)
        int_d_df = rs_integral(dpf, f).value
        tiers.append(("sup", sup_abs_delta(dnum) * int_d_df / width))
        return _mk_report("cor_a_9", abs(D.value), D.abs_error, tiers,
                          [("f", "monotone()"), ("u", "continuous")],
                          mode="fan")
    raise DomainError(f"unknown corollary selector {which!r}")


def positivity_check_D(f: PiecewiseFunction,
                       u: PiecewiseFunction) -> BoundReport:
    """Lower-bound chain: D >= (1/(b-a)) |integral of
    (t-a)(b-t)(|[u;b,t]| - |[u;t,a]|) df| >= 0, for monotone nondecreasing f
    and nonnegative divided-difference gap delta.  delta >= 0 is decided on
    its numerator N = gamma_kernel(u) from the exact piece minima and the
    point values, within 1e-10 * (1 + max|N|)."""
    a, b = f.domain
    width = b - a
    chk = verify_certificate(f, RegularityCertificate.monotone())
    if not chk.ok:
        raise HypothesisFailed(chk.witness if chk.witness is not None else a,
                               f"f must be monotone nondecreasing: "
                               f"{chk.detail}")
    N = gamma_kernel(u)
    inf_e, sup_e = inf_sup_on(N)
    if inf_e.lo < -1e-10 * (1.0 + max(abs(inf_e.lo), abs(sup_e.hi))):
        raise HypothesisFailed(extremum_point(N, want_min=True),
                               "divided-difference gap is negative")
    inner = abs(_signed_gap_integral(f, u)) / width
    D = functional_D(f, u)
    return _mk_report("thm_a_11", inner, D.abs_error,
                      [("lower_bound", inner), ("functional", D.value)],
                      [("f", "monotone()"), ("u", "delta>=0")], rhs=D.value)


def _signed_gap_integral(f: PiecewiseFunction, u: PiecewiseFunction) -> float:
    """integral of [(t-a)|u(b)-u(t)| - (b-t)|u(t)-u(a)|] df(t), closed
    form by splitting at the level crossings of u."""
    a, b = u.domain
    ub, ua = u(b), u(a)
    total = 0.0
    for lo, hi, fc, uc in aligned_pieces(f, u):
        dc = poly.pderiv(fc)
        roots = (*poly.proots(poly.psub((ub,), uc), lo, hi),
                 *poly.proots(poly.psub(uc, (ua,)), lo, hi))
        cuts = sorted({lo, hi, *(r for r in roots if lo < r < hi)})
        for x0, x1 in zip(cuts, cuts[1:]):
            mm = 0.5 * (x0 + x1)
            s1 = 1.0 if ub - poly.pvalue(uc, mm) >= 0 else -1.0
            s2 = 1.0 if poly.pvalue(uc, mm) - ua >= 0 else -1.0
            g2 = poly.psub(
                poly.pmul((-a, 1.0), poly.pscale(poly.psub((ub,), uc), s1)),
                poly.pmul((b, -1.0), poly.pscale(poly.psub(uc, (ua,)), s2)))
            total += poly.pintegrate(poly.pmul(g2, dc), x0, x1)
    for t, mass in f.jump_masses():
        ut = u(t)
        val = (t - a) * abs(ub - ut) - (b - t) * abs(ut - ua)
        total += val * mass
    return total


def _corrected_report(theorem_id: str, f: PiecewiseFunction,
                      u: PiecewiseFunction, factor: float, name: str,
                      C: float, f_cert: RegularityCertificate) -> BoundReport:
    """The chain factor * (span - C) <= factor * span on |D| for a
    monotone u with span = u(b) - u(a) and correction C, reported as the
    extra ``name``; a C below zero beyond rounding fails the report."""
    span = u(u.b) - u(u.a)
    D = functional_D(f, u)
    return _mk_report(theorem_id, abs(D.value), D.abs_error,
                      [("corrected", factor * (span - C)),
                       ("plain", factor * span)],
                      [("f", f_cert.describe()), ("u", "monotone()")],
                      extras=((name, C),),
                      premise=C >= -1e-9 * (1.0 + abs(span)))


def bound_D_monotone_K(f: PiecewiseFunction, u: PiecewiseFunction,
                       f_lipschitz: RegularityCertificate) -> BoundReport:
    """|D| <= (1/2) L (b-a) [u(b) - u(a) - K(u)] <= (1/2) L (b-a)
    [u(b) - u(a)], with K(u) the first-moment monotonicity correction."""
    require_certificate(f, f_lipschitz, "f")
    _require_monotone(u)
    (L,) = f_lipschitz.params
    a, b = u.domain
    width = b - a
    m0 = 0.5 * (a + b)
    lever = PiecewiseFunction.from_coeffs((-m0, 1.0), a, b)
    K = 4.0 / width ** 2 * riemann_product_integral([u, lever]).value
    return _corrected_report("thm_b_1", f, u, 0.5 * L * width, "K", K,
                             f_lipschitz)


def bound_D_monotone_Q(f: PiecewiseFunction, u: PiecewiseFunction,
                       f_bv: RegularityCertificate) -> BoundReport:
    """|D| <= [u(b) - u(a) - Q(u)] Var(f) <= [u(b) - u(a)] Var(f), with
    Q(u) the signed-mean monotonicity correction."""
    require_certificate(f, f_bv, "f")
    _require_monotone(u)
    a, b = u.domain
    width = b - a
    m0 = 0.5 * (a + b)
    right = riemann_integral(u.restrict(m0, b)).value
    left = riemann_integral(u.restrict(a, m0)).value
    Q = (right - left) / width
    return _corrected_report("thm_b_2", f, u, total_variation(f).hi, "Q", Q,
                             f_bv)


def bound_quadrature_remainder(f: PiecewiseFunction, g: PiecewiseFunction,
                               u: PiecewiseFunction,
                               partition: Partition) -> BoundReport:
    """|integral of f g du - composite_S| <= the oscillation-form remainder
    estimate; holds also requires the per-cell sum not to exceed it."""
    exact = rs_product_integral([f, g], u)
    res = partition_quadrature(f, g, u, partition)
    return _mk_report("thm_3_2a", abs(exact.value - res.value),
                      exact.abs_error,
                      [("stated", res.remainder_bound),
                       ("tight", res.tight_bound)],
                      [("f", "continuous"), ("g", "continuous")],
                      mode="refine")


def ostrowski_pointwise(f: PiecewiseFunction, x: float, kind: str,
                        cert: RegularityCertificate) -> float:
    """Pointwise deviation bound |f(x) - mean f| for a Lipschitz or
    bounded-variation function."""
    a, b = f.domain
    if not (a <= x <= b):
        raise DomainError("x outside the domain")
    width = b - a
    m0 = 0.5 * (a + b)
    require_certificate(f, cert, "f")
    if kind == "lipschitz":
        if cert.kind != "lipschitz":
            raise CertificateInvalid("kind/certificate mismatch")
        (L,) = cert.params
        return L * (0.25 + ((x - m0) / width) ** 2) * width
    if kind == "bv":
        if cert.kind != "bv":
            raise CertificateInvalid("kind/certificate mismatch")
        V = total_variation(f).hi
        return (0.5 + abs(x - m0) / width) * V
    raise DomainError(f"unknown kind {kind!r}")

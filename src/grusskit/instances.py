"""Seeded random instances of the regularity classes used by the verifier.

Everything is driven by a ``random.Random`` so runs are reproducible from a
single integer seed.  Constructions are valid by design (monotone
integrators come from integrating squares, Lipschitz constants from the
exact sup of |u'|), then re-verified by the bound operations themselves.
"""

from __future__ import annotations

import random

from . import poly
from .funcrep import (PiecewiseFunction, RegularityCertificate,
                      _derivative_ranges, _sup_abs_derivative, inf_sup_on,
                      total_variation)
from .errors import GeneratorExhausted

_MAX_TRIES = 60


def rand_interval(rng: random.Random) -> tuple[float, float]:
    a = rng.uniform(-2.0, 0.5)
    b = a + rng.uniform(0.4, 3.0)
    return a, b


def _rand_breaks(rng: random.Random, a: float, b: float,
                 max_interior: int = 3) -> list[float]:
    k = rng.randint(0, max_interior)
    pts = sorted(rng.uniform(a, b) for _ in range(k))
    out = [a]
    for t in pts:
        if t - out[-1] > 1e-3 * (b - a):
            out.append(t)
    if b - out[-1] <= 1e-3 * (b - a):
        out.pop()
    out.append(b)
    return out


def _rand_poly(rng: random.Random, max_degree: int = 3) -> tuple[float, ...]:
    deg = rng.randint(0, max_degree)
    return tuple(rng.uniform(-2.0, 2.0) for _ in range(deg + 1))


def rand_piecewise(rng: random.Random, a: float, b: float,
                   continuous: bool = False, jumps: bool = True,
                   max_degree: int = 3) -> PiecewiseFunction:
    bp = _rand_breaks(rng, a, b)
    pieces = [_rand_poly(rng, max_degree) for _ in range(len(bp) - 1)]
    if continuous:
        adjusted = [pieces[0]]
        for i in range(1, len(pieces)):
            t = bp[i]
            gap = poly.pvalue(adjusted[-1], t) - poly.pvalue(pieces[i], t)
            adjusted.append(poly.padd(pieces[i], (gap,)))
        return PiecewiseFunction.build(bp, adjusted)
    values = []
    for i, t in enumerate(bp):
        if i == 0:
            base = poly.pvalue(pieces[0], t)
        elif i == len(bp) - 1:
            base = poly.pvalue(pieces[-1], t)
        else:
            base = poly.pvalue(pieces[i - 1 if rng.random() < 0.5 else i], t)
        if jumps and rng.random() < 0.4:
            base += rng.uniform(-1.0, 1.0)
        values.append(base)
    return PiecewiseFunction(tuple(bp), tuple(pieces), tuple(values))


def rand_continuous(rng: random.Random, a: float, b: float,
                    max_degree: int = 3) -> PiecewiseFunction:
    return rand_piecewise(rng, a, b, continuous=True, max_degree=max_degree)


def rand_monotone(rng: random.Random, a: float, b: float,
                  with_jumps: bool = True,
                  avoid: set[float] | None = None) -> PiecewiseFunction:
    """Nondecreasing: integrate squared random linear pieces, then lift the
    values by nonnegative jumps at breakpoints not in ``avoid``."""
    bp = _rand_breaks(rng, a, b)
    rates = [poly.ppow(_rand_poly(rng, 1), 2) for _ in range(len(bp) - 1)]
    base = PiecewiseFunction(tuple(bp), tuple(rates),
                             tuple(0.0 for _ in bp))
    u = base.antiderivative()
    if not with_jumps:
        return u
    return _monotone_with_jumps(rng, u, avoid or set())


def _monotone_with_jumps(rng: random.Random, u: PiecewiseFunction,
                         avoid: set[float]) -> PiecewiseFunction:
    bp = u.breakpoints
    pieces = list(u.pieces)
    values = list(u.point_values)
    cum = 0.0
    out_pieces = []
    out_values = []
    for i, t in enumerate(bp):
        jumpable = t not in avoid and rng.random() < 0.35
        v = values[i] + cum
        if jumpable:
            jump = rng.uniform(0.05, 1.0)
            frac = rng.uniform(0.0, 1.0)
            if i == 0:
                v = values[i] - jump * frac  # u(a) below its right limit
            else:
                v = values[i] + cum + jump * frac
                cum += jump
        out_values.append(v)
        if i < len(pieces):
            out_pieces.append(poly.padd(pieces[i], (cum,)))
    return PiecewiseFunction(bp, tuple(out_pieces), tuple(out_values))


def rand_lipschitz(rng: random.Random, a: float, b: float) \
        -> tuple[PiecewiseFunction, RegularityCertificate]:
    u = rand_continuous(rng, a, b)
    L = _sup_abs_derivative(_derivative_ranges(u))
    return u, RegularityCertificate.lipschitz(L * (1.0 + 1e-9) + 1e-12)


def rand_holder(rng: random.Random, a: float, b: float,
                allow_fractional: bool = True) \
        -> tuple[PiecewiseFunction, RegularityCertificate]:
    """Continuous f with a valid Holder certificate: r = 1 reuses the exact
    Lipschitz constant, r < 1 inflates it by (b-a)^(1-r)."""
    f, lip = rand_lipschitz(rng, a, b)
    if allow_fractional and rng.random() < 0.3:
        r = rng.choice((0.5, 0.75))
        H = lip.params[0] * (b - a) ** (1.0 - r) * (1.0 + 1e-9) + 1e-12
        return f, RegularityCertificate.holder(H, r)
    return f, RegularityCertificate.holder(lip.params[0], 1.0)


def rand_bounds_cert(f: PiecewiseFunction) -> RegularityCertificate:
    inf_e, sup_e = inf_sup_on(f)
    return RegularityCertificate.bounds(inf_e.lo, sup_e.hi)


def rand_bv_cert(f: PiecewiseFunction) -> RegularityCertificate:
    return RegularityCertificate.bounded_variation(total_variation(f).hi)


def rand_nonneg_weight(rng: random.Random, a: float, b: float) \
        -> PiecewiseFunction:
    bp = _rand_breaks(rng, a, b, 2)
    pieces = [poly.ppow(_rand_poly(rng, 1), 2) for _ in range(len(bp) - 1)]
    w = PiecewiseFunction.build(bp, pieces)
    # keep the total mass away from zero
    base = 0.05 + rng.uniform(0.0, 0.3)
    return w + PiecewiseFunction.constant(base, a, b)


def rand_signed_weight(rng: random.Random, a: float, b: float) \
        -> PiecewiseFunction:
    for _ in range(_MAX_TRIES):
        w = rand_continuous(rng, a, b, max_degree=2)
        from .stieltjes import riemann_integral
        if abs(riemann_integral(w).value) > 0.1:
            return w
    raise GeneratorExhausted("could not sample a non-degenerate weight")


def rand_convex(rng: random.Random, a: float, b: float) -> PiecewiseFunction:
    """Convex C1 function: double antiderivative of a nonnegative piecewise
    polynomial plus a random affine part."""
    bp = _rand_breaks(rng, a, b, 2)
    second = [poly.ppow(_rand_poly(rng, 0), 2) for _ in range(len(bp) - 1)]
    curv = PiecewiseFunction(tuple(bp), tuple(second),
                             tuple(0.0 for _ in bp))
    slope = curv.antiderivative()
    u = slope.antiderivative()
    affine = PiecewiseFunction.from_coeffs(
        (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)), a, b)
    return u + affine


def ensure_span(rng: random.Random, make):
    """Resample until |u(b) - u(a)| >= 0.1."""
    for _ in range(_MAX_TRIES):
        u = make()
        if abs(u(u.b) - u(u.a)) >= 0.1:
            return u
    raise GeneratorExhausted("could not sample a non-degenerate integrator")

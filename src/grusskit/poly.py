"""Dense real polynomials as ascending coefficient tuples.

All helpers operate on plain sequences of floats ``(c0, c1, ...)`` meaning
``c0 + c1*t + c2*t**2 + ...``.  Root location is certified: roots are
bracketed by sign changes on monotone segments (segment ends come from the
recursively-located critical points of the derivative), then narrowed by
bisection.  Degrees 1 and 2 use closed forms.  The quadratic closed form
and the sign tests of higher degrees run on the polynomial scaled by a
power of two so that its largest coefficient has unit size
(``_unit_scaled``), which moves no root of a polynomial whose
coefficients stay normal floats, so scaling the input by a huge or tiny
factor does not make them overflow or underflow.

``_derivative_entry`` derives the interval-free part of a piece's critical
points: p' and, when p' has degree <= 2, its raw closed-form roots.  Both
depend only on the coefficients past the constant term, so the entry is
memoised on that tail in a bounded LRU memo (``_ENTRY_MEMO`` entries):
a piece, its restrictions to sub-intervals and its constant shifts share
one entry.  ``pcritical``, ``pminmax_on`` and ``pvariation_on`` read the
entry and apply the interval filters of ``proots`` to it, which gives the
floats a fresh derivation gives.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from functools import lru_cache

Coeffs = Sequence[float]

_ENTRY_MEMO = 256    # derivative entries kept by _tail_entry


def pvalue(c: Coeffs, x: float) -> float:
    acc = 0.0
    for ck in reversed(c):
        acc = acc * x + ck
    return acc


def pderiv(c: Coeffs) -> tuple[float, ...]:
    if len(c) <= 1:
        return (0.0,)
    return tuple(k * ck for k, ck in enumerate(c) if k >= 1)


def pinteg(c: Coeffs) -> tuple[float, ...]:
    """Antiderivative with zero constant term."""
    return (0.0,) + tuple(ck / (k + 1) for k, ck in enumerate(c))


def pintegrate(c: Coeffs, lo: float, hi: float) -> float:
    prim = pinteg(c)
    return pvalue(prim, hi) - pvalue(prim, lo)


def padd(a: Coeffs, b: Coeffs) -> tuple[float, ...]:
    n = max(len(a), len(b))
    return tuple((a[k] if k < len(a) else 0.0) + (b[k] if k < len(b) else 0.0)
                 for k in range(n))


def pneg(a: Coeffs) -> tuple[float, ...]:
    return tuple(-x for x in a)


def psub(a: Coeffs, b: Coeffs) -> tuple[float, ...]:
    return padd(a, pneg(b))


def pscale(a: Coeffs, s: float) -> tuple[float, ...]:
    return tuple(s * x for x in a)


def pmul(a: Coeffs, b: Coeffs) -> tuple[float, ...]:
    out = [0.0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0.0:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return tuple(out)


def ppow(a: Coeffs, n: int) -> tuple[float, ...]:
    out: tuple[float, ...] = (1.0,)
    for _ in range(n):
        out = pmul(out, a)
    return out


def pdivroot(c: Coeffs, r: float) -> tuple[tuple[float, ...], float]:
    """(q, rem) with c(t) = (t - r) q(t) + rem, by synthetic division."""
    q = [0.0] * max(len(c) - 1, 1)
    acc = 0.0
    for k in range(len(c) - 1, 0, -1):
        acc = c[k] + r * acc
        q[k - 1] = acc
    return tuple(q), c[0] + r * acc


def precenter(c: Coeffs, m: float) -> tuple[float, ...]:
    """Coefficients of p(m + s) as a polynomial in s (Taylor shift by
    repeated synthetic division)."""
    a = list(c)
    n = len(a)
    for j in range(n - 1):
        for i in range(n - 2, j - 1, -1):
            a[i] += m * a[i + 1]
    return tuple(a)


def _coeff_scale(c: Coeffs, lo: float, hi: float) -> float:
    bnd = max(1.0, abs(lo), abs(hi))
    s, f = 0.0, 1.0
    for ck in c:
        s += abs(ck) * f
        f *= bnd
    return s + 1e-300


def effective_degree(c: Coeffs) -> int:
    mags = [abs(x) for x in c]
    top = max(mags) if mags else 0.0
    if top == 0.0:
        return -1  # identically zero
    deg = len(c) - 1
    while deg > 0 and mags[deg] <= 1e-13 * top:
        deg -= 1
    return deg


def is_zero_poly(c: Coeffs) -> bool:
    mags = [abs(x) for x in c]
    return max(mags, default=0.0) <= 1e-14


def _bisect_root(c: Coeffs, lo: float, hi: float, vlo: float) -> float:
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        vm = pvalue(c, mid)
        if vm == 0.0:
            return mid
        if (vm > 0) == (vlo > 0):
            lo, vlo = mid, vm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def proots(c: Coeffs, lo: float, hi: float) -> list[float]:
    """Certified real roots of p in [lo, hi], sorted.

    Tangential (even-multiplicity) roots without a sign change may be
    missed; every sign change of p is bracketed, which is exactly what
    splitting |p| and locating extrema require.
    """
    if hi <= lo:
        return []
    deg = effective_degree(c)
    if deg <= 0:
        return []
    ct = tuple(c[:deg + 1])
    if deg <= 2:
        return _window(_closed_roots(ct), lo, hi)
    ct = _unit_scaled(ct)
    ztol = 1e-13 * _coeff_scale(ct, lo, hi)
    crit = proots(pderiv(ct), lo, hi)
    nodes = _dedupe([lo] + crit + [hi], lo, hi)
    roots: list[float] = []
    vals = [pvalue(ct, x) for x in nodes]
    for i in range(len(nodes) - 1):
        x0, x1 = nodes[i], nodes[i + 1]
        v0, v1 = vals[i], vals[i + 1]
        if abs(v0) <= ztol:
            roots.append(x0)
            continue
        if abs(v1) <= ztol:
            continue  # picked up as the next segment's left end
        if (v0 > 0) != (v1 > 0):
            roots.append(_bisect_root(ct, x0, x1, v0))
    if abs(vals[-1]) <= ztol:
        roots.append(nodes[-1])
    return _dedupe(sorted(roots), lo, hi)


def _unit_scaled(ct: tuple[float, ...]) -> tuple[float, ...]:
    """ct times 2**-e, e the ``math.frexp`` exponent of its largest
    magnitude, so the largest coefficient lies in [0.5, 1) and neither the
    quadratic discriminant nor the sign tests of ``proots`` overflow or
    underflow.  A power of two scales every normal float exactly, so the
    roots, and the signs and relative sizes of values, are those of ct."""
    e = math.frexp(max(map(abs, ct)))[1]
    return tuple([math.ldexp(x, -e) for x in ct])


def _closed_roots(ct: tuple[float, ...]) -> tuple[float, ...]:
    """The raw closed-form roots of ``ct``, trimmed to its effective degree
    1 or 2, before any interval filter: (r,) at degree 1, (r1, r2) or ()
    at degree 2, whose discriminant is formed on ``_unit_scaled(ct)``."""
    if len(ct) == 2:
        c0, c1 = ct
        return (-c0 / c1,)
    a0, a1, a2 = _unit_scaled(ct)
    disc = a1 * a1 - 4.0 * a2 * a0
    if disc < 0.0:
        return ()
    sq = math.sqrt(disc)
    if a1 >= 0.0:
        r1 = (-a1 - sq) / (2.0 * a2)
    else:
        r1 = (-a1 + sq) / (2.0 * a2)
    r2 = a0 / (a2 * r1) if r1 != 0.0 else -a1 / a2
    return (r1, r2)


def _window(raw: tuple[float, ...], lo: float, hi: float) -> list[float]:
    """``proots``'s interval filter of ``_closed_roots``: a degree-1 root
    within 1e-12 of [lo, hi] relative to its ends; degree-2 roots within
    an absolute 1e-12 of it, sorted and deduplicated."""
    if hi <= lo or not raw:
        return []
    if len(raw) == 1:
        span = 1e-12 * max(1.0, abs(lo), abs(hi))
        return [r for r in raw if lo - span <= r <= hi + span]
    near = [r for r in raw if lo - 1e-12 <= r <= hi + 1e-12]
    return _dedupe(near, lo, hi) if near else near    # _dedupe sorts


def _dedupe(xs: list[float], lo: float, hi: float) -> list[float]:
    tol = 1e-13 * max(1.0, abs(lo), abs(hi))
    out: list[float] = []
    for x in sorted(xs):
        if not out or x - out[-1] > tol:
            out.append(x)
    return out


def _derivative_entry(c: Coeffs) -> tuple:
    """(p', raw): p' and, when p' has effective degree <= 2, the raw
    closed-form roots of p' as ``proots`` forms them (``()`` when p' is
    constant or has no real root); ``None`` for degree 3 and up, whose
    roots ``proots`` locates per interval.  Nothing here depends on an
    interval or on the constant term, so the memo keys the entry by the
    tail ``c[1:]``, and by the signs of its zeros when it holds one:
    0.0 == -0.0, but the sign of a zero can reach the sign of a root."""
    tail = tuple(c[1:])
    if 0.0 in tail:
        return _tail_entry(tail, tuple(math.copysign(1.0, x) for x in tail))
    return _tail_entry(tail)


@lru_cache(maxsize=_ENTRY_MEMO)
def _tail_entry(tail: tuple, zero_signs: tuple | None = None) -> tuple:
    """``_derivative_entry`` of any piece whose coefficients past the
    constant term are ``tail``; ``zero_signs`` only keys the memo."""
    dc = pderiv((0.0,) + tail)
    deg = effective_degree(dc)
    if deg <= 0:
        return dc, ()
    if deg <= 2:
        return dc, _closed_roots(tuple(dc[:deg + 1]))
    return dc, None


def pcritical(c: Coeffs, lo: float, hi: float) -> list[float]:
    """Sign-change roots of p' strictly inside (lo, hi): the filters of
    ``proots`` applied to the raw roots of ``_derivative_entry(c)``, or
    ``proots(p', lo, hi)`` where it has none, before the strict interior
    test."""
    dc, raw = _derivative_entry(c)
    roots = proots(dc, lo, hi) if raw is None else _window(raw, lo, hi)
    eps = 1e-14 * max(1.0, abs(lo), abs(hi))
    return [x for x in roots if lo + eps < x < hi - eps]


def pminmax_on(c: Coeffs, lo: float, hi: float) -> tuple[float, float]:
    """Exact min/max of p over the closed interval [lo, hi]."""
    vals = _extreme_values(c, lo, hi)
    return min(vals), max(vals)


def _extreme_values(c: Coeffs, lo: float, hi: float) -> list[float]:
    """p at lo, at hi and at its critical points in (lo, hi), in that
    order: the values whose min and max ``pminmax_on`` returns."""
    return [pvalue(c, x) for x in [lo, hi] + pcritical(c, lo, hi)]


def pvariation_on(c: Coeffs, lo: float, hi: float) -> float:
    """Total variation of p over [lo, hi]: sum of |increments| between
    consecutive extrema."""
    nodes = [lo] + pcritical(c, lo, hi) + [hi]
    total = 0.0
    prev = pvalue(c, nodes[0])
    for x in nodes[1:]:
        cur = pvalue(c, x)
        total += abs(cur - prev)
        prev = cur
    return total

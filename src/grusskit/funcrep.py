"""Piecewise-polynomial functions with jump data and regularity checks.

A :class:`PiecewiseFunction` stores strictly increasing breakpoints
``t0 = a < t1 < ... < tk = b``, one polynomial per open interval
``(t_i, t_{i+1})`` and an explicit value at every breakpoint.  Point values
may differ from the one-sided limits, which is how pure-jump integrators are
represented.

Regularity quantities (sup norm, total variation, p-norms, inf/sup) are
computed over the whole domain from closed forms on the pieces plus the
jump data, and are returned as tight :class:`Enclosure` intervals; for a
sub-interval [c, d], take them of ``f.restrict(c, d)``.  The critical
points behind them come from ``poly``'s derivative memo, which a function
and its restrictions share through their coefficients.
``integrate_against`` is the one numeric integral against df: one pass
over the cells, with one doubled Gauss rule per cell for several integrand
rows (nodes and f' formed once per level, a stop test per row; a row may
read a second function as its one piece on the cell, and falls back to
the whole function where a node rounds onto a cell end), plus exact jump
terms.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as nppoly

from . import poly
from .errors import CertificateInvalid, DomainError, MalformedCertificate

MAX_DEGREE = 8          # public constructor cap; catalogue witnesses use <= 2
_HARD_DEGREE = 40       # structural cap for internally formed products
_EPS = 2.220446049250313e-16
_HOLDER_GRID = 512      # points per piece of the sampled r < 1 Holder check
_P_GRADED = 2.0 ** 20   # largest p whose graded p-norm integral is trusted

Side = str  # "left" | "at" | "right"


@dataclass(frozen=True)
class Enclosure:
    """A certified interval [lo, hi] containing a computed quantity."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (self.lo <= self.hi):
            raise DomainError(f"enclosure lo {self.lo!r} > hi {self.hi!r}")

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    @property
    def rad(self) -> float:
        return 0.5 * (self.hi - self.lo)


def _tight(value: float, scale: float = 0.0) -> Enclosure:
    pad = 64.0 * _EPS * (1.0 + abs(value) + abs(scale))
    return Enclosure(value - pad, value + pad)


@dataclass(frozen=True)
class RegularityCertificate:
    """Machine-checkable regularity claim about one function.

    kinds: ``bounds(m, M)``, ``lipschitz(L)``, ``holder(H, r)``,
    ``bv(V)``, ``monotone()``.
    """

    kind: str
    params: tuple[float, ...] = ()

    def __post_init__(self):
        k, p = self.kind, self.params
        if k == "bounds":
            if len(p) != 2 or not (p[0] <= p[1]):
                raise MalformedCertificate(f"bounds needs m <= M, got {p!r}")
        elif k == "lipschitz":
            if len(p) != 1 or not (p[0] >= 0):
                raise MalformedCertificate(f"lipschitz needs L >= 0, got {p!r}")
        elif k == "holder":
            if len(p) != 2 or not (p[0] >= 0) or not (0.0 < p[1] <= 1.0):
                raise MalformedCertificate(
                    f"holder needs H >= 0 and 0 < r <= 1, got {p!r}")
        elif k == "bv":
            if len(p) != 1 or not (p[0] >= 0):
                raise MalformedCertificate(f"bv needs V >= 0, got {p!r}")
        elif k == "monotone":
            if p:
                raise MalformedCertificate("monotone takes no parameters")
        else:
            raise MalformedCertificate(f"unknown certificate kind {k!r}")

    @classmethod
    def bounds(cls, m: float, M: float) -> "RegularityCertificate":
        return cls("bounds", (float(m), float(M)))

    @classmethod
    def lipschitz(cls, L: float) -> "RegularityCertificate":
        return cls("lipschitz", (float(L),))

    @classmethod
    def holder(cls, H: float, r: float) -> "RegularityCertificate":
        return cls("holder", (float(H), float(r)))

    @classmethod
    def bounded_variation(cls, V: float) -> "RegularityCertificate":
        return cls("bv", (float(V),))

    @classmethod
    def monotone(cls) -> "RegularityCertificate":
        return cls("monotone")

    def describe(self) -> str:
        inside = ", ".join(repr(x) for x in self.params)
        return f"{self.kind}({inside})"


@dataclass(frozen=True)
class CertCheck:
    """Outcome of verifying a certificate; carries a witness on failure."""

    ok: bool
    witness: float | None = None
    detail: str = ""


@dataclass(frozen=True)
class PiecewiseFunction:
    """Breakpoints, one coefficient tuple per piece and one point value per
    breakpoint.  The dataclass constructor and ``build`` validate every
    number, and takes only tuples; ``restrict`` takes the trusted path of
    ``_trusted``.  The sided-value table behind the jump queries is built
    once per instance and kept in its ``__dict__``, outside the three
    fields, so equality, hashing, ``repr`` and ``dataclasses.replace``
    never see it.  It is the only thing kept there besides the fields:
    piece derivatives and critical points come from ``poly``'s memo,
    keyed by the coefficients, so restrictions need no table."""

    breakpoints: tuple[float, ...]
    pieces: tuple[tuple[float, ...], ...]
    point_values: tuple[float, ...]

    def __post_init__(self):
        bp = self.breakpoints
        if not (isinstance(bp, tuple) and isinstance(self.pieces, tuple)
                and isinstance(self.point_values, tuple)):
            raise DomainError("breakpoints, pieces and point values must be "
                              "tuples")
        if len(bp) < 2:
            raise DomainError("need at least two breakpoints")
        for x, y in zip(bp, bp[1:]):
            if not (x < y):
                raise DomainError("breakpoints must be strictly increasing")
        if len(self.pieces) != len(bp) - 1:
            raise DomainError("one piece per open interval required")
        if len(self.point_values) != len(bp):
            raise DomainError("one point value per breakpoint required")
        for c in self.pieces:
            if not isinstance(c, tuple):
                raise DomainError("each piece must be a tuple of "
                                  "coefficients")
            if len(c) == 0:
                raise DomainError("empty coefficient list")
            if len(c) - 1 > _HARD_DEGREE:
                raise DomainError("piece degree exceeds the structural cap")
            if not all(math.isfinite(x) for x in c):
                raise DomainError("non-finite coefficient")
        if not all(math.isfinite(v) for v in self.point_values):
            raise DomainError("non-finite point value")

    # -- construction -------------------------------------------------

    @classmethod
    def _trusted(cls, breakpoints, pieces, point_values,
                 new_values=()) -> "PiecewiseFunction":
        """A function assembled from the fields of a validated function,
        built without ``__post_init__``.  Only the numbers the caller formed
        itself are checked: ``new_values`` must be finite, else
        DomainError("non-finite point value"), as the dataclass constructor
        would report them.

        Every other invariant holds by construction, from slices of a
        validated function: breakpoints taken in order from it, between
        new ends that lie strictly outside them, still increase strictly;
        pieces and interior point values are sliced one per open interval
        and one per breakpoint, so the counts still match; a copied
        coefficient tuple is non-empty, finite and within the degree cap
        because it was when it was validated.  Caller: ``restrict`` (new
        end values)."""
        if not all(math.isfinite(v) for v in new_values):
            raise DomainError("non-finite point value")
        f = object.__new__(cls)
        f.__dict__.update(breakpoints=breakpoints, pieces=pieces,
                          point_values=point_values)
        return f

    @classmethod
    def build(cls, breakpoints, pieces, values=None) -> "PiecewiseFunction":
        """Public constructor: enforces the degree <= MAX_DEGREE cap and
        fills missing point values (no ``values``, or None entries in it)
        with the adjacent one-sided limits (right limit at interior points
        and at a, left limit at b)."""
        bp = tuple(float(x) for x in breakpoints)
        pcs = tuple(tuple(float(x) for x in c) for c in pieces)
        for c in pcs:
            if len(c) - 1 > MAX_DEGREE:
                raise DomainError(
                    f"piece degree {len(c) - 1} exceeds cap {MAX_DEGREE}")
        values = [None] * len(bp) if values is None else list(values)
        if len(values) != len(bp):
            raise DomainError("one point value per breakpoint required")
        return cls(bp, pcs, tuple(
            poly.pvalue(pcs[min(i, len(pcs) - 1)], t) if v is None
            else float(v) for i, (t, v) in enumerate(zip(bp, values))))

    @classmethod
    def from_coeffs(cls, coeffs, a: float, b: float) -> "PiecewiseFunction":
        return cls.build((a, b), (tuple(coeffs),))

    @classmethod
    def constant(cls, value: float, a: float, b: float) -> "PiecewiseFunction":
        return cls.build((a, b), ((float(value),),))

    @classmethod
    def step(cls, a: float, b: float, at: float, left: float, right: float,
             value: float | None = None) -> "PiecewiseFunction":
        """Two-level step with a jump at ``at`` (defaults to the left level
        there)."""
        if not (a < at < b):
            raise DomainError("step point must be interior")
        v = left if value is None else value
        return cls((a, at, b), ((float(left),), (float(right),)),
                   (float(left), float(v), float(right)))

    @classmethod
    def endpoint_step(cls, a: float, b: float, left_value: float,
                      interior: float, right_value: float) -> "PiecewiseFunction":
        """Constant ``interior`` on (a, b) with distinct values at the two
        endpoints; the workhorse pure-jump integrator."""
        return cls((a, b), ((float(interior),),),
                   (float(left_value), float(right_value)))

    # -- basic queries ------------------------------------------------

    @property
    def a(self) -> float:
        return self.breakpoints[0]

    @property
    def b(self) -> float:
        return self.breakpoints[-1]

    @property
    def domain(self) -> tuple[float, float]:
        return (self.breakpoints[0], self.breakpoints[-1])

    def _piece_index(self, t: float, prefer_left: bool = False) -> int:
        """The piece holding t in [a, b]: at a breakpoint the one to its
        right (the last at b), or with ``prefer_left`` the one to its left
        (the first at a)."""
        bp = self.breakpoints
        i = (bisect_left if prefer_left else bisect_right)(bp, t) - 1
        return min(max(i, 0), len(bp) - 2)

    def _bp_index(self, t: float) -> int | None:
        j = bisect_left(self.breakpoints, t)
        if j < len(self.breakpoints) and self.breakpoints[j] == t:
            return j
        return None

    def __call__(self, t: float) -> float:
        return eval_sided(self, t, "at")

    def left_limit(self, t: float) -> float:
        return eval_sided(self, t, "left")

    def right_limit(self, t: float) -> float:
        return eval_sided(self, t, "right")

    # -- algebra -------------------------------------------------------

    def _binary(self, other, op) -> "PiecewiseFunction":
        if isinstance(other, (int, float)):
            other = PiecewiseFunction.constant(float(other), self.a, self.b)
        if other.domain != self.domain:
            raise DomainError("operands live on different intervals")
        cells = aligned_pieces(self, other)
        grid = tuple([cell[0] for cell in cells] + [self.b])
        pcs = tuple([op(ca, cb) for _, _, ca, cb in cells])
        vals = tuple(_scalar_op(op, self(t), other(t)) for t in grid)
        return PiecewiseFunction(grid, pcs, vals)

    def __add__(self, other):
        return self._binary(other, poly.padd)

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        return self._binary(other, poly.psub)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return PiecewiseFunction(
            self.breakpoints,
            tuple(poly.pneg(c) for c in self.pieces),
            tuple(-v for v in self.point_values))

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            s = float(other)
            return PiecewiseFunction(
                self.breakpoints,
                tuple(poly.pscale(c, s) for c in self.pieces),
                tuple(s * v for v in self.point_values))
        return self._binary(other, poly.pmul)

    def __rmul__(self, other):
        return self.__mul__(other)

    # -- structure helpers ----------------------------------------------

    def restrict(self, c: float, d: float) -> "PiecewiseFunction":
        """f on [c, d], the one way to take a sub-interval: the point
        values at c and d are f(c) and f(d), so a jump there counts only
        its inward half (``jump_masses``).

        The result is validated by construction (``_trusted``): it slices
        this function's breakpoints, pieces and point values, and only the
        two new end values are checked; a non-finite one, such as a piece
        whose Horner evaluation overflows at c or d, raises DomainError."""
        if not (self.a <= c < d <= self.b):
            raise DomainError(f"[{c!r}, {d!r}] is not a subinterval of "
                              f"{self.domain!r}")
        if c == self.a and d == self.b:
            return self    # immutable, and equal to what the slicing builds
        # breakpoints first + 1 .. last - 1 lie strictly inside (c, d), and
        # pieces first .. last - 1 cover it; f(c) and f(d) are read as
        # eval_sided(self, ., "at") reads them
        bp, values = self.breakpoints, self.point_values
        first = bisect_right(bp, c) - 1
        last = bisect_left(bp, d)
        at_c = values[first] if bp[first] == c \
            else poly.pvalue(self.pieces[first], c)
        at_d = values[last] if bp[last] == d \
            else poly.pvalue(self.pieces[last - 1], d)
        return PiecewiseFunction._trusted(
            (c,) + bp[first + 1:last] + (d,), self.pieces[first:last],
            (at_c,) + values[first + 1:last] + (at_d,),
            new_values=(at_c, at_d))

    def antiderivative(self) -> "PiecewiseFunction":
        """Continuous F with F(a) = 0 and F' = f off the breakpoints."""
        bp = self.breakpoints
        pcs = []
        vals = [0.0]
        offset = 0.0
        for i, c in enumerate(self.pieces):
            prim = poly.pinteg(c)
            const = offset - poly.pvalue(prim, bp[i])
            piece = poly.padd(prim, (const,))
            pcs.append(piece)
            offset = poly.pvalue(piece, bp[i + 1])
            vals.append(offset)
        return PiecewiseFunction(bp, tuple(pcs), tuple(vals))

    def _sided_values(self) -> tuple[tuple[tuple[float, ...], ...], float]:
        """The jump table (jumps, slack) of ``_sided_table``: built on the
        first call and kept in the instance ``__dict__`` (a plain memo: the
        function is immutable, and two threads that race here store equal
        tables); ``jumps``, ``jump_masses``, ``jump_slack``,
        ``discontinuity_points`` and ``is_continuous`` all read it."""
        table = self.__dict__.get("_sided")
        if table is None:
            table = self.__dict__["_sided"] = _sided_table(self)
        return table

    def jumps(self) -> list[tuple[float, float, float, float]]:
        """All discontinuities as (t, left, value, right); the left slot at a
        and the right slot at b repeat the point value.

        Gaps below 1e-12 of the local scale are treated as rounding noise
        from float-constructed continuous functions, not as jumps.
        """
        return list(self._sided_values()[0])

    def jump_masses(self) -> list[tuple[float, float]]:
        """(t, right - left) for every jump with nonzero mass.  With the
        endpoint slots of ``_sided_table`` this is the half-jump
        convention: right - value at a, value - left at b; inside, the
        point value itself carries no mass."""
        return [(t, right - left) for t, left, _, right
                in self._sided_values()[0] if right != left]

    def jump_slack(self) -> float:
        """Total magnitude of sub-threshold gaps written off as rounding
        noise; a certified-error contribution for variation and integrals."""
        return self._sided_values()[1]

    def discontinuity_points(self) -> list[float]:
        return [t for t, *_ in self._sided_values()[0]]

    def is_continuous(self) -> bool:
        return not self._sided_values()[0]

    def piece_values(self, ts: np.ndarray) -> np.ndarray:
        """Vectorised piece-polynomial evaluation, ignoring point values
        (breakpoints get the right-piece value, b the last piece)."""
        ts = np.asarray(ts, dtype=float)
        if len(self.pieces) == 1:
            return nppoly.polyval(ts, np.asarray(self.pieces[0]))
        bp = np.asarray(self.breakpoints)
        idx = np.clip(np.searchsorted(bp, ts, side="right") - 1,
                      0, len(self.pieces) - 1)
        out = np.empty_like(ts)
        for i, c in enumerate(self.pieces):
            m = idx == i
            if m.any():
                out[m] = nppoly.polyval(ts[m], np.asarray(c))
        return out

    def values_at(self, ts: np.ndarray) -> np.ndarray:
        """Vectorised point ('at') evaluation."""
        ts = np.asarray(ts, dtype=float)
        out = self.piece_values(ts)
        for j, t in enumerate(self.breakpoints):
            m = ts == t
            if m.any():
                out[m] = self.point_values[j]
        return out


def _sided_table(f: PiecewiseFunction) -> tuple[tuple[tuple[float, ...],
                                                      ...], float]:
    """(jumps, slack) from the left limit, value and right limit at every
    breakpoint; the left slot at a and the right slot at b repeat the point
    value.  A breakpoint whose sided values differ by more than
    1e-12 * (1 + their largest magnitude) is a jump row
    (t, left, value, right); the gaps of every other breakpoint are
    rounding noise and add up to ``slack``."""
    bp, pieces, values = f.breakpoints, f.pieces, f.point_values
    last = len(bp) - 1
    jumps = []
    slack = 0.0
    for i, t in enumerate(bp):
        v = values[i]
        left = v if i == 0 else poly.pvalue(pieces[i - 1], t)
        right = v if i == last else poly.pvalue(pieces[i], t)
        tol = 1e-12 * (1.0 + max(abs(left), abs(v), abs(right)))
        if abs(v - left) > tol or abs(right - v) > tol:
            jumps.append((t, left, v, right))
        else:
            slack += abs(v - left) + abs(right - v)
    return tuple(jumps), slack


def _scalar_op(op, x: float, y: float) -> float:
    return poly.pvalue(op((x,), (y,)), 0.0)


def aligned_pieces(*fns: PiecewiseFunction, splits=()) -> list[tuple]:
    """(lo, hi, piece of fns[0], piece of fns[1], ...) for every cell of
    the common refinement of the breakpoints of ``fns`` (which share one
    domain) and the cut points ``splits`` inside that domain.

    Each function's piece index moves forward through its own breakpoints
    with the cells; no lookup at a cell midpoint, which can round onto the
    next breakpoint when the cell is one ulp wide."""
    if splits:
        a, b = fns[0].domain
        splits = [s for s in splits if a < s < b]
    grid = sorted({float(t) for f in fns for t in f.breakpoints}
                  .union(map(float, splits)))
    columns = []
    for f in fns:
        bp, i, column = f.breakpoints, 0, []
        for lo in grid[:-1]:
            while bp[i + 1] <= lo:
                i += 1
            column.append(f.pieces[i])
        columns.append(column)
    return list(zip(grid, grid[1:], *columns))


def sign_segments(c, lo: float, hi: float, splits=()) -> list[tuple]:
    """(x0, x1, sign of c on (x0, x1)) for the segments of [lo, hi] cut at
    the certified roots of c and at the ``splits`` inside (lo, hi); the
    sign is taken at the segment midpoint.  Roots that ``poly.proots``
    reports just outside (lo, hi) are dropped, so every segment lies in
    [lo, hi]."""
    cuts = {lo, hi}
    cuts.update(t for t in (*poly.proots(c, lo, hi), *splits) if lo < t < hi)
    cuts = sorted(cuts)
    return [(x0, x1, 1.0 if poly.pvalue(c, 0.5 * (x0 + x1)) >= 0 else -1.0)
            for x0, x1 in zip(cuts, cuts[1:])]


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def eval_sided(f: PiecewiseFunction, t: float, side: Side) -> float:
    a, b = f.domain
    if not (a <= t <= b):
        raise DomainError(f"t={t!r} outside [{a!r}, {b!r}]")
    if side == "at":
        j = f._bp_index(t)
        if j is not None:
            return f.point_values[j]
        return poly.pvalue(f.pieces[f._piece_index(t)], t)
    if side == "left":
        if t <= a:
            raise DomainError("left limit needs t > a")
        return poly.pvalue(f.pieces[f._piece_index(t, prefer_left=True)], t)
    if side == "right":
        if t >= b:
            raise DomainError("right limit needs t < b")
        return poly.pvalue(f.pieces[f._piece_index(t)], t)
    raise DomainError(f"unknown side {side!r}")


def inf_sup_on(f: PiecewiseFunction) -> tuple[Enclosure, Enclosure]:
    """Certified enclosures of inf and sup of f over its domain, including
    the breakpoint point values."""
    return _inf_sup(f.breakpoints, f.pieces, f.point_values)


def _inf_sup(bp: tuple, pieces: tuple,
             point_values: tuple) -> tuple[Enclosure, Enclosure]:
    """``inf_sup_on`` of the function with these fields."""
    lo = math.inf
    hi = -math.inf
    for x0, x1, coeffs in zip(bp, bp[1:], pieces):
        mn, mx = poly.pminmax_on(coeffs, x0, x1)
        lo = min(lo, mn)
        hi = max(hi, mx)
    for v in point_values:
        lo = min(lo, v)
        hi = max(hi, v)
    scale = max(abs(lo), abs(hi))
    return _tight(lo, scale), _tight(hi, scale)


def sup_norm_on(f: PiecewiseFunction) -> Enclosure:
    return _sup_norm(*inf_sup_on(f))


def _sup_norm(inf_e: Enclosure, sup_e: Enclosure) -> Enclosure:
    """The sup norm enclosure of a function with these inf and sup
    enclosures."""
    value = max(abs(inf_e.mid), abs(sup_e.mid))
    return _tight(value, value)


def total_variation(u: PiecewiseFunction) -> Enclosure:
    """Total variation over the domain: per-piece polynomial variation plus
    both half-jumps (left-limit -> value and value -> right-limit) at every
    breakpoint; at the domain ends the outward half is zero by the
    ``_sided_table`` convention."""
    total = 0.0
    bp = u.breakpoints
    for lo, hi, coeffs in zip(bp, bp[1:], u.pieces):
        total += poly.pvariation_on(coeffs, lo, hi)
    for _, left, v, right in u.jumps():
        total += abs(v - left) + abs(right - v)
    pad = 64.0 * _EPS * (1.0 + total) + u.jump_slack()
    return Enclosure(total - pad, total + pad)


def p_norm(f: PiecewiseFunction, p: float) -> Enclosure:
    """(integral of |f|^p dt)^(1/p) over the domain; p = inf gives the sup
    norm.  Integer p <= 3 is a closed form; other p <= 3 integrates by
    doubled Gauss panels and keeps their residual in the pad.  A larger p
    goes to ``_high_p_norm``."""
    if not p >= 1.0:
        raise DomainError("p must be >= 1 or inf")
    if p == math.inf:
        return sup_norm_on(f)
    if p > 3.0:
        return _high_p_norm(f, p)
    total = err = 0.0
    int_p = float(p).is_integer()
    for lo, hi, coeffs in aligned_pieces(f):
        for x0, x1, sgn in sign_segments(coeffs, lo, hi):
            if int_p:
                powp = poly.ppow(poly.pscale(coeffs, sgn), int(p))
                total += poly.pintegrate(powp, x0, x1)
            else:
                val, e = gauss_integral(lambda ts, cf=np.asarray(coeffs):
                                        np.abs(nppoly.polyval(ts, cf)) ** p,
                                        x0, x1)
                total += val
                err += e
    total = max(total, 0.0)
    value = total ** (1.0 / p)
    pad = err * max(1.0, value) + 64.0 * _EPS * (1.0 + value)
    return Enclosure(max(0.0, value - pad), value + pad)


def _high_p_norm(f: PiecewiseFunction, p: float) -> Enclosure:
    """The p-norm for 3 < p <= _P_GRADED as S * (integral of |f/S|^p)^(1/p)
    with S = sup|f|, so the integrand neither cancels (as the monomial
    powers of a closed form would) nor underflows.  |f/S|^p peaks at the
    extrema of f, which lie at the ends of the segments between the roots
    and critical points of each piece, and narrows like 1/p there; each
    segment is cut into panels halving toward both ends down to about
    1/(2p) of its length, and the Gauss residual widens the root's ends.
    S is the sup over the pieces alone: the integral ignores the point
    values, and one far above the pieces would underflow every panel.
    Above _P_GRADED it returns the enclosure [0, S (b-a)^(1/p)]."""
    sup = _sup_norm(*_inf_sup(f.breakpoints, f.pieces, ()))
    if p > _P_GRADED or sup.mid == 0.0:
        return Enclosure(0.0, sup.hi * (f.b - f.a) ** (1.0 / p))
    s = sup.mid
    levels = math.ceil(math.log2(p)) + 1
    total = err = 0.0
    for lo, hi, coeffs in aligned_pieces(f):
        scaled = np.asarray(coeffs) / s
        for x0, x1, _ in sign_segments(coeffs, lo, hi,
                                       poly.pcritical(coeffs, lo, hi)):
            steps = [(x1 - x0) * 2.0 ** -j for j in range(levels, 0, -1)]
            cuts = sorted({x0, x1, *(x0 + h for h in steps),
                           *(x1 - h for h in steps)})
            for y0, y1 in zip(cuts, cuts[1:]):
                val, e = gauss_integral(
                    lambda ts: np.abs(nppoly.polyval(ts, scaled)) ** p,
                    y0, y1)
                total += val
                err += e
    hi_v = s * (total + err) ** (1.0 / p) * (1.0 + 64.0 * _EPS)
    lo_v = s * max(total - err, 0.0) ** (1.0 / p) * (1.0 - 64.0 * _EPS)
    return Enclosure(lo_v, hi_v)


# ---------------------------------------------------------------------------
# smooth quadrature helper (doubled composite Gauss-Legendre)
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)


def gauss_integral(fun, a: float, b: float, tol: float = 1e-12,
                   max_doublings: int = 14):
    """Integrate a vectorised smooth function over [a, b].

    Returns (value, error_estimate); the estimate is the last inter-level
    difference of the doubled composite rule.  ``fun`` may instead return
    one row per integrand, a (k, n) array at n nodes: each level then
    evaluates the nodes once for all k rows, each row keeps its own stop
    test (so it gets the value a call with that row alone returns), and
    the result is a pair of length-k lists.  An empty [a, b] gives
    (0.0, 0.0) without calling ``fun``.
    """
    if b <= a:
        return 0.0, 0.0

    def composite(panels: int) -> tuple[list[float], bool]:
        edges = np.linspace(a, b, panels + 1)
        half = 0.5 * (edges[1:] - edges[:-1])
        mid = 0.5 * (edges[1:] + edges[:-1])
        ts = mid[:, None] + half[:, None] * _GL_NODES[None, :]
        vals = np.asarray(fun(ts.ravel()))
        hw = half[:, None] * _GL_WEIGHTS[None, :]
        return ([float(np.sum(hw * row.reshape(ts.shape)))
                 for row in vals.reshape(-1, ts.size)], vals.ndim == 1)

    prev, single = composite(1)
    done = [None] * len(prev)
    panels = 2
    for _ in range(max_doublings):
        cur, _ = composite(panels)
        for i, (c, p) in enumerate(zip(cur, prev)):
            diff = abs(c - p)
            if done[i] is None and diff <= tol * max(1.0, abs(c)):
                done[i] = (c, diff + _EPS * abs(c))
        if None not in done:
            break
        prev = cur
        panels *= 2
    out = [d or (p, abs(p) * 1e-9 + tol) for d, p in zip(done, prev)]
    if single:
        return out[0]
    return [v for v, _ in out], [e for _, e in out]


def integrate_against(fun, f: PiecewiseFunction,
                      over: PiecewiseFunction | None = None, splits=(),
                      tol: float = 1e-10) -> list[float]:
    """The integrals against df of the rows of ``fun``, in one pass over
    the cells of ``aligned_pieces(f, over, splits=splits)`` (of f alone
    without ``over``).  ``fun(ts, c)`` returns one row of values at the
    nodes ts per integrand, each continuous on the cell, where c is the
    coefficient array of over's piece on the cell.  Each cell takes one
    doubled Gauss rule (``gauss_integral``): a level forms the nodes, f'
    and ``fun`` once for every row, and each row keeps its own stop test.
    When a node rounds onto an end of its cell (a, b, a breakpoint or a
    split), and at the jumps of f, c is None and ``fun`` falls back to
    evaluating the whole function; without ``over`` it always is.  Every
    jump of f adds fun at the jump times its mass.  Cells narrower than
    1e-14 of the domain and cells on which f is constant are skipped; the
    panel residual is discarded."""
    tiny = 1e-14 * (f.b - f.a)
    fns = (f,) if over is None else (f, over)
    terms = []     # one list of row values per cell and per jump, in order
    for lo, hi, fc, *oc in aligned_pieces(*fns, splits=splits):
        if hi - lo <= tiny:
            continue
        dc = poly.pderiv(fc)
        if poly.is_zero_poly(dc):
            continue

        def rows(ts, lo=lo, hi=hi, dc=np.asarray(dc),
                 c=np.asarray(oc[0]) if oc else None):
            inside = c is not None and lo < ts.min() and ts.max() < hi
            return (np.asarray(fun(ts, c if inside else None))
                    * nppoly.polyval(ts, dc))
        terms.append(gauss_integral(rows, lo, hi, tol=tol)[0])
    for t, mass in f.jump_masses():
        terms.append([float(r[0]) * mass
                      for r in fun(np.array([t]), None)])
    if not terms:      # nothing to add: one evaluation gives the row count
        return [0.0] * len(fun(np.array([f.a]), None))
    totals = [0.0] * len(terms[0])
    for values in terms:
        totals = [x + v for x, v in zip(totals, values)]
    return totals


# ---------------------------------------------------------------------------
# certificate verification
# ---------------------------------------------------------------------------

def _derivative_ranges(f: PiecewiseFunction) -> list[tuple]:
    """(lo, hi, p', min p', max p') for every piece p of f on [lo, hi]."""
    out = []
    for lo, hi, c in aligned_pieces(f):
        dc = poly.pderiv(c)
        out.append((lo, hi, dc, *poly.pminmax_on(dc, lo, hi)))
    return out


def _sup_abs_derivative(ranges: list[tuple],
                        rounding_pad: bool = False) -> float:
    """sup |f'| from ``ranges = _derivative_ranges(f)``; with
    ``rounding_pad`` each piece's value is raised by a bound on the
    rounding error of forming and evaluating its derivative by Horner's
    rule (Higham, ASNA 2nd ed., 5.1)."""
    worst = 0.0
    for lo, hi, dc, mn, mx in ranges:
        pad = 0.0
        if rounding_pad:
            m = max(abs(lo), abs(hi))
            pad = 2.0 * (len(dc) + 1) * _EPS * poly.pvalue(
                [abs(ck) for ck in dc], m)
        worst = max(worst, abs(mn) + pad, abs(mx) + pad)
    return worst


def _monotone_check(f: PiecewiseFunction) -> CertCheck:
    ranges = _derivative_ranges(f)
    tol = 1e-12 * (1.0 + _sup_abs_derivative(ranges))
    for i, (lo, hi, dc, mn, _) in enumerate(ranges):
        if mn < -tol:
            witness = _argmin_poly(dc, lo, hi)
            return CertCheck(False, witness,
                             f"derivative {mn!r} < 0 inside piece {i}")
    vtol = 1e-12 * (1.0 + max(abs(v) for v in f.point_values))
    for t, left, v, right in f.jumps():
        if v < left - vtol or right < v - vtol:
            return CertCheck(False, t, f"downward jump at {t!r}")
    return CertCheck(True)


def _argmin_poly(c, lo: float, hi: float) -> float:
    xs = [lo, hi] + poly.pcritical(c, lo, hi)
    return min(xs, key=lambda x: poly.pvalue(c, x))


def _holder_sample_check(f: PiecewiseFunction, H: float,
                         r: float) -> CertCheck:
    slack = 1e-9 * max(1.0, H)
    samples = []
    for lo, hi, _ in aligned_pieces(f):
        ts = np.linspace(lo, hi, _HOLDER_GRID)
        samples.append((ts, f.values_at(ts)))
    for i in range(len(samples)):
        xi, fi = samples[i]
        for j in range(i, len(samples)):
            xj, fj = samples[j]
            dx = np.abs(xi[:, None] - xj[None, :])
            df = np.abs(fi[:, None] - fj[None, :])
            bad = df > H * dx ** r + slack
            if bad.any():
                k = np.argwhere(bad)[0]
                return CertCheck(False, float(xi[k[0]]),
                                 f"|f(x)-f(y)| > H|x-y|^r at x={xi[k[0]]!r}, "
                                 f"y={xj[k[1]]!r}")
    return CertCheck(True, detail="sampling-sound (grid check, not a proof)")


def _holder_upper_bound(f: PiecewiseFunction, r: float) -> float:
    """Certified upper bound L^r * osc^(1-r) on the r-Holder constant of a
    continuous f, from |f(x)-f(y)| <= min(L|x-y|, osc) with L = sup|f'| and
    osc = sup f - inf f, both rounded up."""
    L = _sup_abs_derivative(_derivative_ranges(f), rounding_pad=True)
    inf_e, sup_e = inf_sup_on(f)
    osc = (sup_e.hi - inf_e.lo) * (1.0 + 2.0 * _EPS)
    return L ** r * osc ** (1.0 - r) * (1.0 + 4.0 * _EPS)


def verify_certificate(f: PiecewiseFunction,
                       cert: RegularityCertificate) -> CertCheck:
    """Check a certificate against its function.

    Bounds / Lipschitz / BV / monotone checks are certified through the
    closed-form piece analysis.  Holder with r < 1 is certified when
    H >= L^r * osc^(1-r), from the Lipschitz constant L = sup|f'| and the
    oscillation osc = sup f - inf f, both rounded up; the pass carries a
    ``detail`` starting with "certified".  Otherwise it falls back to a
    ``_HOLDER_GRID``-point pair grid per piece pair, which is
    sampling-sound only: it can accept an H just below the true constant.
    """
    kind = cert.kind
    if kind == "bounds":
        m, M = cert.params
        inf_e, sup_e = inf_sup_on(f)
        tol = 1e-10 * (1.0 + abs(m) + abs(M))
        if inf_e.lo < m - tol:
            return CertCheck(False, extremum_point(f, want_min=True),
                             f"inf {inf_e.lo!r} < m {m!r}")
        if sup_e.hi > M + tol:
            return CertCheck(False, extremum_point(f, want_min=False),
                             f"sup {sup_e.hi!r} > M {M!r}")
        return CertCheck(True)
    if kind == "lipschitz":
        (L,) = cert.params
        js = f.jumps()
        if js:
            return CertCheck(False, js[0][0], "jump breaks the Lipschitz bound")
        sup_d = _sup_abs_derivative(_derivative_ranges(f))
        if sup_d > L * (1.0 + 1e-10) + 1e-12:
            return CertCheck(False, None, f"sup|f'| = {sup_d!r} > L = {L!r}")
        return CertCheck(True)
    if kind == "holder":
        H, r = cert.params
        js = f.jumps()
        if js:
            return CertCheck(False, js[0][0], "jump breaks continuity")
        if r == 1.0:
            sup_d = _sup_abs_derivative(_derivative_ranges(f))
            if sup_d > H * (1.0 + 1e-10) + 1e-12:
                return CertCheck(False, None,
                                 f"sup|f'| = {sup_d!r} > H = {H!r}")
            return CertCheck(True)
        bound = _holder_upper_bound(f, r)
        if bound <= H:
            return CertCheck(True, detail=f"certified: H >= L^r*osc^(1-r) "
                                          f"= {bound!r}")
        return _holder_sample_check(f, H, r)
    if kind == "bv":
        (V,) = cert.params
        tv = total_variation(f)
        if tv.lo > V + 1e-10 * (1.0 + V):
            return CertCheck(False, None, f"variation {tv.mid!r} > V {V!r}")
        return CertCheck(True)
    if kind == "monotone":
        return _monotone_check(f)
    raise MalformedCertificate(f"unknown certificate kind {kind!r}")


def extremum_point(f: PiecewiseFunction, want_min: bool = True) -> float:
    """A point where f attains (or approaches) its minimum or maximum."""
    best_t = f.a
    best_v = f(f.a)
    cand: list[float] = list(f.breakpoints)
    for lo, hi, c in aligned_pieces(f):
        cand.extend(poly.pcritical(c, lo, hi))
    for t in cand:
        v = f(t)
        if (v < best_v) == want_min and v != best_v:
            best_t, best_v = t, v
    return best_t


def require_certificate(f: PiecewiseFunction, cert: RegularityCertificate,
                        role: str) -> None:
    chk = verify_certificate(f, cert)
    if not chk.ok:
        raise CertificateInvalid(
            f"{role} certificate {cert.describe()} failed: {chk.detail}",
            witness=chk.witness)

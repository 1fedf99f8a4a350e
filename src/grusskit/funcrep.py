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
``gauss_integral`` is the one quadrature rule: each span is split at its
midpoint and each half substituted by t = end + (midpoint - end) s^2, so
that power singularities at the span ends, |t - root|^p and
((t - a)(b - t))^q, become smooth in s; a 24- and a 32-point Gauss-Legendre
rule on each interval of s give a value and, by their gap, an error, and
only the intervals whose gap is too large are bisected.  One call covers
every span and several integrand rows, each row with its own stop test,
relative to its integral of |row|.  ``integrate_against`` is the one
numeric integral against df: one ``gauss_integral`` call over all cells,
whose rows evaluate their functions whole at every node (a node that
rounds onto a cell end reads the piece to its right, the last at b, and
so does f'), plus exact jump terms; ``p_norm`` at non-integer p is one
call over all sign segments, and at p > 3 one call over all graded
panels.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

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


def _padded(value: float, scale: float = 0.0) -> tuple[float, float]:
    """The ends of the tight enclosure of a computed ``value`` whose
    terms reach ``scale`` in magnitude."""
    pad = 64.0 * _EPS * (1.0 + abs(value) + abs(scale))
    return value - pad, value + pad


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
    def _trusted(cls, breakpoints, pieces, point_values) -> "PiecewiseFunction":
        """A function assembled from the fields of a validated function,
        built without ``__post_init__``: the fields of a ``_view``, which
        checks the only two numbers it forms, the end values.

        Every other invariant holds by construction, from slices of a
        validated function: breakpoints taken in order from it, between
        new ends that lie strictly outside them, still increase strictly;
        pieces and interior point values are sliced one per open interval
        and one per breakpoint, so the counts still match; a copied
        coefficient tuple is non-empty, finite and within the degree cap
        because it was when it was validated.  Caller: ``restrict``."""
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
        vals = tuple(poly.pvalue(op((self(t),), (other(t),)), 0.0)
                     for t in grid)
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

        The result is validated by construction (``_trusted``) from the
        fields of ``_view(self, c, d)``, which checks [c, d] and the two
        end values it forms; a non-finite one, such as a piece whose Horner
        evaluation overflows at c or d, raises DomainError."""
        if c == self.a and d == self.b:
            return self    # immutable, and equal to what the slicing builds
        return PiecewiseFunction._trusted(*_view(self, c, d)[:3])

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
            table = self.__dict__["_sided"] = _sided_table(
                self.breakpoints, self.pieces, self.point_values)
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
        """Piece-polynomial values at nodes ts of any shape, ignoring point
        values: a node reads the piece to its right (at a breakpoint), the
        last at b."""
        ts = np.asarray(ts, dtype=float)
        starts = np.asarray(self.breakpoints[:-1])
        return _horner(_coeff_matrix(self.pieces)[_span_lookup(starts, ts)],
                       ts)

    def values_at(self, ts: np.ndarray) -> np.ndarray:
        """Point ('at') values at nodes ts of any shape: ``piece_values``,
        with the point value at every breakpoint."""
        ts = np.asarray(ts, dtype=float)
        out = np.asarray(self.piece_values(ts))    # a 0-d array for a scalar
        for j, t in enumerate(self.breakpoints):
            m = ts == t
            if m.any():
                out[m] = self.point_values[j]
        return out


def _sided_table(bp: tuple, pieces: tuple, values: tuple, lo_bp: bool = True,
                 hi_bp: bool = True) -> tuple[tuple[tuple[float, ...], ...],
                                              float]:
    """(jumps, slack) of the function with these fields, from the left
    limit, value and right limit at every breakpoint; the left slot at the
    first and the right slot at the last repeat the point value.  A
    breakpoint whose sided values differ by more than
    1e-12 * (1 + their largest magnitude) is a jump row
    (t, left, value, right); the gaps of every other breakpoint are
    rounding noise and add up to ``slack``.

    For a ``_view``, ``lo_bp`` and ``hi_bp`` say whether its ends are
    breakpoints of the function; an end that is not one holds the piece's
    own value, whose gaps are exactly 0, so it forms no row, and a view
    of one piece whose ends are neither has no row at all."""
    last = len(bp) - 1
    if last == 1 and not (lo_bp or hi_bp):
        return (), 0.0
    jumps = []
    slack = 0.0
    for i in range(0 if lo_bp else 1, last + 1 if hi_bp else last):
        t, v = bp[i], values[i]
        left = v if i == 0 else poly.pvalue(pieces[i - 1], t)
        right = v if i == last else poly.pvalue(pieces[i], t)
        tol = 1e-12 * (1.0 + max(abs(left), abs(v), abs(right)))
        if abs(v - left) > tol or abs(right - v) > tol:
            jumps.append((t, left, v, right))
        else:
            slack += abs(v - left) + abs(right - v)
    return tuple(jumps), slack


def _view(f: PiecewiseFunction, lo: float, hi: float,
          at_lo: float | None = None, at_hi: float | None = None) -> tuple:
    """What ``f.restrict(lo, hi)`` slices, as plain fields: (breakpoints,
    pieces, point values, whether lo is a breakpoint of f, whether hi is
    one), with no function built.  [lo, hi] must be a subinterval of f's
    domain, else DomainError.  The end values are f(lo) and f(hi), read as
    ``eval_sided(f, ., "at")`` reads them, or ``at_lo`` and ``at_hi`` when
    the caller has them; they are the only numbers formed here, and a
    non-finite one raises DomainError("non-finite point value"), as the
    dataclass constructor would."""
    bp, pieces, values = f.breakpoints, f.pieces, f.point_values
    if not (bp[0] <= lo < hi <= bp[-1]):
        raise DomainError(f"[{lo!r}, {hi!r}] is not a subinterval of "
                          f"{f.domain!r}")
    # breakpoints first + 1 .. last - 1 lie strictly inside (lo, hi), and
    # pieces first .. last - 1 cover it
    first = bisect_right(bp, lo) - 1
    last = first + 1 if hi <= bp[first + 1] else bisect_left(bp, hi)
    lo_bp, hi_bp = bp[first] == lo, bp[last] == hi
    if at_lo is None:
        at_lo = values[first] if lo_bp else poly.pvalue(pieces[first], lo)
    if at_hi is None:
        at_hi = values[last] if hi_bp else poly.pvalue(pieces[last - 1], hi)
    if not (math.isfinite(at_lo) and math.isfinite(at_hi)):
        raise DomainError("non-finite point value")
    if last == first + 1:    # one piece: no concatenation
        return (lo, hi), pieces[first:last], (at_lo, at_hi), lo_bp, hi_bp
    return ((lo,) + bp[first + 1:last] + (hi,), pieces[first:last],
            (at_lo,) + values[first + 1:last] + (at_hi,), lo_bp, hi_bp)


def _value_at(bp: tuple, pieces: tuple, values: tuple, t: float) -> float:
    """The point value at t in [bp[0], bp[-1]] of the function with these
    fields: its point value at a breakpoint, else its piece's value."""
    j = bisect_left(bp, t)
    return values[j] if bp[j] == t else poly.pvalue(pieces[j - 1], t)


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
    return _aligned([(f.breakpoints, f.pieces) for f in fns], splits)


def _aligned(columns: list, splits=()) -> list[tuple]:
    """``aligned_pieces`` of the functions whose breakpoints and pieces are
    the first two fields of each of ``columns``, cut at the ``splits``
    inside their common interval."""
    ends = columns[0][0]
    if not splits and len(ends) == 2:
        for c in columns:
            if c[0] != ends:
                break
        else:    # one piece each, on one interval: the one cell of the grid
            return [(float(ends[0]), float(ends[1]),
                     *[c[1][0] for c in columns])]
    grid = sorted({float(t) for c in columns for t in c[0]}
                  .union(map(float, splits)))
    cells = []
    for bp, pieces, *_ in columns:
        i, column = 0, []
        for lo in grid[:-1]:
            while bp[i + 1] <= lo:
                i += 1
            column.append(pieces[i])
        cells.append(column)
    return list(zip(grid, grid[1:], *cells))


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
        return _value_at(f.breakpoints, f.pieces, f.point_values, t)
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
    inf_ends, sup_ends = _extreme_ends(*_min_max(bp, pieces, point_values))
    return Enclosure(*inf_ends), Enclosure(*sup_ends)


def _min_max(bp: tuple, pieces: tuple,
             point_values: tuple) -> tuple[float, float]:
    """The computed min and max of the function with these fields: of its
    pieces over their closed intervals, then of the point values given.
    The one loop behind ``inf_sup_on`` and a quadrature cell's
    oscillation and centred sup."""
    lo = math.inf
    hi = -math.inf
    for i, coeffs in enumerate(pieces):
        mn, mx = poly.pminmax_on(coeffs, bp[i], bp[i + 1])
        if mn < lo:
            lo = mn
        if mx > hi:
            hi = mx
    for v in point_values:
        if v < lo:
            lo = v
        if v > hi:
            hi = v
    return lo, hi


def _extreme_ends(lo: float, hi: float) -> tuple[tuple[float, float], ...]:
    """The ends of the inf and sup enclosures of a function whose computed
    min and max are lo and hi: both padded at the larger magnitude."""
    scale = max(abs(lo), abs(hi))
    return _padded(lo, scale), _padded(hi, scale)


def sup_norm_on(f: PiecewiseFunction) -> Enclosure:
    return _sup_norm(*inf_sup_on(f))


def _sup_norm(inf_e: Enclosure, sup_e: Enclosure) -> Enclosure:
    """The sup norm enclosure of a function with these inf and sup
    enclosures."""
    return Enclosure(*_norm_ends(inf_e.mid, sup_e.mid))


def _norm_ends(inf_mid: float, sup_mid: float) -> tuple[float, float]:
    """The ends of ``_sup_norm`` of enclosures with these midpoints: the
    larger magnitude, padded at its own scale."""
    value = max(abs(inf_mid), abs(sup_mid))
    return _padded(value, value)


def total_variation(u: PiecewiseFunction) -> Enclosure:
    """Total variation over the domain: per-piece polynomial variation plus
    both half-jumps (left-limit -> value and value -> right-limit) at every
    breakpoint; at the domain ends the outward half is zero by the
    ``_sided_table`` convention."""
    return Enclosure(*_variation(u.breakpoints, u.pieces, u._sided_values()))


def _variation(bp: tuple, pieces: tuple, table: tuple) -> tuple[float, float]:
    """The ends of ``total_variation`` of the function with these
    breakpoints and pieces and this jump table (jumps, slack): the
    pieces' variation, then both half-jumps of every jump row, padded with
    the slack.  The one loop behind ``total_variation`` and a quadrature
    cell's variation of u."""
    total = 0.0
    for i, coeffs in enumerate(pieces):
        total += poly.pvariation_on(coeffs, bp[i], bp[i + 1])
    jumps, slack = table
    for _, left, v, right in jumps:
        total += abs(v - left) + abs(right - v)
    pad = 64.0 * _EPS * (1.0 + total) + slack
    return total - pad, total + pad


def p_norm(f: PiecewiseFunction, p: float) -> Enclosure:
    """(integral of |f|^p dt)^(1/p) over the domain; p = inf gives the sup
    norm, and p > 3 goes to ``_high_p_norm``.  For p <= 3 the integral is
    taken of |f/S|^p, with S the power of two at or below a bound on |f|
    over the pieces (``_centred_bound``), so it neither overflows nor
    underflows, and is scaled back by S: a closed form on the sign
    segments at integer p, otherwise one ``gauss_integral`` call over
    them.  The enclosure's ends are S times the 1/p-th roots of the
    integral plus and minus its error, widened by 64 eps (1 + value) for
    the rounding of the closed forms and the root."""
    if not p >= 1.0:
        raise DomainError("p must be >= 1 or inf")
    if p == math.inf:
        return sup_norm_on(f)
    if p > 3.0:
        return _high_p_norm(f, p)
    bound = _centred_bound(f)
    s = math.ldexp(1.0, math.frexp(bound)[1] - 1) if bound > 0.0 else 1.0
    segments = [(x0, x1, poly.pscale(coeffs, sgn / s))
                for lo, hi, coeffs in aligned_pieces(f)
                for x0, x1, sgn in sign_segments(coeffs, lo, hi)]
    if float(p).is_integer():
        total, err = sum(poly.pintegrate(poly.ppow(c, int(p)), x0, x1)
                         for x0, x1, c in segments), 0.0
    else:
        total, err = _abs_power_integral(segments, p)

    def root(x):
        return s * max(x, 0.0) ** (1.0 / p)
    pad = 64.0 * _EPS * (1.0 + root(total))
    return Enclosure(max(0.0, root(total - err) - pad),
                     root(total + err) + pad)


def _centred_bound(f: PiecewiseFunction) -> float:
    """An upper bound on |f| over its pieces: on each piece, the sum of
    |c_k| r^k over the coefficients c_k about its centre, r its
    half-width."""
    worst = 0.0
    for lo, hi, c in aligned_pieces(f):
        centred = poly.precenter(c, 0.5 * lo + 0.5 * hi)
        worst = max(worst, poly.pvalue([abs(x) for x in centred],
                                       0.5 * hi - 0.5 * lo))
    return worst


def _high_p_norm(f: PiecewiseFunction, p: float) -> Enclosure:
    """The p-norm for 3 < p <= _P_GRADED as S * (integral of |f/S|^p)^(1/p)
    with S = sup|f|, so the integrand neither cancels (as the monomial
    powers of a closed form would) nor underflows.  |f/S|^p peaks at the
    extrema of f, which lie at the ends of the segments between the roots
    and critical points of each piece, and narrows like 1/p there; each
    segment is cut into panels halving toward both ends down to about
    1/(2p) of its length, all panels go into one ``gauss_integral`` call,
    and its error widens the root's ends.  S is the sup over the pieces
    alone: the integral ignores the point values, and one far above the
    pieces would underflow every panel.  Above _P_GRADED it returns the
    enclosure [0, S (b-a)^(1/p)]."""
    sup = _sup_norm(*_inf_sup(f.breakpoints, f.pieces, ()))
    if p > _P_GRADED or sup.mid == 0.0:
        return Enclosure(0.0, sup.hi * (f.b - f.a) ** (1.0 / p))
    s = sup.mid
    levels = math.ceil(math.log2(p)) + 1
    panels = []
    for lo, hi, coeffs in aligned_pieces(f):
        scaled = poly.pscale(coeffs, 1.0 / s)
        for x0, x1, _ in sign_segments(coeffs, lo, hi,
                                       poly.pcritical(coeffs, lo, hi)):
            steps = [(x1 - x0) * 2.0 ** -j for j in range(levels, 0, -1)]
            cuts = sorted({x0, x1, *(x0 + h for h in steps),
                           *(x1 - h for h in steps)})
            panels += [(y0, y1, scaled) for y0, y1 in zip(cuts, cuts[1:])]
    total, err = _abs_power_integral(panels, p)
    hi_v = s * (total + err) ** (1.0 / p) * (1.0 + 64.0 * _EPS)
    lo_v = s * max(total - err, 0.0) ** (1.0 / p) * (1.0 - 64.0 * _EPS)
    return Enclosure(lo_v, hi_v)


# ---------------------------------------------------------------------------
# quadrature: a substituted pair of fixed Gauss-Legendre orders
# ---------------------------------------------------------------------------

def _unit_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


# the low and the high order on [0, 1], side by side: a leaf's nodes are
# formed once for both
_LOW = 24
_S_NODES, _S_WEIGHTS = map(np.concatenate, zip(_unit_rule(_LOW),
                                                _unit_rule(32)))
_FLOOR = 32.0 * _EPS    # rounding of one leaf's weighted sum, per unit mass


def gauss_integral(fun, a, b, tol: float = 1e-12, max_doublings: int = 14):
    """Integrate a vectorised function over [a, b], or over every span
    (a[i], b[i]) when a and b are sequences, and return the sum.

    Each span is split at its midpoint, and each half is mapped to s in
    [0, 1] by t = end + (midpoint - end) s^2 from its outer end, so that
    |t - end|^r and ((t - a)(b - t))^q become smooth in s.  A leaf, an
    interval of s, takes a 24- and a 32-point Gauss-Legendre rule at once;
    the 32-point sum is its value, and the gap between the two its error.
    Every round makes one ``fun(ts)`` call on the nodes of the leaves it
    adds.  ``fun`` may instead return one row per integrand, a (k, n)
    array at n nodes; the result is then a pair of length-k lists.

    Each row keeps its own leaves and its own stop test: it stops when its
    leaf errors add up to at most (tol + 32 eps) times its integral of
    |row|.  Until then it bisects, in s, every leaf whose error exceeds
    tol/2 times its own mass plus its share (by length in t) of the row's
    mass, plus a rounding floor of 32 eps times its mass, unless the leaf
    is rounding noise (``_leaf_noise``); of these, the 16 (or 2 per span,
    if more) with the largest errors, so that a row whose values are
    rounding throughout, as where N is 0 up to rounding, costs linear and
    not exponential work.  Rows share the evaluations of the leaves they
    both hold.  Leaf sums are added by ``math.fsum``, so a row gets the
    value a call with that row alone returns, bit for bit.  A row still
    open after max_doublings + 1 rounds, or with nothing left to bisect,
    returns what it has.

    Returns (value, error): the error is the sum of the leaf errors, or
    tol times the integral of |row| if that is larger (the accuracy the
    stop test grants, which also covers the rounding of the nodes that an
    ill-conditioned integrand such as t^40000 amplifies), plus the
    rounding floor.  Empty spans are skipped; with none left the result
    is (0.0, 0.0), and ``fun`` is not called."""
    if np.ndim(a) == 0:
        a, b = (a,), (b,)
    spans = [(float(lo), float(hi)) for lo, hi in zip(a, b) if lo < hi]
    if not spans:
        return 0.0, 0.0
    # half j is t = ends[j] + steps[j] s^2 on s in [0, 1]
    mids = [0.5 * lo + 0.5 * hi for lo, hi in spans]
    ends = np.array([x for lo, hi in spans for x in (lo, hi)])
    steps = np.array([x for (lo, hi), m in zip(spans, mids)
                      for x in (m - lo, m - hi)])
    share = 1.0 / sum(hi - lo for lo, hi in spans)
    # leaf g is (half[g], s0[g], s1[g]), a half of leaf parent[g] (-1 for
    # none) next to leaf sibling[g]; kids[g] are the ids of its halves
    n = len(ends)
    half, s0, s1 = np.arange(n), np.zeros(n), np.ones(n)
    parent = sibling = np.full(n, -1)
    high, low, mass, length = _leaf_sums(fun, ends, steps, half, s0, s1)
    single = high.ndim == 1
    high, low, mass = map(np.atleast_2d, (high, low, mass))
    cap = max(n, 16)     # bisections per row and round
    leaves = [half] * len(high)
    done = [None] * len(high)
    kids = {}
    for rnd in range(max_doublings + 1):
        bad = {}
        for r, ids in enumerate(leaves):
            if done[r] is not None:
                continue
            errs = np.abs(high[r] - low[r])
            err, m = errs[ids], mass[r, ids]
            total = math.fsum(m.tolist())
            worse = err > (0.5 * tol * (m + total * share * length[ids])
                           + _FLOOR * m)
            worse &= ~_leaf_noise(ids, errs, high[r], mass[r], parent,
                                  sibling)
            if worse.sum() > cap:   # the worst first, ties by position
                order = np.lexsort((s0[ids], half[ids], -err))
                worse[order[cap:]] = False
            err_sum = math.fsum(err.tolist())
            if (err_sum <= (tol + _FLOOR) * total or rnd == max_doublings
                    or not worse.any()):
                done[r] = (math.fsum(high[r, ids].tolist()),
                           max(err_sum, tol * total) + _FLOOR * total)
            else:
                bad[r] = worse
        if not bad:
            break
        # bisect the leaves some row finds worse, once for every row
        split = sorted({g for r, worse in bad.items()
                        for g in leaves[r][worse].tolist()} - kids.keys())
        split = np.array(split, int)
        first = np.arange(len(half), len(half) + 2 * len(split), 2)
        for g, k in zip(split.tolist(), first.tolist()):
            kids[g] = (k, k + 1)
        for r, worse in bad.items():
            ids = leaves[r]
            leaves[r] = np.concatenate((ids[~worse], np.array(
                [k for g in ids[worse].tolist() for k in kids[g]], int)))
        if not len(split):
            continue
        mid = 0.5 * (s0[split] + s1[split])
        batch = (np.repeat(half[split], 2),
                 np.column_stack((s0[split], mid)).ravel(),
                 np.column_stack((mid, s1[split])).ravel())
        sums = _leaf_sums(fun, ends, steps, *batch)
        high, low, mass = (np.hstack((x, np.atleast_2d(y)))
                           for x, y in zip((high, low, mass), sums))
        length = np.concatenate((length, sums[3]))
        half, s0, s1 = (np.concatenate(x) for x in zip((half, s0, s1),
                                                       batch))
        parent = np.concatenate((parent, np.repeat(split, 2)))
        sibling = np.concatenate((sibling, np.column_stack(
            (first + 1, first)).ravel()))
    if single:
        return done[0]
    return [v for v, _ in done], [e for _, e in done]


def _leaf_noise(ids, errs, high, mass, parent, sibling):
    """Which of one row's leaves ``ids`` are at the rounding level of an
    ill-conditioned integrand (such as t^40000, or |f/S|^p at large p),
    where bisection lowers no error: the leaf and its sibling together
    cut their parent's error less than 16-fold, moved its value by no more
    than both errors, and have an error of at most 1e-6 of their mass.  An
    unresolved peak has a larger error than that."""
    noise = np.zeros(len(ids), bool)
    kid = parent[ids] >= 0
    if not kid.any():
        return noise
    g = ids[kid]
    up, pair = parent[g], sibling[g]
    pair_err = errs[g] + errs[pair]
    noise[kid] = ((16.0 * pair_err >= errs[up])
                  & (pair_err <= 1e-6 * (mass[g] + mass[pair]))
                  & (np.abs(high[g] + high[pair] - high[up])
                     <= pair_err + errs[up]))
    return noise


def _leaf_sums(fun, ends, steps, half, s0, s1):
    """(high, low, mass, length) of each leaf (half, s0, s1): the 32- and
    the 24-point sums of every row, the 32-point sum of |row|, and the
    leaf's length in t.  One ``fun`` call takes every node."""
    width = s1 - s0
    s = s0[:, None] + width[:, None] * _S_NODES
    step = steps[half]
    ts = ends[half][:, None] + step[:, None] * (s * s)
    w = (2.0 * np.abs(step) * width)[:, None] * (_S_WEIGHTS * s)
    vals = np.asarray(fun(ts.ravel()))
    terms = vals.reshape(vals.shape[:-1] + ts.shape) * w
    return (terms[..., _LOW:].sum(-1), terms[..., :_LOW].sum(-1),
            np.abs(terms[..., _LOW:]).sum(-1),
            np.abs(step) * (s1 * s1 - s0 * s0))


def _coeff_matrix(pieces) -> np.ndarray:
    """The coefficient tuples as rows of one array, zero-padded at the high
    end to the longest."""
    width = max(len(c) for c in pieces)
    out = np.zeros((len(pieces), width))
    for i, c in enumerate(pieces):
        out[i, :len(c)] = c
    return out


def _horner(rows: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Row ``rows[i]`` (coefficients low to high, on the last axis) at
    ``ts[i]``, for ts of any shape: the steps of numpy's ``polyval``, node
    by node, so a zero-padded row gives the polyval of the unpadded one bit
    for bit."""
    out = rows[..., -1] + ts * 0.0
    for k in range(rows.shape[-1] - 2, -1, -1):
        out = rows[..., k] + out * ts
    return out


def _span_lookup(los: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """The index of the span (sorted starts ``los``) that holds each node:
    the last one starting at or before it."""
    return np.maximum(np.searchsorted(los, ts, side="right") - 1, 0)


def _abs_power_integral(segments, p: float):
    """(value, error) of the sum over (x0, x1, c) in ``segments`` of the
    integral of |c(t)|^p over [x0, x1], in one ``gauss_integral`` call:
    each node reads the polynomial of its segment."""
    los = np.array([x0 for x0, _, _ in segments])
    his = np.array([x1 for _, x1, _ in segments])
    mat = _coeff_matrix([c for _, _, c in segments])

    def fun(ts):
        return np.abs(_horner(mat[_span_lookup(los, ts)], ts)) ** p
    return gauss_integral(fun, los, his, tol=1e-13)


def integrate_against(fun, f: PiecewiseFunction, splits=(),
                      tol: float = 1e-10,
                      max_doublings: int = 14) -> list[float]:
    """The integrals against df of the rows of ``fun``, in one
    ``gauss_integral`` call over the cells of
    ``aligned_pieces(f, splits=splits)``, plus exact jump terms.

    ``fun(ts)`` returns one row of values at the nodes ts per integrand,
    each evaluated over its whole function and continuous on every cell:
    a caller passes the breakpoints of the functions its rows read in
    ``splits``.  f' at a node is the derivative of f's piece on the last
    cell starting at or before it.  Every jump of f adds fun at the jump
    times its mass.  Cells narrower than 1e-14 of the domain and cells on
    which f is constant are skipped; ``tol`` and ``max_doublings`` go to
    ``gauss_integral``, whose error estimate is discarded."""
    tiny = 1e-14 * (f.b - f.a)
    cells = []
    for lo, hi, fc in aligned_pieces(f, splits=splits):
        dc = poly.pderiv(fc)
        if hi - lo > tiny and not poly.is_zero_poly(dc):
            cells.append((lo, hi, dc))
    terms = []     # the Gauss values of all cells, then one list per jump
    if cells:
        los, his, dcs = zip(*cells)
        los, dmat = np.array(los), _coeff_matrix(dcs)

        def rows(ts):
            return (np.asarray(fun(ts))
                    * _horner(dmat[_span_lookup(los, ts)], ts))
        terms.append(gauss_integral(rows, los, his, tol, max_doublings)[0])
    for t, mass in f.jump_masses():
        terms.append([float(r[0]) * mass for r in fun(np.array([t]))])
    if not terms:      # nothing to add: one evaluation gives the row count
        return [0.0] * len(fun(np.array([f.a])))
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
    closed-form piece analysis; ``holder(H, 1)`` is checked as
    ``lipschitz(H)``, by the same jump and slope tests.  Holder with
    r < 1 is certified when H >= L^r * osc^(1-r), from the Lipschitz
    constant L = sup|f'| and the oscillation osc = sup f - inf f, both
    rounded up; the pass carries a ``detail`` starting with "certified".
    Otherwise it falls back to a ``_HOLDER_GRID``-point pair grid per
    piece pair, which is sampling-sound only: it can accept an H just
    below the true constant.
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
    if kind in ("lipschitz", "holder"):
        # lipschitz(L) is holder(L, 1): one jump test and one slope test
        H, r = cert.params if kind == "holder" else (cert.params[0], 1.0)
        js = f.jumps()
        if js:
            return CertCheck(False, js[0][0], "jump breaks continuity")
        if r == 1.0:
            sup_d = _sup_abs_derivative(_derivative_ranges(f))
            if sup_d > H * (1.0 + 1e-10) + 1e-12:
                name = "L" if kind == "lipschitz" else "H"
                return CertCheck(False, None,
                                 f"sup|f'| = {sup_d!r} > {name} = {H!r}")
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


def _certificate_params(cert: RegularityCertificate, role: str,
                       *kinds: str) -> tuple[float, ...]:
    """The parameters of ``cert``, a certificate of one of ``kinds``; a
    certificate of another kind, None or any other object raises
    CertificateInvalid naming the role.  The one kind check: the gate
    runs it, and a caller that takes a certificate as given runs it
    alone."""
    if not isinstance(cert, RegularityCertificate) or cert.kind not in kinds:
        got = cert.describe() if isinstance(cert, RegularityCertificate) \
            else repr(cert)
        raise CertificateInvalid(
            f"{role} needs a {' or '.join(kinds)} certificate, got {got}")
    return cert.params


def require_certificate(f: PiecewiseFunction, cert: RegularityCertificate,
                        role: str, *kinds: str) -> tuple[float, ...]:
    """The one gate a certificate passes before a bound reads it: its kind
    must be one of ``kinds`` (``_certificate_params``, before any
    verification), then it must verify against f, else CertificateInvalid
    with the check's witness.  Returns the certificate's parameters."""
    params = _certificate_params(cert, role, *kinds)
    chk = verify_certificate(f, cert)
    if not chk.ok:
        raise CertificateInvalid(
            f"{role} certificate {cert.describe()} failed: {chk.detail}",
            witness=chk.witness)
    return params

"""Composite product-mean quadrature for Stieltjes integrals.

The rule approximates the integral of f*g du over [a, b] by summing, per
partition cell, the product of the two cell integrals normalised by the
cell increment of u.  ``partition_quadrature`` (fixed partitions) and
``adaptive_quadrature`` solve each cell once and return one
``QuadratureResult``; ``composite_S`` and the oscillation and Holder
remainder estimates are views of it.  Every cell quantity is computed on
the cell alone.  The variation of u is read from u's one piece when the
closed cell holds no breakpoint of u (``_piece_variation``): the piece's
variation, padded as ``total_variation`` pads it, with no restricted u
and no enclosure.  The oscillation of f is read from f's one piece when
the closed cell holds no breakpoint of f (``_f_side``): the piece's
values at the cell ends and critical points, padded as ``inf_sup_on``
pads them, with no restricted f and no enclosure.  g's side of a cell,
its integral against u and its centred sup, is read from the pieces of g
and u when the closed cell holds no breakpoint of either (``_g_side``):
one antiderivative difference and the shifted piece's values at the cell
ends and critical points, each formed once, with no restricted g, no
integral wrapper and no enclosure.  A cell that holds a breakpoint, or on
which a number of those paths is not finite, restricts f, g or u and
takes the general path, ``inf_sup_on``, ``total_variation`` and the
closed-form integral of ``rs_integral``; both give the same floats.  On
either path the centred sup comes from g's shifted pieces
(``_centred_sup``), with no shifted copy of g.  The integral of f du is
read from the pieces in the same way when the closed cell holds no
breakpoint of f or u; on the other cells ``_result`` restricts f and u,
final cells only, for the closed form.  So u is restricted only on a cell
that holds a breakpoint of f, g or u, or on which a piece path declines,
and a cell inside one piece of each builds no function.  Nothing is
derived twice:

- each solve keeps one map of product antiderivatives per pair of pieces
  of (f or g, u), which every cell's integral against u reads;
- derivatives and closed-form critical points come from ``poly``'s memo,
  keyed by the coefficients, so a piece, its restrictions and its shifts
  share them;
- u is evaluated once at each cell end, and the value is shared by the
  cell state test, the split search and the cell increment;
- a cell record keeps numbers only: its terms, its integrals and u at
  its ends; restricted functions are validated by construction
  (``PiecewiseFunction._trusted``).

A cell whose term or integral of g du overflows, or a result whose value
or bound does, raises DomainError, so an infinite term only ever marks a
degenerate cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import poly
from .errors import DegenerateCell, DomainError, ToleranceUnreachable
from .funcrep import (Enclosure, PiecewiseFunction, RegularityCertificate,
                      _extreme_ends, _inf_sup, _sup_norm, _sup_norm_hi,
                      _variation_ends, inf_sup_on, require_certificate,
                      total_variation)
from .stieltjes import _piece_integral, _product_core, _same_domain


@dataclass(frozen=True)
class Partition:
    points: tuple[float, ...]

    def __post_init__(self):
        if len(self.points) < 2:
            raise DomainError("a partition needs at least two points")
        for x, y in zip(self.points, self.points[1:]):
            if not (x < y):
                raise DomainError("partition points must increase strictly")

    @classmethod
    def uniform(cls, a: float, b: float, n: int) -> "Partition":
        if n < 1:
            raise DomainError("n must be >= 1")
        return cls(tuple(a + (b - a) * i / n for i in range(n)) + (b,))

    @property
    def n(self) -> int:
        return len(self.points) - 1

    @property
    def widths(self) -> tuple[float, ...]:
        return tuple(y - x for x, y in zip(self.points, self.points[1:]))

    @property
    def mesh(self) -> float:
        return max(self.widths)

    def cells(self) -> list[tuple[float, float]]:
        return list(zip(self.points, self.points[1:]))


class RemainderBound(NamedTuple):
    stated: float      # max-form estimate
    tight: float       # per-cell sum, never larger than `stated`
    per_cell: tuple[float, ...]


@dataclass(frozen=True, eq=False)
class QuadratureResult:
    """A product-mean quadrature on a fixed or adaptive partition: the
    rule's value, the stated (max-form) and tight (per-cell sum)
    oscillation remainder bounds, the partition, and ``per_cell``, a
    read-only (n, 3) float64 array with one row per partition cell:
    (oscillation of f, sup |g - cell mean| on the cell, variation of u).
    Equality and hashing compare ``per_cell`` by value, as for a tuple of
    row tuples."""

    value: float
    remainder_bound: float
    tight_bound: float
    partition: Partition
    per_cell: np.ndarray

    def _key(self) -> tuple:
        return (self.value, self.remainder_bound, self.tight_bound,
                self.partition, tuple(map(tuple, self.per_cell.tolist())))

    def __eq__(self, other):
        if not isinstance(other, QuadratureResult):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def as_integral(self):
        """The certified enclosure as an IntegralResult (method 'refined')."""
        from .stieltjes import IntegralResult
        return IntegralResult(self.value, min(self.remainder_bound,
                                              self.tight_bound), "refined")


def _cell_state(u: PiecewiseFunction, lo: float, hi: float, u_lo: float,
                u_hi: float) -> str:
    """'ok', 'constant' (u flat on the cell) or 'degenerate', given
    u_lo = u(lo) and u_hi = u(hi)."""
    scale = 1.0 + max(abs(u_lo), abs(u_hi))
    if abs(u_hi - u_lo) > 1e-12 * scale:
        return "ok"
    ends = _piece_variation(_inner_piece(u, lo, hi), lo, hi)
    var = Enclosure(*ends) if ends else total_variation(u.restrict(lo, hi))
    if var.mid <= 1e-10 * scale:
        return "constant"
    return "degenerate"


def oscillation_v(f: PiecewiseFunction, partition: Partition) -> float:
    """max over cells of (sup f - inf f), certified from above: each cell's
    oscillation as ``_solve_cell`` takes it."""
    worst = 0.0
    for lo, hi in partition.cells():
        side = _f_side(f, lo, hi, None)
        worst = max(worst, _osc(f.restrict(lo, hi)) if side is None
                    else side[0])
    return worst


def _osc(f_cell: PiecewiseFunction) -> float:
    """sup f - inf f over the cell f is restricted to, certified from
    above: the general path of a cell's oscillation."""
    inf_e, sup_e = inf_sup_on(f_cell)
    return sup_e.hi - inf_e.lo


class _Cell(NamedTuple):
    """One cell of a solve, solved once when it is made; the record lives
    until the solve returns and keeps numbers only."""
    lo: float
    hi: float
    term: float    # 0.5 * osc * sup_g * var_u; inf forces a split
    state: str     # as _cell_state
    terms: tuple[float, float, float]    # (osc, sup_g, var_u)
    i_g: float     # integral of g du over the cell
    u_lo: float    # u(lo)
    u_hi: float    # u(hi)
    # integral of f du on an "ok" cell inside one piece of f and one of u,
    # read from the pieces; else None, as where that integral overflows,
    # and _result integrates the restricted f and u
    i_f: float | None


def _centred_sup(g: PiecewiseFunction, bp: tuple, pieces: tuple,
                 point_values: tuple | None, m: float) -> float | None:
    """sup |g - m| over [bp[0], bp[-1]], given the fields of
    ``g.restrict(bp[0], bp[-1])`` (its breakpoints, pieces and point
    values): ``sup_norm_on((g - m).restrict(bp[0], bp[-1])).hi`` without
    forming g - m, its restriction or any function.  A cell end that is
    not a breakpoint of g takes the value of its shifted piece there.
    Only the numbers the shift forms are checked, the constant terms and
    then the point values, and they raise the DomainError the constructor
    would.  The general path of ``_solve_cell`` passes a restricted g's
    fields.

    ``_g_side`` passes bp = (lo, hi), the one piece of g whose open
    interval holds [lo, hi] and no point values: neither end is then a
    breakpoint of g, so the shifted piece at lo, at hi and at its
    critical points gives every value, each formed once, and the sup
    comes from their min and max in floats (``funcrep._sup_norm_hi``),
    with no enclosure.  It returns None, for the general path to decide,
    where one of those values or the sup is not finite."""
    shifted = tuple(poly.psub(c, (m,)) for c in pieces)
    if point_values is None:
        vals = poly._extreme_values(shifted[0], bp[0], bp[-1])
        vals.append(_sup_norm_hi(min(vals), max(vals)))
        return vals[-1] if all(map(math.isfinite, vals)) else None
    values = [v - m for v in point_values]
    if g._bp_index(bp[0]) is None:
        values[0] = poly.pvalue(shifted[0], bp[0])
    if g._bp_index(bp[-1]) is None:
        values[-1] = poly.pvalue(shifted[-1], bp[-1])
    if not all(math.isfinite(c[0]) for c in shifted):
        raise DomainError("non-finite coefficient")
    if not all(map(math.isfinite, values)):
        raise DomainError("non-finite point value")
    return _sup_norm(*_inf_sup(bp, shifted, values)).hi


def _inner_piece(h: PiecewiseFunction, lo: float,
                 hi: float) -> tuple | None:
    """The piece of h whose open interval holds [lo, hi], or None when
    [lo, hi] holds a breakpoint of h."""
    i, bp = h._piece_index(lo), h.breakpoints
    return h.pieces[i] if bp[i] < lo and hi < bp[i + 1] else None


def _piece_variation(u_piece: tuple | None, lo: float,
                     hi: float) -> tuple[float, float] | None:
    """The ends of ``total_variation(u.restrict(lo, hi))``, read from
    u_piece = ``_inner_piece(u, lo, hi)``: that restriction has one piece,
    no jump and no slack, so the ends are the piece's variation padded by
    ``funcrep._variation_ends``, in the same floats.  None, for the general
    path, where u_piece is None or the variation is not finite; restricting
    u, or ``total_variation``, then raises where u overflows."""
    if u_piece is None:
        return None
    total = poly.pvariation_on(u_piece, lo, hi)
    return _variation_ends(total, 0.0) if math.isfinite(total) else None


def _f_side(f: PiecewiseFunction, lo: float, hi: float,
            u_piece: tuple | None,
            products: dict | None = None) -> tuple[float, float | None] | None:
    """(oscillation of f, integral of f du) over the cell [lo, hi], read
    from the one piece of f whose open interval holds [lo, hi]; u_piece is
    ``_inner_piece(u, lo, hi)``.  The oscillation is ``_osc(f.restrict(lo,
    hi))`` in the same floats: the restriction's end values are the
    piece's values at lo and hi, so its min and max are those of the
    piece at lo, at hi and at its critical points, padded by
    ``funcrep._extreme_ends``, with no restricted f and no enclosure.  The
    integral is ``stieltjes._piece_integral`` of the two pieces, with the
    solve's ``products`` map when given, or None where u_piece is None or
    the integral is not finite.

    None, for the general path, when [lo, hi] holds a breakpoint of f, or
    when one of the piece's values is not finite; restricting f, or
    ``_osc``, then raises where the inputs overflow."""
    piece = _inner_piece(f, lo, hi)
    if piece is None:
        return None
    vals = poly._extreme_values(piece, lo, hi)
    if not all(map(math.isfinite, vals)):
        return None
    (inf_lo, _), (_, sup_hi) = _extreme_ends(min(vals), max(vals))
    i_f = None if u_piece is None \
        else _piece_integral(piece, u_piece, lo, hi, products)
    return sup_hi - inf_lo, i_f


def _g_side(g: PiecewiseFunction, lo: float, hi: float, du: float,
            u_piece: tuple | None,
            products: dict | None = None) -> tuple[float, float] | None:
    """(integral of g du, sup |g - m|) over the cell [lo, hi], where m is
    that integral over ``du = u(hi) - u(lo)``, read from the pieces of g
    and u when [lo, hi] holds no breakpoint of g and none of u; u_piece is
    ``_inner_piece(u, lo, hi)``.  The cell then lies inside one piece of
    each, and the two floats come from the same operations in the same
    order as ``rs_integral(g.restrict(lo, hi), u.restrict(lo, hi)).value``
    and ``_centred_sup`` of that restriction: the antiderivative, from the
    solve's ``products`` map when given (``stieltjes._piece_integral``),
    then ``_centred_sup`` on the one piece, with no restricted g.

    None, for the general path, when [lo, hi] holds a breakpoint, or when
    a number that path forms is not finite; that path then raises where
    the inputs overflow."""
    piece = _inner_piece(g, lo, hi)
    if piece is None or u_piece is None:
        return None
    # the end values g.restrict(lo, hi) checks
    if not all(math.isfinite(poly.pvalue(piece, t)) for t in (lo, hi)):
        return None
    i_g = _piece_integral(piece, u_piece, lo, hi, products)
    sup_g = None if i_g is None \
        else _centred_sup(g, (lo, hi), (piece,), None, i_g / du)
    return None if sup_g is None else (i_g, sup_g)


def _solve_cell(f: PiecewiseFunction, g: PiecewiseFunction,
                u: PiecewiseFunction, lo: float, hi: float, u_lo: float,
                u_hi: float, state: str,
                products: dict | None = None) -> _Cell:
    """Every quantity of the cell [lo, hi] whose ``_cell_state`` is
    ``state``, given u_lo = u(lo) and u_hi = u(hi); constant and
    degenerate cells get zero terms.  u's piece is looked up once.  The
    variation of u is read from it by ``_piece_variation`` when the cell
    holds no breakpoint of u; otherwise, or when that declines, u is
    restricted and the variation comes from ``total_variation``,
    bit-identical where both apply.  f's side, its
    oscillation and its integral against u, is read from the pieces by
    ``_f_side`` when the cell holds no breakpoint of f (the integral only
    when it holds none of u either); otherwise, or when ``_f_side``
    declines, f is restricted, at the same point, and the oscillation
    comes from ``_osc``, bit-identical where both apply.  g's side, its
    integral against u and its centred sup, is read from the pieces by
    ``_g_side`` when the cell holds no breakpoint of g or u; otherwise, or
    when ``_g_side`` declines, g and u are restricted, and the side comes
    from the closed-form integral and ``_centred_sup``, likewise
    bit-identical.  Where the integral of f du is not read from the
    pieces, or is not finite, the record keeps None, and ``_result``
    integrates f and u restricted to the cell, if it is final.  Integrals
    against u read and fill the solve's ``products`` map, if given.
    Raises DomainError when an "ok" cell's term or integral of g du is not
    finite."""
    if state != "ok":
        return _Cell(lo, hi, 0.0 if state == "constant" else math.inf,
                     state, (0.0, 0.0, 0.0), 0.0, u_lo, u_hi, None)
    u_piece = _inner_piece(u, lo, hi)
    f_side = _f_side(f, lo, hi, u_piece, products)
    f_cell = f.restrict(lo, hi) if f_side is None else None
    g_side = _g_side(g, lo, hi, u_hi - u_lo, u_piece, products)
    g_cell = g.restrict(lo, hi) if g_side is None else None
    var_ends = _piece_variation(u_piece, lo, hi)
    u_cell = None if g_side and var_ends else u.restrict(lo, hi)
    var_u = total_variation(u_cell).hi if var_ends is None else var_ends[1]
    osc, i_f = (_osc(f_cell), None) if f_side is None else f_side
    if g_side is None:
        i_g = _product_core([g_cell], u_cell, products).value
        sup_g = _centred_sup(g, g_cell.breakpoints, g_cell.pieces,
                             g_cell.point_values, i_g / (u_hi - u_lo))
    else:
        i_g, sup_g = g_side
    term = 0.5 * osc * sup_g * var_u
    if not (math.isfinite(term) and math.isfinite(i_g)):
        raise DomainError(f"cell [{lo!r}, {hi!r}]: term {term!r} or "
                          f"integral of g du {i_g!r} is not finite: the "
                          f"inputs overflow")
    return _Cell(lo, hi, term, state, (osc, sup_g, var_u), i_g, u_lo, u_hi,
                 i_f)


def _result(f: PiecewiseFunction, u: PiecewiseFunction, cells: list[_Cell],
            products: dict | None = None) -> QuadratureResult:
    """The result of solved cells, none degenerate, summed in cell order;
    the integral of f du of an "ok" cell is its ``i_f``, or, where that is
    None, the closed form on f and u restricted to the cell, with the
    solve's ``products`` map if given.  ``_solve_cell`` has restricted f
    and u to such a cell, or read their finite ends from the pieces, so
    these restrictions raise nothing.  The stated bound is (1/2) max osc *
    max sup_g * Var(u).  Raises DomainError when the value or a bound is
    not finite."""
    value = 0.0
    for c in cells:
        if c.state == "ok":
            i_f = c.i_f if c.i_f is not None else _product_core(
                [f.restrict(*c[:2])], u.restrict(*c[:2]), products).value
            value += i_f * c.i_g / (c.u_hi - c.u_lo)
    stated = 0.5 * max(c.terms[0] for c in cells) \
        * max(c.terms[1] for c in cells) * total_variation(u).hi
    tight = sum(c.term for c in cells)
    if not all(map(math.isfinite, (value, stated, tight))):
        raise DomainError(f"quadrature value {value!r}, bound {stated!r} or "
                          f"tight bound {tight!r} is not finite: the inputs "
                          f"overflow")
    per_cell = np.array([c.terms for c in cells], dtype=np.float64)
    per_cell.setflags(write=False)
    partition = Partition(tuple(c.lo for c in cells) + (cells[-1].hi,))
    return QuadratureResult(value, stated, tight, partition, per_cell)


def partition_quadrature(f: PiecewiseFunction, g: PiecewiseFunction,
                         u: PiecewiseFunction,
                         partition: Partition) -> QuadratureResult:
    """The product-mean rule on a fixed partition, each cell solved once.
    Cells on which u is constant contribute zero; any other cell whose u
    increment vanishes raises DegenerateCell with its index; a partition
    that does not span u's domain, or an f or g on another domain, raises
    DomainError."""
    if (partition.points[0], partition.points[-1]) != u.domain:
        raise DomainError(f"partition spans [{partition.points[0]!r}, "
                          f"{partition.points[-1]!r}], not u's domain "
                          f"{list(u.domain)!r}")
    for h in (f, g):
        _same_domain(h, u)
    products: dict = {}
    points = partition.points
    u_at = [u(t) for t in points]
    cells = []
    for i in range(partition.n):
        lo, hi, u_lo, u_hi = points[i], points[i + 1], u_at[i], u_at[i + 1]
        state = _cell_state(u, lo, hi, u_lo, u_hi)
        if state == "degenerate":
            raise DegenerateCell(i, (lo, hi))
        cells.append(_solve_cell(f, g, u, lo, hi, u_lo, u_hi, state,
                                 products))
    return _result(f, u, cells, products)


def composite_S(f: PiecewiseFunction, g: PiecewiseFunction,
                u: PiecewiseFunction, partition: Partition) -> float:
    """Sum over cells of cell-integral(f du) * cell-integral(g du) divided
    by the cell increment of u (``partition_quadrature(...).value``)."""
    return partition_quadrature(f, g, u, partition).value


def remainder_bound_osc(f: PiecewiseFunction, g: PiecewiseFunction,
                        u: PiecewiseFunction,
                        partition: Partition) -> RemainderBound:
    """Oscillation-form remainder estimate
    (1/2) max_osc * max_cell_sup * Var(u), plus the per-cell tight sum."""
    res = partition_quadrature(f, g, u, partition)
    per = tuple(0.5 * osc * sup_g * var_u
                for osc, sup_g, var_u in res.per_cell.tolist())
    return RemainderBound(res.remainder_bound, res.tight_bound, per)


def holder_remainder(res: QuadratureResult, u: PiecewiseFunction,
                     f_holder: RegularityCertificate) -> RemainderBound:
    """Holder-form estimate (H/2^r) mesh^r * max_cell_sup * Var(u) of a
    solved partition, plus the per-cell sum with the individual cell
    widths.  ``f_holder`` is taken as given, not verified."""
    H, r = f_holder.params
    rows = res.per_cell.tolist()
    per = tuple(H / (2.0 ** r) * width ** r * sup_g * var_u
                for width, (_, sup_g, var_u)
                in zip(res.partition.widths, rows))
    stated = H / (2.0 ** r) * res.partition.mesh ** r \
        * max(row[1] for row in rows) * total_variation(u).hi
    return RemainderBound(stated, sum(per), per)


def remainder_bound_holder(f: PiecewiseFunction, g: PiecewiseFunction,
                           u: PiecewiseFunction, partition: Partition,
                           f_holder: RegularityCertificate) -> RemainderBound:
    """``holder_remainder`` of ``partition_quadrature``, after verifying
    ``f_holder`` against f."""
    require_certificate(f, f_holder, "f")
    return holder_remainder(partition_quadrature(f, g, u, partition), u,
                            f_holder)


def adaptive_quadrature(f: PiecewiseFunction, g: PiecewiseFunction,
                        u: PiecewiseFunction, tol: float,
                        max_cells: int = 4096) -> QuadratureResult:
    """Bisect the worst cell of the per-cell oscillation bound until the
    tight bound drops below ``tol`` (or the cell budget is exhausted).

    Bisection points where u would repeat a cell-end value are shifted by a
    quarter cell; cells on which u is constant are frozen with a zero term.
    Each cell is solved once, when it is made, and keeps its terms, its
    integral of g du, u at its ends and its integral of f du, read from
    the pieces; on a cell that holds a breakpoint of f or u, that integral
    is taken on the restricted f and u only if the cell is final.
    The result is built from the final cells' records, so it equals
    ``partition_quadrature`` on the final partition.  u is evaluated once
    per split candidate.

    Raises DomainError unless ``tol > 0``, ``max_cells >= 1`` and f, g
    and u share one domain.
    """
    if not tol > 0:
        raise DomainError(f"tol must be positive, got {tol!r}")
    if max_cells < 1:
        raise DomainError(f"max_cells must be >= 1, got {max_cells!r}")
    for h in (f, g):
        _same_domain(h, u)
    products: dict = {}
    a, b = u.domain
    u_a, u_b = u(a), u(b)

    cells = [_solve_cell(f, g, u, a, b, u_a, u_b,
                         _cell_state(u, a, b, u_a, u_b), products)]
    # the cells in cell order and their terms beside them: the stop test
    # sums the terms in cell order, and the worst cell is the first largest.
    # Only the first cell can carry an infinite term (a split is taken only
    # when neither half is degenerate), so a pending cell means one cell,
    # and max_cells >= 1 bounds the loop without a further cap.
    terms = [cells[0].term]
    while True:
        pending = math.inf in terms
        if not pending and sum(terms) <= tol:
            break
        if len(cells) >= max_cells and not pending:
            break
        idx = terms.index(max(terms))
        lo, hi, worst = cells[idx][:3]
        u_lo, u_hi = cells[idx].u_lo, cells[idx].u_hi
        width = hi - lo
        split = None
        for frac in (0.5, 0.25, 0.75, 0.375, 0.625):
            cand = lo + frac * width
            if not (lo < cand < hi):
                continue
            u_cand = u(cand)
            left = _cell_state(u, lo, cand, u_lo, u_cand)
            if left == "degenerate":
                continue
            right = _cell_state(u, cand, hi, u_cand, u_hi)
            if right != "degenerate":
                split = cand
                break
        if split is None or width < 1e-13 * (b - a):
            if worst == math.inf or worst > tol:
                raise ToleranceUnreachable((lo, hi),
                                           worst if worst != math.inf
                                           else tol)
            break
        cells[idx:idx + 1] = (
            _solve_cell(f, g, u, lo, split, u_lo, u_cand, left, products),
            _solve_cell(f, g, u, split, hi, u_cand, u_hi, right, products))
        terms[idx:idx + 1] = (cells[idx].term, cells[idx + 1].term)

    # the loop ends with no degenerate cell left
    return _result(f, u, cells, products)

"""Composite product-mean quadrature for Stieltjes integrals.

The rule approximates the integral of f*g du over [a, b] by summing, per
partition cell, the product of the two cell integrals normalised by the
cell increment of u; its remainder on a cell is bounded by
(1/2) osc(f) * sup |g - cell mean| * Var(u).  ``partition_quadrature``
(fixed partitions) and ``adaptive_quadrature`` solve each cell once and
return one ``QuadratureResult``; ``composite_S`` and the oscillation and
Holder remainder estimates are views of it.

Every cell quantity is computed on the cell alone, by the one loop that
the whole-function operation runs, on the fields of f, g and u on the cell
(``funcrep._view``: what ``restrict`` slices, with no function built) and
the jump rows of their breakpoints in the closed cell:

- osc(f) and sup |g - mean|: the min and max of the pieces and point
  values (``funcrep._min_max``, as in ``inf_sup_on``), the latter on g's
  pieces shifted by the mean (``_centred_sup``), with no shifted copy of
  g;
- Var(u): the pieces' variation and u's jump rows (``funcrep._variation``,
  as in ``total_variation``);
- the integrals of g du and f du: the closed form of ``rs_integral``
  (``stieltjes._integral``), whose shared-jump check and overflow check
  raise as ``rs_integral`` of the restricted functions would.

So each quantity is bit for bit the whole-function operation on the
functions restricted to the cell, whether the cell holds breakpoints or
not.  Nothing is derived twice:

- each solve keeps one map of product antiderivatives per pair of pieces
  of (f or g, u), which every cell's integral against u reads;
- derivatives and closed-form critical points come from ``poly``'s memo,
  keyed by the coefficients, so a piece, its cells and its shifts share
  them;
- u is evaluated once at each cell end, and the value is shared by the
  cell state test, the split search, the cell's fields and the cell
  increment;
- a cell record keeps numbers only: its terms, its integrals and u at
  its ends.

A cell whose term or integral overflows, or a result whose value or bound
does, raises DomainError, so an infinite term only ever marks a
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
                      _extreme_ends, _inf_sup, _min_max, _norm_ends,
                      _sided_table, _variation, _view, require_certificate,
                      total_variation)
from .stieltjes import _integral, _same_domain


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
    u_lo = u(lo) and u_hi = u(hi); a cell whose u increment vanishes is
    told apart by its variation of u, the enclosure ``total_variation``
    gives on u restricted to it."""
    scale = 1.0 + max(abs(u_lo), abs(u_hi))
    if abs(u_hi - u_lo) > 1e-12 * scale:
        return "ok"
    view = _view(u, lo, hi, u_lo, u_hi)
    var = Enclosure(*_variation(view[0], view[1], _sided_table(*view)))
    if var.mid <= 1e-10 * scale:
        return "constant"
    return "degenerate"


def oscillation_v(f: PiecewiseFunction, partition: Partition) -> float:
    """max over cells of (sup f - inf f), certified from above: each cell's
    oscillation from the enclosures ``inf_sup_on`` gives on f restricted
    to it, taken from f's fields on the cell."""
    worst = 0.0
    for lo, hi in partition.cells():
        inf_e, sup_e = _inf_sup(*_view(f, lo, hi)[:3])
        worst = max(worst, sup_e.hi - inf_e.lo)
    return worst


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
    i_f: float     # integral of f du over the cell


def _centred_sup(view: tuple, m: float) -> float:
    """sup |g - m| over a cell, given g's ``_view`` of it:
    ``sup_norm_on((g - m).restrict(lo, hi)).hi``, from the min and max of
    g's shifted pieces and point values (``funcrep._min_max``), without
    forming g - m, its restriction or any function.  A cell end that is
    not a breakpoint of g holds the value of its shifted piece there,
    which the piece's min and max take bit for bit, so only the point
    values at breakpoints of g are read.  Only the numbers the shift forms
    are checked, the constant terms and then those point values, and they
    raise the DomainError the constructor would."""
    values, lo_bp, hi_bp = view[2:]
    shifted = tuple([poly.psub(c, (m,)) for c in view[1]])
    values = [v - m for v in values[0 if lo_bp else 1:
                                    len(values) if hi_bp else -1]]
    if not all(math.isfinite(c[0]) for c in shifted):
        raise DomainError("non-finite coefficient")
    if not all(map(math.isfinite, values)):
        raise DomainError("non-finite point value")
    (a, b), (c, d) = _extreme_ends(*_min_max(view[0], shifted, values))
    return _norm_ends(0.5 * (a + b), 0.5 * (c + d))[1]    # the .mid of each


def _solve_cell(f: PiecewiseFunction, g: PiecewiseFunction,
                u: PiecewiseFunction, lo: float, hi: float, u_lo: float,
                u_hi: float, state: str,
                products: dict | None = None) -> _Cell:
    """Every quantity of the cell [lo, hi] whose ``_cell_state`` is
    ``state``, given u_lo = u(lo) and u_hi = u(hi); constant and
    degenerate cells get zero terms.  Each quantity is the one loop that
    the whole-function operation runs, on the fields of f, g and u on the
    cell (``funcrep._view``, which reuses u_lo and u_hi) and the jump rows
    of their breakpoints in the closed cell: the oscillation of f as
    ``inf_sup_on`` of the restricted f gives it (``funcrep._min_max``),
    the integrals of g du and f du as ``rs_integral`` of the restricted
    functions (``stieltjes._integral``, reading and filling the solve's
    ``products`` map, if given), sup |g - mean| by ``_centred_sup`` and
    the variation of u as ``total_variation`` (``funcrep._variation``).
    No function is built.

    Raises what those operations raise on the restricted functions: a
    shared jump of f or g with u, an end value or integral that is not
    finite; and DomainError when the term is not finite."""
    if state != "ok":
        return _Cell(lo, hi, 0.0 if state == "constant" else math.inf,
                     state, (0.0, 0.0, 0.0), 0.0, u_lo, u_hi, 0.0)
    f_view, g_view = _view(f, lo, hi), _view(g, lo, hi)
    u_view = _view(u, lo, hi, u_lo, u_hi)
    u_table = _sided_table(*u_view)
    (inf_lo, _), (_, sup_hi) = _extreme_ends(*_min_max(*f_view[:3]))
    i_g = _integral((g_view, u_view), (_sided_table(*g_view), u_table),
                    products)[0]
    sup_g = _centred_sup(g_view, i_g / (u_hi - u_lo))
    var_u = _variation(u_view[0], u_view[1], u_table)[1]
    i_f = _integral((f_view, u_view), (_sided_table(*f_view), u_table),
                    products)[0]
    osc = sup_hi - inf_lo
    term = 0.5 * osc * sup_g * var_u
    if not math.isfinite(term):
        raise DomainError(f"cell [{lo!r}, {hi!r}]: term {term!r} or "
                          f"integral of g du {i_g!r} is not finite: the "
                          f"inputs overflow")
    return _Cell(lo, hi, term, state, (osc, sup_g, var_u), i_g, u_lo, u_hi,
                 i_f)


def _result(u: PiecewiseFunction, cells: list[_Cell]) -> QuadratureResult:
    """The result of solved cells, none degenerate, summed in cell order:
    value = sum of i_f * i_g / (u(hi) - u(lo)) over the "ok" cells, tight
    = sum of the terms, stated = (1/2) max osc * max sup_g * Var(u).
    Raises DomainError when the value or a bound is not finite."""
    value = 0.0
    for c in cells:
        if c.state == "ok":
            value += c.i_f * c.i_g / (c.u_hi - c.u_lo)
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
    return _result(u, cells)


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
    integrals of g du and f du and u at its ends.  The result is built
    from the final cells' records, so it equals ``partition_quadrature``
    on the final partition.  u is evaluated once per split candidate.

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
    return _result(u, cells)

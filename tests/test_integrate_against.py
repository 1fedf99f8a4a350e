"""The one Gauss call per integral (``funcrep.integrate_against`` with
several integrand rows) against one ``gauss_integral`` call per integrand
over the same cells, with delta and u evaluated over the whole function
at every node.  That route is kept below as the reference, and every
number must agree bit for bit (``float.hex``)."""

import math
import random

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings
from numpy.polynomial import polynomial as nppoly

from grusskit import funcrep, instances, poly
from grusskit.bounds import _beta_root, _delta_integrals, bound_D_corollaries
from grusskit.funcrep import PiecewiseFunction, aligned_pieces, gauss_integral
from grusskit.functionals import _delta_form_numeric, gamma_kernel
from grusskit.theorems import THEOREMS


# -- the reference: one integrand per gauss_integral call --------------------

def _ref_integrate_against(fun, f, over, splits=(), tol=1e-10,
                           max_doublings=14):
    """The integral against df of ``fun``, a whole-function evaluator of
    one integrand, over the cells the pass uses; f' at a node is the
    derivative of f's piece on the last cell starting at or before it."""
    tiny = 1e-14 * (f.b - f.a)
    cells = [(lo, hi, poly.pderiv(fc))
             for lo, hi, fc, _ in aligned_pieces(f, over, splits=splits)
             if hi - lo > tiny and not poly.is_zero_poly(poly.pderiv(fc))]
    total = 0.0
    if cells:
        starts = np.array([lo for lo, _, _ in cells])

        def integrand(ts):
            cell = np.maximum(np.searchsorted(starts, ts, "right") - 1, 0)
            slope = np.empty_like(ts)
            for i, (_, _, dc) in enumerate(cells):
                m = cell == i
                slope[m] = nppoly.polyval(ts[m], np.asarray(dc))
            return fun(ts) * slope
        total, _ = gauss_integral(integrand, [lo for lo, _, _ in cells],
                                  [hi for _, hi, _ in cells], tol,
                                  max_doublings)
    for t, mass in f.jump_masses():
        total += float(fun(np.array([t]))[0]) * mass
    return total


def _ref_kept(N):
    """N with the end factors of (t-a)(b-t) divided out of its first and
    last pieces, as the pass divides them."""
    a, b = N.domain
    kept = list(N.pieces)
    kept[0] = poly.pdivroot(kept[0], a)[0]
    kept[-1] = poly.pneg(poly.pdivroot(kept[-1], b)[0])
    return PiecewiseFunction(N.breakpoints, tuple(kept), N.point_values)


def _ref_delta_fn(N):
    a, b = N.domain
    kept = _ref_kept(N)
    last = len(N.pieces) - 1

    def fn(ts):
        ts = np.asarray(ts, dtype=float)
        piece = np.clip(np.searchsorted(np.asarray(N.breakpoints), ts,
                                        "right") - 1, 0, last)
        return kept.piece_values(ts) / (np.where(piece == 0, 1.0, ts - a)
                                        * np.where(piece == last, 1.0,
                                                   b - ts))
    return fn


def _ref_delta_cuts(N):
    return [t for lo, hi, c in aligned_pieces(N)
            for t in poly.proots(c, lo, hi) if lo < t < hi]


def _ref_delta_norm(N, p):
    dfn = _ref_delta_fn(N)
    ident = PiecewiseFunction.from_coeffs((0.0, 1.0), N.a, N.b)
    total = _ref_integrate_against(lambda ts: np.abs(dfn(ts)) ** p, ident,
                                   _ref_kept(N), _ref_delta_cuts(N),
                                   tol=1e-11)
    return max(total, 0.0) ** (1.0 / p)


def _ref_a14(N, f, p):
    """(plain, p_norm) tiers of Corollary A.14 by the reference route."""
    a, b = f.domain
    width = b - a
    h = 0.5 * width
    dfn = _ref_delta_fn(N)
    kept, splits = _ref_kept(N), _ref_delta_cuts(N)
    int_absdelta_df = _ref_integrate_against(lambda ts: np.abs(dfn(ts)),
                                             f, kept, splits)
    q = p / (p - 1.0)
    int_w_df = _ref_integrate_against(
        lambda ts: ((ts - a) / h * ((b - ts) / h)) ** q, f, kept, splits)
    int_deltap_df = _ref_integrate_against(
        lambda ts: np.abs(dfn(ts)) ** p, f, kept, splits)
    return (width / 4.0 * int_absdelta_df,
            width / 4.0 * int_w_df ** (1.0 / q)
            * int_deltap_df ** (1.0 / p))


def _ref_delta_form(f, u):
    a, b = u.domain

    def weighted_delta(ts):
        ts = np.asarray(ts, dtype=float)
        uv = u.values_at(ts)
        ub = u(b)
        ua = u(a)
        return (ts - a) * (ub - uv) - (b - ts) * (uv - ua)

    return _ref_integrate_against(weighted_delta, f, u, max_doublings=0)


# -- inputs ------------------------------------------------------------------

def _hex(values):
    return [float(v).hex() for v in values]


def _with_end_jumps(rng, f):
    """f with a jump at a and one at b, both upward, so it stays monotone."""
    a, b = f.domain
    vals = list(f.point_values)
    vals[0] = f.right_limit(a) - rng.uniform(0.1, 1.0)
    vals[-1] = f.left_limit(b) + rng.uniform(0.1, 1.0)
    return PiecewiseFunction(f.breakpoints, f.pieces, tuple(vals))


def _split_near(f, s, ulps):
    """f with one more breakpoint ``ulps`` units in the last place left of
    s (same piece on both sides), so the cell between it and s is a few
    ulps wide; f itself if that point is not inside one of f's pieces."""
    t = s
    for _ in range(ulps):
        t = math.nextafter(t, -math.inf)
    bp = f.breakpoints
    i = f._piece_index(t)
    if not bp[i] < t < bp[i + 1]:
        return f
    c = f.pieces[i]
    return PiecewiseFunction(
        bp[:i + 1] + (t,) + bp[i + 1:], f.pieces[:i + 1] + f.pieces[i:],
        f.point_values[:i + 1] + (poly.pvalue(c, t),)
        + f.point_values[i + 1:])


def _spy_span_end_nodes(monkeypatch):
    """Record, for every round of ``funcrep.gauss_integral`` (the pass's
    one call), whether some node equals an end of its span: a node that
    reads the piece to the right of a cell end, the hard case of the
    whole-function rows.  The reference route is not seen: it calls the
    ``gauss_integral`` this module imported."""
    real = funcrep.gauss_integral
    seen = []

    def spying(fun, a, b, tol=1e-12, max_doublings=14):
        ends = np.concatenate((np.atleast_1d(a), np.atleast_1d(b)))

        def spy(ts):
            seen.append(bool(np.isin(ts, ends).any()))
            return fun(ts)
        return real(spy, a, b, tol, max_doublings)
    monkeypatch.setattr(funcrep, "gauss_integral", spying)
    return seen


seeds = st.integers(min_value=0, max_value=10 ** 9)


# -- Corollary A.13: |delta|^p dt --------------------------------------------

def _assert_a13_matches(f, cert, u, p):
    N = gamma_kernel(u)
    a, b = f.domain
    width = b - a
    (L,) = cert.params
    ident = PiecewiseFunction.from_coeffs((0.0, 1.0), a, b)
    powers = (1.0,) if p is None else (1.0, p)
    ref = [_ref_integrate_against(
        lambda ts, r=r, dfn=_ref_delta_fn(N): np.abs(dfn(ts)) ** r, ident,
        _ref_kept(N), _ref_delta_cuts(N), tol=1e-11) for r in powers]
    assert _hex(_delta_integrals(N, ident, powers, tol=1e-11)) == _hex(ref)
    rep = bound_D_corollaries(f, u, "a13", p=p, f_lipschitz=cert)
    tiers = {"one_norm": L * width / 4.0 * _ref_delta_norm(N, 1.0)}
    if p is not None:
        q = p / (p - 1.0)
        tiers["p_norm"] = (L * width ** (1.0 + 1.0 / q) * _beta_root(q)
                           * _ref_delta_norm(N, p))
    assert {k: rep.tier(k).hex() for k in tiers} \
        == {k: v.hex() for k, v in tiers.items()}


@given(seeds, st.sampled_from([None, 1.5, 2.0, 4.0]))
@settings(max_examples=40, deadline=None)
def test_a13_rows_equal_one_call_per_integrand(seed, p):
    # p = None is the p = 1 row alone (the one_norm tier)
    rng = random.Random(seed)
    a, b = instances.rand_interval(rng)
    f, cert = instances.rand_lipschitz(rng, a, b)
    _assert_a13_matches(f, cert, instances.rand_continuous(rng, a, b), p)


# -- Corollary A.14: |delta| df and |delta|^p df -----------------------------

def _assert_a14_matches(f, u, p):
    N = gamma_kernel(u)
    dfn = _ref_delta_fn(N)
    kept, splits = _ref_kept(N), _ref_delta_cuts(N)
    a, b = f.domain
    h = 0.5 * (b - a)
    q = p / (p - 1.0)
    ref = [_ref_integrate_against(lambda ts: np.abs(dfn(ts)), f, kept,
                                  splits),
           _ref_integrate_against(lambda ts: np.abs(dfn(ts)) ** p, f, kept,
                                  splits),
           _ref_integrate_against(
               lambda ts: ((ts - a) / h * ((b - ts) / h)) ** q, f, kept,
               splits)]
    assert _hex(_delta_integrals(N, f, (1.0, p), q)) == _hex(ref)
    rep = bound_D_corollaries(f, u, "a14", p=p)
    assert _hex([rep.tier("plain"), rep.tier("p_norm")]) \
        == _hex(_ref_a14(N, f, p))


@given(seeds, st.sampled_from([2.0, 3.0]))
@settings(max_examples=40, deadline=None)
def test_a14_rows_equal_one_call_per_integrand(seed, p):
    rng = random.Random(seed)
    a, b = instances.rand_interval(rng)
    f = _with_end_jumps(rng, instances.rand_monotone(rng, a, b))
    _assert_a14_matches(f, instances.rand_continuous(rng, a, b), p)


# a first cell a few ulps wide at a, ending at a root of N just inside it:
# Gauss nodes round onto a, where (t-a)(b-t) is 0 and delta is its limit
@pytest.mark.parametrize("tid, seed, trial", [
    ("cor_a_8", 0, 242), ("cor_a_8", 5, 578), ("cor_a_9", 5, 273),
    ("cor_a_9", 1, 464)])
def test_nodes_on_a_cell_end_fall_back_bit_for_bit(monkeypatch, tid, seed,
                                                    trial):
    spec, p = THEOREMS[tid].sample(random.Random(f"{seed}:{tid}:{trial}"))
    f, u = spec.functions["f"], spec.functions["u"]
    on_end = _spy_span_end_nodes(monkeypatch)
    if tid == "cor_a_8":
        _assert_a13_matches(f, spec.cert("f", "lipschitz"), u, p)
    else:
        _assert_a14_matches(f, u, p)
    assert any(on_end)


# -- the divided-difference form of D: (t-a)(b-t) delta df --------------------

@given(seeds, st.integers(min_value=1, max_value=400))
@settings(max_examples=40, deadline=None)
def test_delta_form_equals_one_call(seed, ulps):
    rng = random.Random(seed)
    a, b = instances.rand_interval(rng)
    u = instances.rand_piecewise(rng, a, b, jumps=True)
    f = instances.rand_piecewise(rng, a, b, jumps=True)
    for s in u.breakpoints[1:]:
        f = _split_near(f, s, ulps)
    assert _delta_form_numeric(f, u).hex() == _ref_delta_form(f, u).hex()


def test_node_on_a_breakpoint_of_u_falls_back_bit_for_bit(monkeypatch):
    # f's breakpoint 100 ulps left of u's jump at 0.75: the cell between is
    # wide enough to integrate (over 1e-14), and its outer Gauss nodes
    # round onto 0.75, where u takes its point value, not its left piece
    u = PiecewiseFunction((0.0, 0.75, 1.0), ((0.0, 1.0), (2.0, -1.0, 3.0)),
                          (0.0, 7.0, 4.0))
    f = _split_near(PiecewiseFunction.from_coeffs((0.0, 1.0, 1.0), 0.0, 1.0),
                    0.75, 100)
    on_end = _spy_span_end_nodes(monkeypatch)
    assert _delta_form_numeric(f, u).hex() == _ref_delta_form(f, u).hex()
    assert any(on_end)


def test_constant_integrator_gives_one_zero_per_row():
    # no cell and no jump adds a term; every row still gets its 0.0
    f = PiecewiseFunction.constant(2.0, 0.0, 1.0)
    u = PiecewiseFunction.from_coeffs((0.0, 0.0, 1.0), 0.0, 1.0)
    N = gamma_kernel(u)
    assert _delta_integrals(N, f, (1.0, 3.0), 1.5) == [0.0, 0.0, 0.0]
    assert _delta_form_numeric(f, u) == 0.0
    rep = bound_D_corollaries(f, u, "a14", p=3.0)
    assert rep.tier("plain") == rep.tier("p_norm") == 0.0

"""The one Gauss pass per cell (``funcrep.integrate_against`` with several
integrand rows) against the route it replaced: one doubled Gauss call per
integrand, cell and level, with delta and u evaluated over the whole
function at every node.  That route is kept below as the reference, and
every number must agree bit for bit (``float.hex``)."""

import math
import random

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings
from numpy.polynomial import polynomial as nppoly
from numpy.polynomial.legendre import leggauss

from grusskit import bounds, functionals, instances, poly
from grusskit.bounds import _beta_root, _delta_integrals, bound_D_corollaries
from grusskit.funcrep import PiecewiseFunction, aligned_pieces
from grusskit.functionals import _delta_form_numeric, gamma_kernel
from grusskit.theorems import THEOREMS

_NODES, _WEIGHTS = leggauss(24)
_EPS = 2.220446049250313e-16


# -- the reference: one integrand per doubled Gauss call --------------------

def _ref_gauss(fun, a, b, tol=1e-12, max_doublings=14):
    if b <= a:
        return 0.0, 0.0

    def composite(panels):
        edges = np.linspace(a, b, panels + 1)
        half = 0.5 * (edges[1:] - edges[:-1])
        mid = 0.5 * (edges[1:] + edges[:-1])
        ts = mid[:, None] + half[:, None] * _NODES[None, :]
        vals = fun(ts.ravel()).reshape(ts.shape)
        return float(np.sum(half[:, None] * _WEIGHTS[None, :] * vals))

    prev = composite(1)
    panels = 2
    for _ in range(max_doublings):
        cur = composite(panels)
        diff = abs(cur - prev)
        if diff <= tol * max(1.0, abs(cur)):
            return cur, diff + _EPS * abs(cur)
        prev = cur
        panels *= 2
    return prev, abs(prev) * 1e-9 + tol


def _ref_integrate_against(fun, f, splits=(), tol=1e-10):
    tiny = 1e-14 * (f.b - f.a)
    total = 0.0
    for lo, hi, fc in aligned_pieces(f, splits=splits):
        if hi - lo <= tiny:
            continue
        dc = poly.pderiv(fc)
        if poly.is_zero_poly(dc):
            continue
        val, _ = _ref_gauss(
            lambda ts, dc=dc: fun(ts) * nppoly.polyval(ts, np.asarray(dc)),
            lo, hi, tol=tol)
        total += val
    for t, mass in f.jump_masses():
        total += float(fun(np.array([t]))[0]) * mass
    return total


def _ref_delta_fn(N):
    a, b = N.domain
    lim_a = poly.pvalue(poly.pderiv(N.pieces[0]), a) / (b - a)
    lim_b = -poly.pvalue(poly.pderiv(N.pieces[-1]), b) / (b - a)

    def fn(ts):
        ts = np.asarray(ts, dtype=float)
        denom = (ts - a) * (b - ts)
        regular = denom != 0.0
        if regular.all():
            return N.piece_values(ts) / denom
        out = np.empty_like(ts)
        out[regular] = N.piece_values(ts[regular]) / denom[regular]
        out[ts == a] = lim_a
        out[ts == b] = lim_b
        return out
    return fn


def _ref_delta_cuts(N):
    return list(N.breakpoints) + [
        t for lo, hi, c in aligned_pieces(N)
        for t in poly.proots(c, lo, hi) if lo < t < hi]


def _ref_delta_norm(N, p):
    dfn = _ref_delta_fn(N)
    ident = PiecewiseFunction.from_coeffs((0.0, 1.0), N.a, N.b)
    total = _ref_integrate_against(lambda ts: np.abs(dfn(ts)) ** p, ident,
                                   _ref_delta_cuts(N), tol=1e-11)
    return max(total, 0.0) ** (1.0 / p)


def _ref_a14(N, f, p):
    """(plain, p_norm) tiers of Corollary A.14 by the reference route."""
    a, b = f.domain
    width = b - a
    dfn = _ref_delta_fn(N)
    splits = _ref_delta_cuts(N)
    int_absdelta_df = _ref_integrate_against(lambda ts: np.abs(dfn(ts)),
                                             f, splits)
    q = p / (p - 1.0)
    int_dq_df = _ref_integrate_against(
        lambda ts: ((ts - a) * (b - ts)) ** q, f)
    int_deltap_df = _ref_integrate_against(
        lambda ts: np.abs(dfn(ts)) ** p, f, splits)
    return (width / 4.0 * int_absdelta_df,
            int_dq_df ** (1.0 / q) * int_deltap_df ** (1.0 / p) / width)


def _ref_delta_form(f, u):
    a, b = u.domain

    def weighted_delta(ts):
        ts = np.asarray(ts, dtype=float)
        uv = u.values_at(ts)
        ub = u(b)
        ua = u(a)
        return (ts - a) * (ub - uv) - (b - ts) * (uv - ua)

    return _ref_integrate_against(weighted_delta, f, u.breakpoints,
                                  tol=1e-13)


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


def _spy_fallbacks(monkeypatch, module):
    """Count the cell levels on which the pass in ``module`` fell back to
    the whole-function evaluator (jump terms are one node and not
    counted)."""
    real = module.integrate_against
    seen = []

    def spying(fun, f, over=None, splits=(), tol=1e-10):
        def spy(ts, c):
            if c is None and over is not None and ts.size > 1:
                seen.append(ts.size)
            return fun(ts, c)
        return real(spy, f, over, splits, tol)
    monkeypatch.setattr(module, "integrate_against", spying)
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
        _ref_delta_cuts(N), tol=1e-11) for r in powers]
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
    splits = _ref_delta_cuts(N)
    ref = [_ref_integrate_against(lambda ts: np.abs(dfn(ts)), f, splits),
           _ref_integrate_against(lambda ts: np.abs(dfn(ts)) ** p, f,
                                  splits)]
    assert _hex(_delta_integrals(N, f, (1.0, p))) == _hex(ref)
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
    fallbacks = _spy_fallbacks(monkeypatch, bounds)
    if tid == "cor_a_8":
        _assert_a13_matches(f, spec.cert("f", "lipschitz"), u, p)
    else:
        _assert_a14_matches(f, u, p)
    assert fallbacks


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
    fallbacks = _spy_fallbacks(monkeypatch, functionals)
    assert _delta_form_numeric(f, u).hex() == _ref_delta_form(f, u).hex()
    assert fallbacks


def test_constant_integrator_gives_one_zero_per_row():
    # no cell and no jump adds a term; every row still gets its 0.0
    f = PiecewiseFunction.constant(2.0, 0.0, 1.0)
    u = PiecewiseFunction.from_coeffs((0.0, 0.0, 1.0), 0.0, 1.0)
    N = gamma_kernel(u)
    assert _delta_integrals(N, f, (1.0, 3.0)) == [0.0, 0.0]
    assert _delta_form_numeric(f, u) == 0.0
    rep = bound_D_corollaries(f, u, "a14", p=3.0)
    assert rep.tier("plain") == rep.tier("p_norm") == 0.0

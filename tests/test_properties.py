"""Property-based checks over randomly drawn piecewise functions."""

import math
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from grusskit import instances, poly
from grusskit.bounds import beta_int, bound_T_bv
from grusskit.errors import DomainError
from grusskit.funcrep import (Enclosure, PiecewiseFunction,
                              RegularityCertificate, _holder_sample_check,
                              _holder_upper_bound, eval_sided, inf_sup_on,
                              sup_norm_on, total_variation,
                              verify_certificate)
from grusskit.functionals import cheby_T
from grusskit.quadrature import Partition
from grusskit.stieltjes import riemann_integral, rs_integral

seeds = st.integers(min_value=0, max_value=10 ** 9)


def _rng(seed):
    return random.Random(seed)


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_continuous_sample_has_matching_limits(seed):
    rng = _rng(seed)
    a, b = instances.rand_interval(rng)
    f = instances.rand_continuous(rng, a, b)
    t = rng.uniform(a, b)
    if a < t < b:
        assert eval_sided(f, t, "left") \
            == pytest.approx(eval_sided(f, t, "right"), abs=1e-9)


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_variation_additive_over_split(seed):
    rng = _rng(seed)
    a, b = instances.rand_interval(rng)
    f = instances.rand_piecewise(rng, a, b, jumps=True)
    mid = rng.uniform(a + 0.1 * (b - a), b - 0.1 * (b - a))
    whole = total_variation(f)
    left = total_variation(f.restrict(a, mid))
    right = total_variation(f.restrict(mid, b))
    slack = whole.rad + left.rad + right.rad + 1e-9
    assert abs(left.mid + right.mid - whole.mid) <= slack


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_monotone_variation_is_endpoint_gap(seed):
    rng = _rng(seed)
    a, b = instances.rand_interval(rng)
    u = instances.rand_monotone(rng, a, b)
    tv = total_variation(u)
    gap = u(b) - u(a)
    assert tv.mid == pytest.approx(gap, abs=1e-8 * (1.0 + abs(gap)))


@given(seeds, st.floats(min_value=-4.0, max_value=4.0))
@settings(max_examples=40, deadline=None)
def test_sup_norm_scalar_homogeneous(seed, c):
    rng = _rng(seed)
    a, b = instances.rand_interval(rng)
    f = instances.rand_piecewise(rng, a, b, jumps=True)
    lhs = sup_norm_on(f * c).mid
    rhs = abs(c) * sup_norm_on(f).mid
    assert lhs == pytest.approx(rhs, abs=1e-9 * (1.0 + abs(rhs)))


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_bounds_certificate_matches_range(seed):
    rng = _rng(seed)
    a, b = instances.rand_interval(rng)
    f = instances.rand_piecewise(rng, a, b, jumps=True)
    inf_e, sup_e = inf_sup_on(f)
    assert verify_certificate(
        f, RegularityCertificate.bounds(inf_e.lo, sup_e.hi)).ok
    width = sup_e.hi - inf_e.lo
    if width > 1e-6:
        pinch = RegularityCertificate.bounds(inf_e.lo + 0.26 * width,
                                             sup_e.hi - 0.26 * width)
        assert not verify_certificate(f, pinch).ok


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_mean_value_enclosure(seed):
    rng = _rng(seed)
    a, b = instances.rand_interval(rng)
    f = instances.rand_piecewise(rng, a, b, jumps=True)
    mean = riemann_integral(f).value / (b - a)
    inf_e, sup_e = inf_sup_on(f)
    assert inf_e.lo - 1e-9 <= mean <= sup_e.hi + 1e-9


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_functional_vanishes_for_constant_arguments(seed):
    rng = _rng(seed)
    a, b = instances.rand_interval(rng)
    g = instances.rand_continuous(rng, a, b)
    u = instances.ensure_span(
        rng, lambda: instances.rand_piecewise(rng, a, b, jumps=True))
    c = PiecewiseFunction.constant(rng.uniform(-3, 3), a, b)
    assert cheby_T(c, g, u).value == pytest.approx(0.0, abs=1e-9)


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_uniform_bound_soundness(seed):
    rng = _rng(seed)
    a, b = instances.rand_interval(rng)
    f = instances.rand_continuous(rng, a, b)
    g = instances.rand_continuous(rng, a, b)
    u = instances.ensure_span(
        rng, lambda: instances.rand_piecewise(rng, a, b, jumps=True))
    rep = bound_T_bv(f, g, u, instances.rand_bounds_cert(f))
    assert rep.holds


@given(st.floats(min_value=-5, max_value=5),
       st.floats(min_value=0, max_value=5))
def test_enclosure_invariant(lo, width):
    e = Enclosure(lo, lo + width)
    assert e.lo <= e.mid <= e.hi
    assert e.rad == pytest.approx(width / 2)
    with pytest.raises(DomainError):
        Enclosure(1.0, 0.0)


@given(st.integers(min_value=1, max_value=9),
       st.integers(min_value=1, max_value=9))
def test_beta_symmetry(x, y):
    assert beta_int(x, y) == pytest.approx(beta_int(y, x))


@given(st.integers(min_value=1, max_value=64),
       st.floats(min_value=-3, max_value=3),
       st.floats(min_value=0.5, max_value=4))
def test_uniform_partition_mesh(n, a, width):
    p = Partition.uniform(a, a + width, n)
    assert p.n == n
    assert p.mesh == pytest.approx(max(p.widths))
    assert p.mesh <= width / n * (1 + 1e-12)


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_window_splitting_of_stieltjes_integral(seed):
    rng = _rng(seed)
    a, b = instances.rand_interval(rng)
    f = instances.rand_continuous(rng, a, b)
    u = instances.rand_piecewise(rng, a, b, jumps=True)
    mid = rng.uniform(a + 0.2 * (b - a), b - 0.2 * (b - a))
    whole = rs_integral(f, u).value
    parts = rs_integral(f.restrict(a, mid), u.restrict(a, mid)).value \
        + rs_integral(f.restrict(mid, b), u.restrict(mid, b)).value
    assert whole == pytest.approx(parts, abs=1e-9 * (1.0 + abs(whole)))


@given(seeds, st.floats(min_value=0.05, max_value=0.95),
       st.floats(min_value=1.0, max_value=2.0))
@settings(max_examples=60, deadline=None)
def test_holder_closed_form_pass_implies_grid_pass(seed, r, factor):
    """The closed-form r < 1 test never accepts what the 512-point grid
    rejects, so the grid stays the reference for every verdict."""
    rng = _rng(seed)
    a, b = instances.rand_interval(rng)
    f = instances.rand_continuous(rng, a, b)
    H = _holder_upper_bound(f, r) * factor
    chk = verify_certificate(f, RegularityCertificate.holder(H, r))
    assert chk.ok and chk.detail.startswith("certified")
    assert _holder_sample_check(f, H, r).ok


def _fresh_sided_values(f):
    """The sided-value rows as the generator computed them before the
    table was kept on the instance: recomputed on every call."""
    last = len(f.breakpoints) - 1
    for i, t in enumerate(f.breakpoints):
        v = f.point_values[i]
        left = v if i == 0 else poly.pvalue(f.pieces[i - 1], t)
        right = v if i == last else poly.pvalue(f.pieces[i], t)
        yield (t, left, v, right,
               1e-12 * (1.0 + max(abs(left), abs(v), abs(right))))


def _fresh_jump_data(f) -> dict:
    jumps = [(t, left, v, right)
             for t, left, v, right, tol in _fresh_sided_values(f)
             if abs(v - left) > tol or abs(right - v) > tol]
    slack = 0.0
    for t, left, v, right, tol in _fresh_sided_values(f):
        if abs(v - left) <= tol and abs(right - v) <= tol:
            slack += abs(v - left) + abs(right - v)
    return {"jumps": jumps,
            "jump_masses": [(t, right - left) for t, left, _, right in jumps
                            if right != left],
            "jump_slack": slack,
            "discontinuity_points": [t for t, *_ in jumps],
            "is_continuous": not jumps}


@given(seeds, st.sampled_from(["jumps", "no jumps", "continuous"]),
       st.permutations(["jumps", "jump_masses", "jump_slack",
                        "discontinuity_points", "is_continuous"]))
@settings(max_examples=80, deadline=None)
def test_kept_jump_data_equals_a_fresh_computation(seed, kind, order):
    rng = _rng(seed)
    a, b = instances.rand_interval(rng)
    if kind == "continuous":
        f = instances.rand_continuous(rng, a, b)
    else:
        f = instances.rand_piecewise(rng, a, b, jumps=kind == "jumps")
    c = rng.uniform(a, b)
    d = rng.uniform(c, b)
    functions = [f] + [f.restrict(lo, hi) for lo, hi in ((a, c), (c, d))
                       if lo < hi]
    for h in functions:
        want = _fresh_jump_data(h)
        for _ in range(2):    # the first pass fills the table
            for name in order:
                assert getattr(h, name)() == want[name], name
        fresh = PiecewiseFunction(h.breakpoints, h.pieces, h.point_values)
        assert "_sided" in vars(h) and "_sided" not in vars(fresh)
        assert h == fresh and hash(h) == hash(fresh)
        assert repr(h) == repr(fresh)


# -- the piece derivative memo of poly --------------------------------------
# proots, pcritical, pminmax_on and pvariation_on as they were before the
# derivative entries: everything re-derived from the coefficients on each
# call

def _fresh_proots(c, lo, hi):
    if hi <= lo:
        return []
    deg = poly.effective_degree(c)
    if deg <= 0:
        return []
    ct = tuple(c[:deg + 1])
    scale = poly._coeff_scale(ct, lo, hi)
    ztol = 1e-13 * scale
    if deg == 1:
        c0, c1 = ct
        r = -c0 / c1
        span = 1e-12 * max(1.0, abs(lo), abs(hi))
        return [r] if lo - span <= r <= hi + span else []
    if deg == 2:
        a2, a1, a0 = ct[2], ct[1], ct[0]
        disc = a1 * a1 - 4.0 * a2 * a0
        if disc < 0.0:
            return []
        sq = math.sqrt(disc)
        if a1 >= 0.0:
            r1 = (-a1 - sq) / (2.0 * a2)
        else:
            r1 = (-a1 + sq) / (2.0 * a2)
        r2 = a0 / (a2 * r1) if r1 != 0.0 else -a1 / a2
        out = sorted(r for r in (r1, r2) if lo - 1e-12 <= r <= hi + 1e-12)
        return poly._dedupe(out, lo, hi)
    crit = _fresh_proots(poly.pderiv(ct), lo, hi)
    nodes = poly._dedupe([lo] + crit + [hi], lo, hi)
    roots = []
    vals = [poly.pvalue(ct, x) for x in nodes]
    for i in range(len(nodes) - 1):
        x0, x1 = nodes[i], nodes[i + 1]
        v0, v1 = vals[i], vals[i + 1]
        if abs(v0) <= ztol:
            roots.append(x0)
            continue
        if abs(v1) <= ztol:
            continue
        if (v0 > 0) != (v1 > 0):
            roots.append(poly._bisect_root(ct, x0, x1, v0))
    if abs(vals[-1]) <= ztol:
        roots.append(nodes[-1])
    return poly._dedupe(sorted(roots), lo, hi)


def _fresh_pcritical(c, lo, hi):
    eps = 1e-14 * max(1.0, abs(lo), abs(hi))
    return [x for x in _fresh_proots(poly.pderiv(c), lo, hi)
            if lo + eps < x < hi - eps]


def _fresh_pminmax_on(c, lo, hi):
    vals = [poly.pvalue(c, x) for x in [lo, hi] + _fresh_pcritical(c, lo, hi)]
    return min(vals), max(vals)


def _fresh_pvariation_on(c, lo, hi):
    nodes = [lo] + _fresh_pcritical(c, lo, hi) + [hi]
    total = 0.0
    prev = poly.pvalue(c, nodes[0])
    for x in nodes[1:]:
        cur = poly.pvalue(c, x)
        total += abs(cur - prev)
        prev = cur
    return total


def _draw_piece(rng, kind):
    """A coefficient tuple whose derivative has the feature ``kind``."""
    if kind == "any degree":
        deg = rng.randint(0, 8)
        return tuple(rng.choice((0.0, -0.0)) if rng.random() < 0.2
                     else rng.uniform(-3.0, 3.0) for _ in range(deg + 1))
    a = rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 3.0)
    r, s = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
    if kind == "linear derivative":
        dc = (-a * r, a)
    elif kind == "two roots":
        dc = (a * r * s, -a * (r + s), a)
    else:  # near a double root: discriminant 0, just below or just above
        e = a * rng.choice((0.0, 1e-17, -1e-17, 1e-15, -1e-15, 1e-12))
        dc = (a * r * r + e, -2.0 * a * r, a)
    return poly.padd(poly.pinteg(dc), (rng.uniform(-1.0, 1.0),))


def _draw_cells(rng, c):
    """Sub-intervals: random ones, empty and one ulp wide ones, and cells
    that end at, start at or straddle a root of the derivative."""
    lo = rng.uniform(-3.0, 3.0)
    cells = [(lo, lo + rng.uniform(0.0, 3.0)), (lo, lo),
             (lo, math.nextafter(lo, math.inf))]
    for x in _fresh_proots(poly.pderiv(c), -4.0, 4.0):
        w = rng.uniform(1e-9, 1.0)
        cells += [(x - w, x), (x, x + w), (x - w, x + w),
                  (math.nextafter(x, -math.inf), x),
                  (x, math.nextafter(x, math.inf))]
    return cells


def _hex(xs):
    return [float.hex(x) for x in xs]


@given(seeds, st.sampled_from(["any degree", "linear derivative",
                               "two roots", "near double root"]),
       st.floats(min_value=-3.0, max_value=3.0))
@settings(max_examples=300, deadline=None)
def test_derivative_entry_paths_equal_a_fresh_derivation(seed, kind, m):
    """The memoised entry, read by the public critical-point functions,
    gives bit for bit the floats that re-deriving on every sub-interval
    gave, for a piece and for its constant shift c - m, also after the
    memo was warmed with the piece's twin whose zeros past the constant
    term have the other sign (0.0 == -0.0, so a tail key alone would
    share an entry between them); degrees 4 to 8 take the proots fallback
    (raw roots None)."""
    rng = _rng(seed)
    c = _draw_piece(rng, kind)
    twin = c[:1] + tuple(-x if x == 0.0 else x for x in c[1:])
    shifted = poly.psub(c, (m,))
    for p in (twin, poly.psub(twin, (m,))):
        poly._derivative_entry(p)
    entry = poly._derivative_entry(c)
    assert (entry[1] is None) == (poly.effective_degree(entry[0]) > 2)
    for lo, hi in _draw_cells(rng, c):
        for p in (c, shifted):
            assert _hex(poly.pcritical(p, lo, hi)) \
                == _hex(_fresh_pcritical(p, lo, hi))
            assert _hex(poly.pminmax_on(p, lo, hi)) \
                == _hex(_fresh_pminmax_on(p, lo, hi))
            assert float.hex(poly.pvariation_on(p, lo, hi)) \
                == float.hex(_fresh_pvariation_on(p, lo, hi))
            assert poly.proots(p, lo, hi) == _fresh_proots(p, lo, hi)

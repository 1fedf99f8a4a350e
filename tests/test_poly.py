import math

import pytest

from grusskit import poly


def test_pvalue_horner():
    assert poly.pvalue((1.0, 2.0, 3.0), 2.0) == 1 + 4 + 12


def test_derivative_and_antiderivative_roundtrip():
    c = (1.0, -2.0, 0.5, 3.0)
    assert poly.pderiv(poly.pinteg(c)) == pytest.approx(c)


def test_pintegrate_matches_closed_form():
    # integral of t^2 over [0, 1]
    assert poly.pintegrate((0.0, 0.0, 1.0), 0.0, 1.0) == pytest.approx(1 / 3)


def test_pmul():
    # (1 + t)(1 - t) = 1 - t^2
    assert poly.pmul((1.0, 1.0), (1.0, -1.0)) == pytest.approx((1, 0, -1))


def test_precenter_shift():
    # p(t) = t^2 recentred at 1: (1 + s)^2
    assert poly.precenter((0.0, 0.0, 1.0), 1.0) == pytest.approx((1, 2, 1))


def test_roots_linear_and_quadratic():
    assert poly.proots((-0.5, 1.0), 0.0, 1.0) == pytest.approx([0.5])
    roots = poly.proots((0.25, -1.0, 1.0), 0.0, 1.0)  # (t - 1/2)^2
    assert all(abs(r - 0.5) < 1e-6 for r in roots)


def test_roots_higher_degree_bisection():
    # t(t - 1/3)(t - 2/3)(t - 1) expanded
    c = poly.pmul(poly.pmul((0.0, 1.0), (-1 / 3, 1.0)),
                  poly.pmul((-2 / 3, 1.0), (-1.0, 1.0)))
    roots = poly.proots(c, 0.0, 1.0)
    assert roots == pytest.approx([0.0, 1 / 3, 2 / 3, 1.0], abs=1e-10)


def test_roots_outside_window_excluded():
    assert poly.proots((-2.0, 1.0), 0.0, 1.0) == []


def test_minmax_quadratic():
    mn, mx = poly.pminmax_on((0.0, 1.0, -1.0), 0.0, 1.0)  # t(1-t)
    assert mn == pytest.approx(0.0)
    assert mx == pytest.approx(0.25)


def test_variation_rises_and_falls():
    assert poly.pvariation_on((0.0, 1.0, -1.0), 0.0, 1.0) \
        == pytest.approx(0.5)
    assert poly.pvariation_on((0.0, 1.0), 0.0, 1.0) == pytest.approx(1.0)


def test_effective_degree_ignores_tiny_leads():
    assert poly.effective_degree((1.0, 1.0, 1e-18)) == 1
    assert poly.effective_degree((0.0,)) == -1


def test_cubic_with_inflection():
    # t^3 - t has roots 0 and 1 in [0, 1] and bounded variation there
    c = (0.0, -1.0, 0.0, 1.0)
    roots = poly.proots(c, -2.0, 2.0)
    assert roots == pytest.approx([-1.0, 0.0, 1.0], abs=1e-10)
    mn, mx = poly.pminmax_on(c, 0.0, 1.0)
    assert mn == pytest.approx(-2.0 / (3.0 * math.sqrt(3.0)))
    assert mx == pytest.approx(0.0, abs=1e-12)


# p = t^2 + 0.3 t - 0.25 has the root 0.37201532544552746 in [0, 1]; at
# 2^520 times p its discriminant overflowed, and at 2^-560 times p it
# underflowed to zero, each giving a wrong root set
@pytest.mark.parametrize("scale", [1.0, 2.0 ** 520, 2.0 ** -560])
def test_quadratic_roots_are_scale_free(scale):
    c = tuple(scale * x for x in (-0.25, 0.3, 1.0))
    assert poly.proots(c, 0.0, 1.0) == [0.37201532544552746]


# t^3 - 1/8 on [-3, 3]: at 2^1020 its values overflowed, and at 2^-1040
# they fell below the zero tolerance, so the sign tests found roots at
# -3, 0 and 3
@pytest.mark.parametrize("scale", [1.0, 2.0 ** 1020, 2.0 ** -1040])
def test_cubic_sign_tests_are_scale_free(scale):
    c = tuple(scale * x for x in (-0.125, 0.0, 0.0, 1.0))
    assert poly.proots(c, -3.0, 3.0) == [0.5]


def test_bounds_check_sees_the_minimum_of_a_huge_cubic():
    # f = 2^520 (4t^3 - t) has its minimum -0.19 * 2^520 at t = 12^-1/2;
    # an overflowing discriminant of f' hid that critical point
    from grusskit.funcrep import (PiecewiseFunction, RegularityCertificate,
                                  verify_certificate)
    big = 2.0 ** 520
    f = PiecewiseFunction.from_coeffs((0.0, -big, 0.0, 4.0 * big), 0.0, 1.0)
    chk = verify_certificate(f, RegularityCertificate.bounds(0.0, 3.0 * big))
    assert not chk.ok
    assert chk.witness == pytest.approx(12.0 ** -0.5, rel=1e-12)

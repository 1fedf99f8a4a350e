import random

import pytest

from grusskit import instances
from grusskit.errors import SharedDiscontinuity
from grusskit.funcrep import PiecewiseFunction, sup_norm_on, total_variation
from grusskit.stieltjes import (riemann_integral, rs_integral, rs_oracle,
                                rs_product_integral)
from grusskit.bounds import abs_integral


class TestStieltjesIntegral:
    def test_endpoint_jump_mean(self, ident, u_jump):
        res = rs_integral(ident, u_jump)
        assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_endpoint_jump_square(self, tsq, u_jump):
        res = rs_integral(tsq, u_jump)
        assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_polynomial_integrator(self, ident, tsq):
        res = rs_integral(ident, tsq)
        assert res.value == pytest.approx(2 / 3, abs=1e-12)

    def test_shared_jump_refused(self, pm_step, step_at_mid):
        with pytest.raises(SharedDiscontinuity) as exc:
            rs_integral(pm_step, step_at_mid)
        assert exc.value.point == pytest.approx(0.5)

    def test_interior_jump_with_drift(self, ident):
        u = PiecewiseFunction((0.0, 0.5, 1.0), ((0.0, 1.0), (1.0, 1.0)),
                              (0.0, 0.5, 2.0))
        res = rs_integral(ident, u)
        assert res.value == pytest.approx(0.5 + 0.5, abs=1e-12)

    def test_window(self, ident, tsq):
        res = rs_integral(ident.restrict(0.0, 0.5), tsq.restrict(0.0, 0.5))
        # integral of 2t^2 over [0, 1/2]
        assert res.value == pytest.approx(2 / 3 * 0.125, abs=1e-12)

    def test_window_edge_jump_convention(self, ident):
        # u = t plus a unit jump at 1/2 whose point value sits at the left
        # level: the right window picks up the whole (value -> right) jump,
        # the left window none of it, and the halves sum to the whole.
        u = PiecewiseFunction((0.0, 0.5, 1.0), ((0.0, 1.0), (1.0, 1.0)),
                              (0.0, 0.5, 2.0))
        right = rs_integral(ident.restrict(0.5, 1.0),
                            u.restrict(0.5, 1.0)).value
        left = rs_integral(ident.restrict(0.0, 0.5),
                           u.restrict(0.0, 0.5)).value
        assert right == pytest.approx(3 / 8 + 0.5, abs=1e-12)
        assert left == pytest.approx(1 / 8, abs=1e-12)
        whole = rs_integral(ident, u).value
        assert left + right == pytest.approx(whole, abs=1e-12)

    def test_closed_form_error_budget(self, ident, tsq, u_jump):
        for f, u in ((ident, tsq), (ident, u_jump), (tsq, u_jump)):
            assert rs_integral(f, u).abs_error <= 1e-12


class TestRiemannIntegral:
    def test_line(self, ident):
        assert riemann_integral(ident).value == pytest.approx(0.5)

    def test_vee(self, vee):
        assert riemann_integral(vee).value == pytest.approx(0.25)

    def test_step_mean_zero(self, pm_step):
        assert riemann_integral(pm_step).value == pytest.approx(0.0)


class TestOracle:
    def test_polynomial_integrator(self, ident, tsq):
        res = rs_oracle(ident, tsq, n=4096)
        assert res.value == pytest.approx(2 / 3, abs=1e-6)
        assert abs(res.value - 2 / 3) <= res.abs_error + 1e-12

    def test_constant_integrator(self, ident, one):
        assert rs_oracle(ident, one, n=16).value == pytest.approx(0.0)

    def test_jump_integrator_any_n(self, ident, u_jump):
        for n in (1, 7, 64):
            assert rs_oracle(ident, u_jump, n=n).value \
                == pytest.approx(1.0, abs=1e-9)

    def test_agreement_with_closed_form(self, ident, tsq, u_jump, pm_step,
                                        vee):
        fixtures = [
            (ident, tsq), (ident, u_jump), (tsq, u_jump),
            (pm_step, ident), (vee, tsq), (tsq, vee),
        ]
        for f, u in fixtures:
            exact = rs_integral(f, u)
            approx = rs_oracle(f, u, n=2 ** 12)
            assert abs(exact.value - approx.value) \
                <= exact.abs_error + approx.abs_error


class TestProperties:
    def test_linearity(self):
        rng = random.Random(12)
        for _ in range(25):
            a, b = instances.rand_interval(rng)
            f = instances.rand_continuous(rng, a, b)
            g = instances.rand_continuous(rng, a, b)
            u = instances.rand_piecewise(rng, a, b, jumps=True)
            al, be = rng.uniform(-2, 2), rng.uniform(-2, 2)
            lhs = rs_integral(al * f + be * g, u)
            rhs = al * rs_integral(f, u).value + be * rs_integral(g, u).value
            assert lhs.value == pytest.approx(rhs, abs=1e-9)

    def test_integration_by_parts(self):
        rng = random.Random(13)
        for _ in range(25):
            a, b = instances.rand_interval(rng)
            f = instances.rand_continuous(rng, a, b)
            u = instances.rand_piecewise(rng, a, b, jumps=True)
            left = rs_integral(f, u).value + rs_integral(u, f).value
            right = f(b) * u(b) - f(a) * u(a)
            assert left == pytest.approx(right, abs=1e-9)

    def test_triangle_bounds(self):
        rng = random.Random(14)
        for _ in range(20):
            a, b = instances.rand_interval(rng)
            p = instances.rand_continuous(rng, a, b)
            v_bv = instances.rand_piecewise(rng, a, b, jumps=True)
            val = abs(rs_integral(p, v_bv).value)
            cap = sup_norm_on(p).hi * total_variation(v_bv).hi
            assert val <= cap + 1e-9 * (1.0 + cap)

            v_mono = instances.rand_monotone(rng, a, b)
            val = abs(rs_integral(p, v_mono).value)
            cap = abs_integral(p, v_mono)
            assert val <= cap + 1e-9 * (1.0 + cap)

            v_lip, lip = instances.rand_lipschitz(rng, a, b)
            val = abs(rs_integral(p, v_lip).value)
            cap = lip.params[0] * abs_integral(p)
            assert val <= cap + 1e-9 * (1.0 + cap)

    def test_product_integral_matches_pointwise_product(self, ident, tsq,
                                                        u_jump):
        via_product = rs_integral(ident * tsq, u_jump).value
        direct = rs_product_integral([ident, tsq], u_jump).value
        assert via_product == pytest.approx(direct, abs=1e-12)

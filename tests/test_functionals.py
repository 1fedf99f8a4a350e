import random

import numpy as np
import pytest

from grusskit import instances
from grusskit.errors import DegenerateIntegrator, DegenerateWeight, DomainError
from grusskit.funcrep import PiecewiseFunction
from grusskit.functionals import (cheby_T, functional_D, functional_E,
                                  gamma_kernel, identity_residual_D,
                                  kernel_delta, kernel_gamma, kernel_phi,
                                  phi_kernel, weighted_Tw)
from grusskit.stieltjes import riemann_integral, rs_product_integral


class TestChebyT:
    def test_endpoint_jump_witness(self, ident, u_jump):
        res = cheby_T(ident, ident, u_jump)
        assert res.value == pytest.approx(0.25, abs=1e-12)

    def test_constant_factor_vanishes(self, ident, one, u_jump):
        assert cheby_T(ident, one, u_jump).value \
            == pytest.approx(0.0, abs=1e-12)

    def test_step_pair_unit(self, pm_step, ident):
        assert cheby_T(pm_step, pm_step, ident).value \
            == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_integrator(self, ident, one):
        with pytest.raises(DegenerateIntegrator):
            cheby_T(ident, ident, one)

    def test_symmetry_and_shift(self):
        rng = random.Random(21)
        for _ in range(20):
            a, b = instances.rand_interval(rng)
            f = instances.rand_continuous(rng, a, b)
            g = instances.rand_continuous(rng, a, b)
            u = instances.ensure_span(
                rng, lambda: instances.rand_piecewise(rng, a, b, jumps=True))
            t_fg = cheby_T(f, g, u).value
            t_gf = cheby_T(g, f, u).value
            assert t_fg == pytest.approx(t_gf, abs=1e-9)
            c = rng.uniform(-3, 3)
            assert cheby_T(f + c, g, u).value \
                == pytest.approx(t_fg, abs=1e-9)

    def test_centred_product_identities(self):
        # both centring identities: constant (m+M)/2 and midpoint value
        rng = random.Random(22)
        for _ in range(15):
            a, b = instances.rand_interval(rng)
            f = instances.rand_continuous(rng, a, b)
            g = instances.rand_continuous(rng, a, b)
            u = instances.ensure_span(
                rng, lambda: instances.rand_piecewise(rng, a, b, jumps=True))
            span = u(b) - u(a)
            t_val = cheby_T(f, g, u).value
            mean_g = cheby_T(f, g, u).components["mean_g"]
            from grusskit.funcrep import inf_sup_on
            lo, hi = inf_sup_on(f)
            for shift in (0.5 * (lo.mid + hi.mid), f(0.5 * (a + b))):
                centred = rs_product_integral([f - shift, g - mean_g],
                                              u).value / span
                assert centred == pytest.approx(t_val, abs=1e-9)


class TestWeighted:
    def test_unit_weight_classic(self, ident, one):
        assert weighted_Tw(ident, ident, one).value \
            == pytest.approx(1 / 12, abs=1e-12)

    def test_constant_argument(self, one, ident):
        assert weighted_Tw(one, ident, one).value \
            == pytest.approx(0.0, abs=1e-12)

    def test_mixed_powers(self, ident, tsq, one):
        assert weighted_Tw(ident, tsq, one).value \
            == pytest.approx(1 / 12, abs=1e-12)

    def test_zero_mass_weight_rejected(self, ident, centred_line):
        with pytest.raises(DegenerateWeight):
            weighted_Tw(ident, ident, centred_line)


class TestFunctionalD:
    def test_step_at_right_end(self, centred_line, step_at_b):
        assert functional_D(centred_line, step_at_b).value \
            == pytest.approx(0.5, abs=1e-12)

    def test_identity_integrator_vanishes(self, centred_line, ident):
        assert functional_D(centred_line, ident).value \
            == pytest.approx(0.0, abs=1e-12)

    def test_midpoint_step_vanishes(self, centred_line, step_at_mid):
        # the two defining terms cancel: the jump sits where f crosses zero
        assert functional_D(centred_line, step_at_mid).value \
            == pytest.approx(0.0, abs=1e-12)

    def test_quadratic_integrator(self, ident, tsq):
        assert functional_D(ident, tsq).value \
            == pytest.approx(1 / 6, abs=1e-12)


class TestFunctionalE:
    def test_unit_weight_matches_weighted(self, ident, one):
        e = functional_E(ident, ident, one).value
        t = weighted_Tw(ident, ident, one).value
        assert e == pytest.approx(t, abs=1e-12)
        assert e == pytest.approx(1 / 12, abs=1e-12)

    def test_constant_second_argument(self, ident, one):
        c = PiecewiseFunction.constant(3.0, 0.0, 1.0)
        assert functional_E(ident, c, one).value \
            == pytest.approx(0.0, abs=1e-12)

    def test_matches_mismatch_functional_with_ratio_integrator(self):
        rng = random.Random(23)
        for _ in range(10):
            a, b = instances.rand_interval(rng)
            f = instances.rand_continuous(rng, a, b)
            g = instances.rand_continuous(rng, a, b)
            w = instances.rand_nonneg_weight(rng, a, b)
            total_w = riemann_integral(w).value
            wg = (w * g).antiderivative()
            u = wg * (1.0 / total_w)
            e_direct = functional_E(f, g, w).value
            d_route = functional_D(f, u).value
            assert e_direct == pytest.approx(d_route, abs=1e-9)


class TestKernels:
    def test_linear_integrator_kernels_vanish(self, ident):
        for t in (0.1, 0.5, 0.9):
            assert kernel_phi(ident, t) == pytest.approx(0.0, abs=1e-12)
            assert kernel_gamma(ident, t) == pytest.approx(0.0, abs=1e-12)
            assert kernel_delta(ident, t) == pytest.approx(0.0, abs=1e-12)

    def test_square_integrator_values(self, tsq):
        assert kernel_gamma(tsq, 0.5) == pytest.approx(0.25)
        assert kernel_delta(tsq, 0.5) == pytest.approx(1.0)
        assert 0.5 * 0.5 * kernel_delta(tsq, 0.5) \
            == pytest.approx(kernel_gamma(tsq, 0.5))

    def test_domain_restrictions(self, tsq):
        with pytest.raises(DomainError):
            kernel_delta(tsq, 0.0)
        with pytest.raises(DomainError):
            kernel_delta(tsq, 1.0)
        with pytest.raises(DomainError):
            kernel_phi(tsq, 1.0)
        kernel_gamma(tsq, 1.0)  # closed at both ends

    def test_pointwise_identities_on_grids(self):
        rng = random.Random(24)
        for _ in range(10):
            a, b = instances.rand_interval(rng)
            u = instances.rand_continuous(rng, a, b)
            ts = np.linspace(a, b, 1000)[1:-1]
            gam = gamma_kernel(u).values_at(ts)
            phi = phi_kernel(u).values_at(ts)
            scale = 1.0 + float(np.max(np.abs(gam)))
            assert np.max(np.abs(gam - (b - a) * phi)) <= 1e-12 * scale
            dl = np.array([kernel_delta(u, float(t)) for t in ts[::37]])
            weighted = (ts[::37] - a) * (b - ts[::37]) * dl
            assert np.max(np.abs(gam[::37] - weighted)) <= 1e-12 * scale


class TestIdentityResidual:
    def test_smooth_pair(self, tsq, tcube):
        assert identity_residual_D(tsq, tcube) <= 1e-10

    def test_linear_integrator(self, ident, tsq):
        # integrator linear in the kernel slot: everything vanishes
        assert identity_residual_D(tsq, ident) <= 1e-10

    def test_mixed_pair(self, ident, tsq):
        assert functional_D(ident, tsq).value == pytest.approx(1 / 6)
        assert identity_residual_D(ident, tsq) <= 1e-10

    def test_step_function_against_smooth_kernel(self, pm_step, tsq):
        # integrator of bounded variation with jumps, u smooth
        assert identity_residual_D(pm_step, tsq) <= 1e-8

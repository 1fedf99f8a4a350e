import inspect
import json
import math
import random
from dataclasses import replace

import numpy as np
import pytest
from numpy.polynomial import polynomial as nppoly

from grusskit import battery, funcrep, instances, jsonio, stieltjes
from grusskit.cli import run
from grusskit.errors import (BadExponent, CertificateInvalid, ClassMismatch,
                             DegenerateIntegrator, DegenerateWeight,
                             DomainError, HypothesisFailed, NegativeWeight,
                             NotMonotone)
from grusskit.funcrep import (PiecewiseFunction, RegularityCertificate,
                              total_variation)
from grusskit.bounds import (_delta_integrals, beta_int,
                             bound_D_corollaries, bound_D_kernel,
                             bound_D_monotone_K, bound_D_monotone_Q,
                             bound_D_prior, bound_T_bv, bound_T_holder_bv,
                             bound_T_holder_lipschitz,
                             bound_T_holder_monotone, bound_T_lipschitz_u,
                             bound_T_monotone, bound_quadrature_remainder,
                             ostrowski_pointwise,
                             positivity_check_D,
                             sup_abs_delta, weighted_bounds)
from grusskit.functionals import gamma_kernel
from grusskit.stieltjes import riemann_integral
from grusskit.theorems import THEOREMS


B = RegularityCertificate.bounds
L = RegularityCertificate.lipschitz
H = RegularityCertificate.holder
V = RegularityCertificate.bounded_variation


class TestUniformBoundBV:
    def test_witness_saturates(self, ident, u_jump):
        rep = bound_T_bv(ident, ident, u_jump, B(0.0, 1.0))
        assert rep.lhs == pytest.approx(0.25, abs=1e-12)
        assert rep.rhs == pytest.approx(0.25, abs=1e-9)
        assert rep.ratio == pytest.approx(1.0, abs=1e-9)
        assert rep.holds

    def test_constant_factor(self, ident, one, u_jump):
        rep = bound_T_bv(ident, one, u_jump, B(0.0, 1.0))
        assert rep.lhs == pytest.approx(0.0, abs=1e-12)
        assert rep.rhs == pytest.approx(0.0, abs=1e-10)
        assert rep.holds and rep.ratio == 0.0

    def test_smooth_integrator(self, ident, tsq):
        rep = bound_T_bv(ident, tsq, ident, B(0.0, 1.0))
        assert rep.lhs == pytest.approx(1 / 12, abs=1e-12)
        assert rep.rhs == pytest.approx(1 / 3, abs=1e-9)
        assert rep.ratio == pytest.approx(0.25, abs=1e-9)

    def test_invalid_certificate(self, tsq, u_jump):
        with pytest.raises(CertificateInvalid):
            bound_T_bv(tsq, tsq, u_jump, B(0.0, 0.5))

    def test_scale_covariance(self, ident, tsq):
        rep1 = bound_T_bv(ident, tsq, ident, B(0.0, 1.0))
        rep2 = bound_T_bv(ident, tsq * 5.0, ident, B(0.0, 1.0))
        assert rep2.lhs == pytest.approx(5.0 * rep1.lhs, rel=1e-9)
        assert rep2.rhs == pytest.approx(5.0 * rep1.rhs, rel=1e-9)
        assert rep2.ratio == pytest.approx(rep1.ratio, abs=1e-9)


class TestMonotoneBound:
    def test_witness_saturates(self, ident, u_jump):
        rep = bound_T_monotone(ident, ident, u_jump, B(0.0, 1.0))
        assert rep.rhs == pytest.approx(0.25, abs=1e-10)
        assert rep.ratio == pytest.approx(1.0, abs=1e-9)

    def test_square_integrator(self, ident, tsq):
        rep = bound_T_monotone(ident, ident, tsq, B(0.0, 1.0))
        assert rep.holds

    def test_not_monotone_rejected(self, ident, vee):
        with pytest.raises(NotMonotone):
            bound_T_monotone(ident, ident, vee, B(0.0, 1.0))

    @pytest.mark.parametrize("bound, cert", [
        (bound_T_monotone, B(0.0, 1.0)),
        (bound_T_holder_monotone, H(1.0, 1.0)),
    ])
    def test_falling_span_rejected(self, ident, bound, cert):
        # u = 0 on [0, 1) and u(1) = -5e-13: the drop is below the jump
        # threshold, so u passes as monotone, but its span is negative
        u = PiecewiseFunction((0.0, 1.0), ((0.0,),), (0.0, -5e-13))
        with pytest.raises(DegenerateIntegrator,
                           match=r"^need u\(b\) > u\(a\)$"):
            bound(ident, ident, u, cert)


class TestLipschitzIntegratorBound:
    def test_step_witness(self, pm_step, ident):
        rep = bound_T_lipschitz_u(pm_step, pm_step, ident,
                                  B(-1.0, 1.0), L(1.0))
        assert rep.lhs == pytest.approx(1.0, abs=1e-12)
        assert rep.rhs == pytest.approx(1.0, abs=1e-9)
        assert rep.ratio == pytest.approx(1.0, abs=1e-9)

    def test_lines(self, ident):
        rep = bound_T_lipschitz_u(ident, ident, ident, B(0.0, 1.0), L(1.0))
        assert rep.lhs == pytest.approx(1 / 12, abs=1e-12)
        assert rep.rhs == pytest.approx(1 / 8, abs=1e-9)

    def test_jumpy_integrator_rejected(self, ident, u_jump):
        with pytest.raises(CertificateInvalid):
            bound_T_lipschitz_u(ident, ident, u_jump, B(0.0, 1.0), L(100.0))


class TestHolderBVBound:
    def test_lipschitz_tier_witness(self, ident, u_jump):
        rep = bound_T_holder_bv(ident, ident, u_jump, H(1.0, 1.0))
        assert rep.ratio == pytest.approx(1.0, abs=1e-9)

    def test_fractional_exponent_holds(self, tsq, u_jump):
        surrogate = PiecewiseFunction.from_coeffs((0.0, 1.0), 0.0, 1.0)
        rep = bound_T_holder_bv(surrogate, tsq, u_jump, H(1.0, 0.5))
        assert rep.holds


class TestHolderMonotoneBound:
    def test_witness_chain(self, ident, u_jump):
        rep = bound_T_holder_monotone(ident, ident, u_jump, H(1.0, 1.0))
        assert rep.tier("pointwise") == pytest.approx(0.25, abs=1e-10)
        assert rep.tier("uniform") == pytest.approx(0.25, abs=1e-10)
        assert rep.ratio == pytest.approx(1.0, abs=1e-9)

    def test_identity_integrator_tier_is_exact(self, ident):
        rep = bound_T_holder_monotone(ident, ident, ident, H(1.0, 1.0))
        assert rep.lhs == pytest.approx(1 / 12, abs=1e-12)
        assert rep.tier("pointwise") == pytest.approx(1 / 12, abs=1e-10)
        assert rep.ratio == pytest.approx(1.0, abs=1e-7)


class TestHolderLipschitzBound:
    def test_witness_branches(self, centred_line, pm_step, ident):
        rep = bound_T_holder_lipschitz(centred_line, pm_step, ident,
                                       H(1.0, 1.0), L(1.0), p=2.0)
        assert rep.lhs == pytest.approx(0.25, abs=1e-12)
        assert rep.tier("pointwise") == pytest.approx(0.25, abs=1e-10)
        assert rep.tier("sup") == pytest.approx(0.25, abs=1e-10)
        assert rep.tier("p_norm") == pytest.approx(1 / (2 * math.sqrt(3)),
                                                   abs=1e-9)
        assert rep.tier("one_norm") == pytest.approx(0.5, abs=1e-9)
        assert rep.ratio == pytest.approx(1.0, abs=1e-9)

    def test_bad_exponent(self, centred_line, pm_step, ident):
        with pytest.raises(BadExponent):
            bound_T_holder_lipschitz(centred_line, pm_step, ident,
                                     H(1.0, 1.0), L(1.0), p=0.5)


class TestWeightedItems:
    def test_unknown_item_rejected(self, ident, one):
        with pytest.raises(DomainError,
                           match="^unknown weighted item 'item9'$"):
            weighted_bounds(ident, ident, one, "item9", f_bounds=B(0, 1))

    def test_unit_weight_monotone_item(self, ident, one):
        rep = weighted_bounds(ident, ident, one, "item2", f_bounds=B(0, 1))
        assert rep.lhs == pytest.approx(1 / 12, abs=1e-12)
        assert rep.rhs == pytest.approx(1 / 8, abs=1e-9)

    def test_constant_second_argument(self, ident, one):
        rep = weighted_bounds(ident, one, one, "item1", f_bounds=B(0, 1))
        assert rep.lhs == pytest.approx(0.0, abs=1e-12)
        assert rep.holds

    def test_variation_equals_weight_mass(self, ident):
        w = PiecewiseFunction.from_coeffs((0.0, 1.0), 0.0, 1.0)
        u = w.antiderivative()
        assert total_variation(u).mid == pytest.approx(0.5, abs=1e-9)
        rep = weighted_bounds(ident, ident, w, "item1", f_bounds=B(0, 1))
        assert rep.holds

    def test_negative_weight_rejected_for_monotone_items(self, ident,
                                                         centred_line):
        with pytest.raises(NegativeWeight):
            weighted_bounds(ident, ident, centred_line, "item2",
                            f_bounds=B(0, 1))

    def test_zero_mass_rejected(self, ident, centred_line):
        with pytest.raises(DegenerateWeight):
            weighted_bounds(ident, ident, centred_line, "item1",
                            f_bounds=B(0, 1))

    def test_holder_items_hold(self, ident, tsq, one):
        for which in ("item4", "item5", "item6"):
            rep = weighted_bounds(ident, tsq, one, which,
                                  f_holder=H(1.0, 1.0), p=2.0)
            assert rep.holds, which


class TestPriorMismatchBounds:
    def test_lipschitz_f_witness(self, centred_line, step_at_b):
        (rep,) = bound_D_prior(centred_line, step_at_b, f_lipschitz=L(1.0))
        assert rep.theorem_id == "thm_a_2"
        assert rep.lhs == pytest.approx(0.5, abs=1e-12)
        assert rep.rhs == pytest.approx(0.5, abs=1e-9)
        assert rep.ratio == pytest.approx(1.0, abs=1e-9)

    def test_both_certificates(self, ident, tsq):
        reps = bound_D_prior(ident, tsq, f_bounds=B(0, 1),
                             f_lipschitz=L(1.0), u_lipschitz=L(2.0))
        assert {r.theorem_id for r in reps} == {"thm_a_1", "thm_a_2"}
        assert all(r.holds for r in reps)

    def test_no_certificates(self, ident, tsq):
        with pytest.raises(CertificateInvalid):
            bound_D_prior(ident, tsq)

    def test_step_against_line_is_trivial(self, pm_step, ident):
        reps = bound_D_prior(pm_step, ident, f_bounds=B(-1, 1),
                             u_lipschitz=L(1.0))
        assert reps[0].lhs == pytest.approx(0.0, abs=1e-12)
        assert reps[0].holds


class TestKernelBounds:
    def test_linear_integrator_degenerates(self, ident, tsq):
        rep = bound_D_kernel(tsq, ident, "bv")
        assert rep.rhs == pytest.approx(0.0, abs=1e-9)
        assert rep.holds

    def test_lipschitz_class_is_tight_for_squares(self, ident, tsq):
        rep = bound_D_kernel(ident, tsq, "lipschitz", L(1.0))
        assert rep.lhs == pytest.approx(1 / 6, abs=1e-12)
        assert rep.rhs == pytest.approx(1 / 6, abs=1e-9)
        assert rep.ratio == pytest.approx(1.0, abs=1e-8)

    def test_three_forms_agree(self, ident, tsq):
        rep = bound_D_kernel(ident, tsq, "lipschitz", L(1.0))
        vals = [v for _, v in rep.tiers]
        assert max(vals) - min(vals) <= 1e-9 * (1.0 + max(vals))

    def test_monotone_class(self, tsq):
        f = PiecewiseFunction.step(0.0, 1.0, 0.5, 0.0, 2.0, value=0.0)
        rep = bound_D_kernel(f, tsq, "monotone")
        assert rep.holds

    def test_wrong_class(self, ident, tsq):
        with pytest.raises(ClassMismatch):
            bound_D_kernel(ident, tsq, "unknown")
        with pytest.raises(ClassMismatch):
            bound_D_kernel(ident, tsq, "lipschitz")  # certificate missing


class TestDividedDifferenceChains:
    def test_a13_needs_a_lipschitz_certificate(self, ident, tsq):
        with pytest.raises(CertificateInvalid,
                           match="^a13 needs a Lipschitz certificate$"):
            bound_D_corollaries(ident, tsq, "a13")

    def test_a14_needs_a_monotone_f(self, tsq):
        down = PiecewiseFunction.from_coeffs((1.0, -1.0), 0.0, 1.0)
        with pytest.raises(CertificateInvalid,
                           match="^a14 needs monotone f: derivative "):
            bound_D_corollaries(down, tsq, "a14")

    def test_unknown_selector_rejected(self, ident, tsq):
        with pytest.raises(DomainError,
                           match="^unknown corollary selector 'a99'$"):
            bound_D_corollaries(ident, tsq, "a99")

    def test_sup_chain(self, ident, tsq):
        rep = bound_D_corollaries(ident, tsq, "a12")
        assert rep.tier("weighted_sup") == pytest.approx(0.25, abs=1e-9)
        assert rep.tier("plain_sup") == pytest.approx(0.25, abs=1e-9)
        assert rep.holds

    def test_l1_branch_for_square_integrator(self, ident, tsq):
        N = gamma_kernel(tsq)
        assert sup_abs_delta(N) == pytest.approx(1.0, abs=1e-9)
        assert _delta_integrals(N, ident, (1.0,), tol=1e-11) \
            == pytest.approx([1.0], abs=1e-9)
        rep = bound_D_corollaries(ident, tsq, "a13", f_lipschitz=L(1.0))
        assert rep.tier("one_norm") == pytest.approx(0.25, abs=1e-9)
        assert rep.lhs == pytest.approx(1 / 6, abs=1e-12)

    def test_p_branch_value(self, ident, tsq):
        rep = bound_D_corollaries(ident, tsq, "a13", p=2.0,
                                  f_lipschitz=L(1.0))
        assert rep.tier("p_norm") == pytest.approx(math.sqrt(1 / 30),
                                                   abs=1e-8)

    def test_monotone_chain(self, tsq):
        f = PiecewiseFunction.step(0.0, 1.0, 0.5, 0.0, 2.0, value=0.0)
        rep = bound_D_corollaries(f, tsq, "a14", p=2.0)
        assert rep.holds
        assert rep.lhs == pytest.approx(0.5, abs=1e-12)
        for label in ("weighted", "plain", "p_norm", "sup"):
            assert rep.tier(label) == pytest.approx(0.5, abs=1e-7)

    def test_bad_exponent(self, ident, tsq):
        with pytest.raises(BadExponent):
            bound_D_corollaries(ident, tsq, "a13", p=1.0, f_lipschitz=L(1.0))


_GL64_NODES, _GL64_WEIGHTS = np.polynomial.legendre.leggauss(64)


def _fixed_rule(fun, cuts, panels=64):
    """64-point Gauss-Legendre on ``panels`` equal panels per segment."""
    total = 0.0
    for lo, hi in zip(cuts, cuts[1:]):
        edges = np.linspace(lo, hi, panels + 1)
        half = 0.5 * np.diff(edges)
        mid = 0.5 * (edges[1:] + edges[:-1])
        ts = mid[:, None] + half[:, None] * _GL64_NODES[None, :]
        total += float(np.sum(half[:, None] * _GL64_WEIGHTS * fun(ts)))
    return total


def _kinked_cubic(seed):
    """Continuous cubic spline on [0, 1] with one to three interior
    breakpoints, where its derivative jumps."""
    rng = random.Random(seed)
    bp = [0.0] + sorted(rng.uniform(0.1, 0.9)
                        for _ in range(rng.randint(1, 3))) + [1.0]
    pieces = []
    for t in bp[:-1]:
        c = [rng.uniform(-2.0, 2.0) for _ in range(4)]
        if pieces:
            c[0] += nppoly.polyval(t, pieces[-1]) - nppoly.polyval(t, c)
        pieces.append(c)
    return PiecewiseFunction.build(bp, pieces)


def _a14_reference(f_coeffs, u, p):
    """'plain' and 'p_norm' tiers of Corollary A.14 for a smooth monotone
    f = polynomial f_coeffs, by a fixed high-order rule on the segments
    between u's breakpoints and the real roots of delta's numerator; delta
    is formed from u's values, not from the library's kernel."""
    a, b = u.domain
    ua, ub = u(a), u(b)
    fprime = nppoly.polyder(np.asarray(f_coeffs))
    cuts = set(u.breakpoints)
    for lo, hi, c in zip(u.breakpoints, u.breakpoints[1:], u.pieces):
        num = nppoly.polysub(
            nppoly.polymul([-a, 1.0], nppoly.polysub([ub], c)),
            nppoly.polymul([b, -1.0], nppoly.polysub(c, [ua])))
        cuts.update(z.real for z in nppoly.polyroots(num)
                    if abs(z.imag) < 1e-12 and lo + 1e-9 < z.real < hi - 1e-9)
    cuts = sorted(cuts)

    def delta(ts):
        ut = u.piece_values(ts)
        return (ub - ut) / (b - ts) - (ut - ua) / (ts - a)

    def against_df(fun):
        return _fixed_rule(lambda ts: fun(ts) * nppoly.polyval(ts, fprime),
                           cuts)

    q = p / (p - 1.0)
    plain = (b - a) / 4.0 * against_df(lambda ts: np.abs(delta(ts)))
    p_norm = (against_df(lambda ts: ((ts - a) * (b - ts)) ** q) ** (1.0 / q)
              * against_df(lambda ts: np.abs(delta(ts)) ** p) ** (1.0 / p)
              / (b - a))
    return plain, p_norm


class TestMonotoneChainAccuracy:
    """Corollary A.14 integrates |delta| and |delta|^p against df; delta'
    jumps at u's interior breakpoints, so the quadrature must split there."""

    @pytest.mark.parametrize("seed", [8, 25, 27, 34])
    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_tiers_match_reference(self, seed, p):
        f_coeffs = (0.0, 1.0, 0.5)
        f = PiecewiseFunction.from_coeffs(f_coeffs, 0.0, 1.0)
        u = _kinked_cubic(seed)
        rep = bound_D_corollaries(f, u, "a14", p=p)
        plain, p_norm = _a14_reference(f_coeffs, u, p)
        assert rep.tier("plain") == pytest.approx(plain, rel=1e-10)
        assert rep.tier("p_norm") == pytest.approx(p_norm, rel=1e-10)

    @pytest.mark.parametrize("p", [1.001, 1.0001, 1.000001])
    def test_weight_integral_survives_p_near_one(self, p):
        # q = p/(p-1) runs to 1e6: ((t-a)(b-t))^q underflowed to 0 before
        # ((b-a)/2)^(2q) was factored out, and the p_norm tier read 0
        f = PiecewiseFunction.from_coeffs((0.0, 1.0), 0.0, 1.0)
        u = PiecewiseFunction.from_coeffs((0.0, 0.0, 1.0), 0.0, 1.0)
        rep = bound_D_corollaries(f, u, "a14", p=p)
        # delta = 1, so the tier is (integral of (t(1-t))^q)^(1/q) -> 1/4
        assert 0.24 < rep.tier("p_norm") <= 0.25
        assert rep.holds

    def test_quadrature_cost_over_battery_trials(self, monkeypatch):
        levels = 1 + inspect.signature(
            funcrep.gauss_integral).parameters["max_doublings"].default
        real = funcrep.gauss_integral
        nodes = []
        exhausted = []

        def counting(fun, lo, hi, *args, **kwargs):
            evaluations = []

            def counted(ts):
                evaluations.append(len(ts))
                return fun(ts)
            out = real(counted, lo, hi, *args, **kwargs)
            nodes.extend(evaluations)
            if len(evaluations) >= levels:
                exhausted.append((lo, hi))
            return out

        monkeypatch.setattr(funcrep, "gauss_integral", counting)
        for k in range(50):
            battery.THEOREMS["cor_a_9"](random.Random(f"0:cor_a_9:{k}"))
        assert not exhausted
        # about 5e4 nodes when every segment is smooth, 2.2e7 without the
        # splits at u's breakpoints; none means the a14 integrals no longer
        # go through gauss_integral and this guard counts nothing
        assert 0 < sum(nodes) < 1_000_000


class TestBeta:
    def test_integer_values(self):
        assert beta_int(2, 2) == pytest.approx(1 / 6)
        assert beta_int(3, 3) == pytest.approx(1 / 30)
        assert beta_int(1, 1) == pytest.approx(1.0)

    def test_symmetry(self):
        for x in range(1, 7):
            for y in range(1, 7):
                assert beta_int(x, y) == pytest.approx(beta_int(y, x))

    def test_fractional_matches_exact_at_integers(self):
        assert beta_int(2.0 + 1e-9, 2.0) == pytest.approx(1 / 6, abs=1e-7)

    def test_fractional_matches_gamma(self):
        x = 7.0 / 3.0
        want = math.gamma(x) ** 2 / math.gamma(2.0 * x)
        assert beta_int(x, x) == pytest.approx(want, rel=1e-15, abs=0.0)


class TestPositivity:
    def test_convex_square(self, ident, tsq):
        rep = positivity_check_D(ident, tsq)
        assert rep.lhs == pytest.approx(1 / 6, abs=1e-10)
        assert rep.rhs == pytest.approx(1 / 6, abs=1e-12)
        assert rep.holds

    def test_linear_integrator(self, ident):
        rep = positivity_check_D(ident, ident)
        assert rep.lhs == pytest.approx(0.0, abs=1e-10)
        assert rep.rhs == pytest.approx(0.0, abs=1e-12)
        assert rep.holds

    def test_monotone_step(self, tsq):
        f = PiecewiseFunction.step(0.0, 1.0, 0.5, 0.0, 1.0, value=0.0)
        rep = positivity_check_D(f, tsq)
        assert rep.holds
        assert rep.rhs >= rep.lhs - 1e-9

    def test_decreasing_rejected(self, tsq):
        down = PiecewiseFunction.from_coeffs((1.0, -1.0), 0.0, 1.0)
        with pytest.raises(HypothesisFailed):
            positivity_check_D(down, tsq)

    def test_narrow_negative_gap_rejected(self, ident, tent_above_chord):
        # a sampled check on the grid k/2048 never sees this gap
        with pytest.raises(HypothesisFailed) as exc:
            positivity_check_D(ident, tent_above_chord)
        assert exc.value.point == 1000.5 / 2048

    @pytest.mark.parametrize("u", [
        # t - t(1-t)(t-1/2)^2: u'' = -1/2 at t = 1/2
        PiecewiseFunction.from_coeffs((0.0, 0.75, 1.25, -2.0, 1.0),
                                      0.0, 1.0),
        # chordal through (0,0), (0.3,0.1), (0.5,0.12), (1,1): concave kink
        PiecewiseFunction.build((0.0, 0.3, 0.5, 1.0),
                                ((0.0, 1.0 / 3.0), (0.07, 0.1),
                                 (-0.76, 1.76))),
    ], ids=["quartic", "kinked"])
    def test_nonconvex_integrator_with_nonnegative_gap(self, ident, u):
        assert min(gamma_kernel(u).values_at(np.linspace(0, 1, 101))) \
            >= -1e-15
        rep = positivity_check_D(ident, u)
        assert rep.holds
        assert rep.inputs_digest == (("f", "monotone()"), ("u", "delta>=0"))


class TestQuadratureRemainderReport:
    # seed 0, trial 7 of thm_3_2a has a constant g, so the exact remainder
    # of the product-mean rule is 0
    @staticmethod
    def _trial_7():
        rng = random.Random("0:thm_3_2a:7")
        spec, part = THEOREMS["thm_3_2a"].sample(rng)
        f, g, u = (spec.functions[k] for k in "fgu")
        assert g.pieces == ((g.point_values[0],),) and g.is_continuous()
        return f, g, u, part

    def test_lhs_enclosure_contains_the_exact_remainder(self):
        rep = bound_quadrature_remainder(*self._trial_7())
        assert rep.lhs_error > 0.0
        assert rep.lhs - rep.lhs_error <= 0.0 <= rep.lhs + rep.lhs_error
        assert rep.holds

    def test_g_scaled_by_two_to_the_sixty_holds(self):
        # the scaling is exact; the integral's error scales with it
        f, g, u, part = self._trial_7()
        rep = bound_quadrature_remainder(f, g * 2.0 ** 60, u, part)
        assert rep.lhs_error > 0.0
        assert rep.holds


class TestNonFiniteTiers:
    # seed-0 trials whose g scaled by 1e306 takes a tier past the float
    # range while lhs stays finite; the verdict rule read an infinite tier
    # as holds with ratio 0
    @staticmethod
    def _scaled_trial(tid, k, scale=1e306):
        spec, p = THEOREMS[tid].sample(random.Random(f"0:{tid}:{k}"))
        g = spec.functions["g"] * scale
        return replace(spec, functions={**spec.functions, "g": g}), p

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("tid, k", [("thm_2_5", 11), ("cor_2_6", 0),
                                        ("item_6", 6)])
    def test_overflowed_tier_is_a_domain_error(self, tid, k):
        spec, p = self._scaled_trial(tid, k)
        with pytest.raises(DomainError, match=": non-finite value in lhs"):
            THEOREMS[tid].run(spec, p)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_cli_exits_one_on_an_overflowed_tier(self, capsys):
        spec, p = self._scaled_trial("thm_2_5", 11)
        doc = json.dumps(jsonio.document_to_jsonable(spec))
        code = run(["bound", "--theorem", "thm_2_5", "--p", repr(p),
                    "--json", doc])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "DomainError" in captured.err

    @pytest.mark.parametrize("tid, k", [("thm_2_5", 27), ("cor_2_6", 4),
                                        ("item_6", 0)])
    def test_g_scaled_by_1e300_keeps_its_norms_finite(self, tid, k):
        # p_norm scales |G|^p by a power of two near sup|G|, so these
        # trials, whose p_norm tier once overflowed to inf, now hold with
        # every tier finite
        spec, p = self._scaled_trial(tid, k, 1e300)
        for rep in THEOREMS[tid].run(spec, p):
            assert all(math.isfinite(v) for _, v in rep.tiers)
            assert rep.holds


class TestOneKernelBuild:
    @pytest.mark.parametrize("which, p, cert", [
        ("a12", None, None), ("a13", None, L(1.0)), ("a13", 3.0, L(1.0)),
        ("a14", 3.0, None)])
    def test_corollaries_build_the_kernel_once(self, count_calls, ident, tsq,
                                               which, p, cert):
        counts = count_calls(gamma_kernel)
        bound_D_corollaries(ident, tsq, which, p=p, f_lipschitz=cert)
        assert counts["gamma_kernel"] == 1

    def test_positivity_builds_the_kernel_once(self, count_calls, ident, tsq):
        counts = count_calls(gamma_kernel)
        positivity_check_D(ident, tsq)
        assert counts["gamma_kernel"] == 1


@pytest.mark.parametrize("bound, cert", [
    (bound_T_bv, B(0.0, 1.0)), (bound_T_holder_bv, H(1.0, 1.0))])
def test_T_bounds_integrate_g_once(count_calls, ident, tsq, bound, cert):
    # cheby_T integrates f du and g du; the centred g reuses its mean
    counts = count_calls(stieltjes.rs_integral)
    bound(ident, tsq, tsq, cert)
    assert counts["rs_integral"] == 2


class TestMonotoneIntegratorCorrections:
    def test_first_moment_witness(self, centred_line, step_at_b):
        rep = bound_D_monotone_K(centred_line, step_at_b, L(1.0))
        assert rep.lhs == pytest.approx(0.5, abs=1e-12)
        assert rep.extra("K") == pytest.approx(0.0, abs=1e-12)
        assert rep.tier("corrected") == pytest.approx(0.5, abs=1e-9)
        assert rep.ratio == pytest.approx(1.0, abs=1e-9)

    def test_identity_integrator_correction(self, centred_line, ident):
        rep = bound_D_monotone_K(centred_line, ident, L(1.0))
        assert rep.extra("K") == pytest.approx(1 / 3, abs=1e-10)
        assert rep.tier("corrected") == pytest.approx(0.5 * (1 - 1 / 3),
                                                      abs=1e-9)
        assert rep.holds

    def test_signed_mean_witness(self, centred_line, step_at_mid):
        rep = bound_D_monotone_Q(centred_line, step_at_mid, V(1.0))
        assert rep.extra("Q") == pytest.approx(0.5, abs=1e-10)
        assert rep.tier("corrected") == pytest.approx(0.5, abs=1e-9)
        # the mismatch functional vanishes for this pair; the bound holds
        assert rep.lhs == pytest.approx(0.0, abs=1e-12)
        assert rep.holds

    def test_identity_integrator_correction_q(self, centred_line, ident):
        rep = bound_D_monotone_Q(centred_line, ident, V(1.0))
        assert rep.extra("Q") == pytest.approx(0.25, abs=1e-10)
        assert rep.tier("corrected") == pytest.approx(0.75, abs=1e-9)
        assert rep.holds

    def test_corrections_nonnegative_for_random_monotone(self):
        rng = random.Random(31)
        for _ in range(40):
            a, b = instances.rand_interval(rng)
            u = instances.rand_monotone(rng, a, b)
            f, lip = instances.rand_lipschitz(rng, a, b)
            rep = bound_D_monotone_K(f, u, lip)
            assert rep.extra("K") >= -1e-9
            g = instances.rand_piecewise(
                rng, a, b, jumps=False)
            rep = bound_D_monotone_Q(g, u, instances.rand_bv_cert(g))
            assert rep.extra("Q") >= -1e-9


class TestOstrowski:
    def test_midpoint_lipschitz(self, ident):
        bound = ostrowski_pointwise(ident, 0.5, "lipschitz", L(1.0))
        assert bound == pytest.approx(0.25)

    def test_right_end_bv(self, vee):
        bound = ostrowski_pointwise(vee, 1.0, "bv", V(1.0))
        assert bound == pytest.approx(total_variation(vee).mid, abs=1e-9)

    def test_left_end_saturates(self, ident):
        bound = ostrowski_pointwise(ident, 0.0, "lipschitz", L(1.0))
        mean = riemann_integral(ident).value
        assert abs(ident(0.0) - mean) == pytest.approx(bound, abs=1e-12)

    def test_pointwise_soundness_random(self):
        rng = random.Random(32)
        for _ in range(30):
            a, b = instances.rand_interval(rng)
            f, lip = instances.rand_lipschitz(rng, a, b)
            mean = riemann_integral(f).value / (b - a)
            x = rng.uniform(a, b)
            bound = ostrowski_pointwise(f, x, "lipschitz", lip)
            assert abs(f(x) - mean) <= bound + 1e-9 * (1.0 + bound)
            g = instances.rand_piecewise(rng, a, b, jumps=True)
            meang = riemann_integral(g).value / (b - a)
            boundg = ostrowski_pointwise(g, x, "bv",
                                         instances.rand_bv_cert(g))
            assert abs(g(x) - meang) <= boundg + 1e-9 * (1.0 + boundg)

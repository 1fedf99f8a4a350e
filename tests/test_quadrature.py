import math
import random

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from grusskit import (battery, funcrep, instances, poly, quadrature,
                      stieltjes)
from grusskit.bounds import bound_quadrature_remainder
from grusskit.errors import (DegenerateCell, DomainError, SharedDiscontinuity,
                             ToleranceUnreachable)
from grusskit.funcrep import (PiecewiseFunction, RegularityCertificate,
                              sup_norm_on, total_variation)
from grusskit.functionals import cheby_T
from grusskit.quadrature import (Partition, _cell_state, adaptive_quadrature,
                                 composite_S, oscillation_v,
                                 partition_quadrature,
                                 remainder_bound_holder, remainder_bound_osc)
from grusskit.stieltjes import rs_integral, rs_product_integral


def _adaptive_problems():
    """Seeded (f, g, u, tol) problems: monotone integrators, integrators
    with interior jumps, and an integrator with an interior plateau."""
    rng = random.Random(55)
    out = []
    for k in range(12):
        a, b = instances.rand_interval(rng)
        f = instances.rand_continuous(rng, a, b)
        g = instances.rand_continuous(rng, a, b)
        if k % 2:
            u = instances.ensure_span(
                rng, lambda: instances.rand_piecewise(rng, a, b, jumps=True))
        else:
            u = instances.ensure_span(
                rng, lambda: instances.rand_monotone(rng, a, b))
        out.append((f, g, u, 1e-3))
    ident = PiecewiseFunction.from_coeffs((0.0, 1.0), 0.0, 1.0)
    plateau = PiecewiseFunction.build(
        (0.0, 0.4, 0.6, 1.0), ((0.0, 1.0), (0.4,), (-0.2, 1.0)))
    jump = PiecewiseFunction((0.0, 0.5, 1.0), ((0.0, 1.0), (1.0, 1.0)),
                             (0.0, 0.5, 2.0))
    # u(0) = u(1): the first cell is degenerate, and splitting it leaves
    # two finite cells
    dip = PiecewiseFunction.from_coeffs((0.25, -1.0, 1.0), 0.0, 1.0)
    out.append((ident, ident, plateau, 1e-5))
    out.append((ident, ident, jump, 1e-5))
    out.append((ident, ident, dip, 1e-5))
    return out


ADAPTIVE_PROBLEMS = _adaptive_problems()


def _reference_composite_S(f, g, u, partition):
    """composite_S as a plain cell loop over windowed integrals of the
    whole functions, independent of the cell records."""
    total = 0.0
    for i, (lo, hi) in enumerate(partition.cells()):
        state = _cell_state(u, lo, hi, u(lo), u(hi))
        if state == "constant":
            continue
        if state == "degenerate":
            raise DegenerateCell(i, (lo, hi))
        span = u(hi) - u(lo)
        u_cell = u.restrict(lo, hi)
        i_f = rs_integral(f.restrict(lo, hi), u_cell).value
        i_g = rs_integral(g.restrict(lo, hi), u_cell).value
        total += i_f * i_g / span
    return total


def _composite_problems():
    """200 seeded (f, g, u, partition) problems on uniform partitions of
    1 to 40 cells; every other u has interior jumps."""
    rng = random.Random(5)
    out = []
    for k in range(200):
        a, b = instances.rand_interval(rng)
        f = instances.rand_continuous(rng, a, b)
        g = instances.rand_continuous(rng, a, b)
        if k % 2:
            u = instances.ensure_span(
                rng, lambda: instances.rand_piecewise(rng, a, b, jumps=True))
        else:
            u = instances.ensure_span(
                rng, lambda: instances.rand_monotone(rng, a, b))
        out.append((f, g, u, Partition.uniform(a, b, 1 + k % 40)))
    return out


class TestPartition:
    def test_uniform_hits_endpoints(self):
        p = Partition.uniform(-0.5817873439132004, 1.3039309513856616, 7)
        assert p.points[0] == -0.5817873439132004
        assert p.points[-1] == 1.3039309513856616
        assert p.n == 7

    def test_mesh(self):
        p = Partition((0.0, 0.25, 1.0))
        assert p.mesh == pytest.approx(0.75)
        assert p.widths == pytest.approx((0.25, 0.75))

    def test_invalid(self):
        with pytest.raises(DomainError):
            Partition((0.0,))
        with pytest.raises(DomainError):
            Partition((0.0, 0.0, 1.0))

    @pytest.mark.parametrize("points", [(0.0, 0.5), (0.5, 1.0),
                                        (0.25, 0.5, 0.75)])
    def test_partition_must_span_the_domain(self, ident, points):
        # on (0, 0.5) the rule gives 1/32 against the full integral 1/3
        part = Partition(points)
        for rule in (composite_S, remainder_bound_osc):
            with pytest.raises(DomainError):
                rule(ident, ident, ident, part)
        with pytest.raises(DomainError):
            bound_quadrature_remainder(ident, ident, ident, part)

    @pytest.mark.parametrize("wide_slot", [0, 1])
    def test_f_and_g_must_share_u_domain(self, ident, wide_slot):
        # an f or g on [0, 2] against u on [0, 1] would be integrated over
        # [0, 1] alone
        fg = [ident, ident]
        fg[wide_slot] = PiecewiseFunction.from_coeffs((0.0, 1.0), 0.0, 2.0)
        with pytest.raises(DomainError):
            composite_S(*fg, ident, Partition.uniform(0.0, 1.0, 4))
        with pytest.raises(DomainError):
            adaptive_quadrature(*fg, ident, tol=1e-3)


class TestOscillation:
    def test_linear(self, ident):
        assert oscillation_v(ident, Partition.uniform(0, 1, 4)) \
            == pytest.approx(0.25, abs=1e-10)

    def test_constant(self, one):
        assert oscillation_v(one, Partition.uniform(0, 1, 4)) \
            == pytest.approx(0.0, abs=1e-10)

    def test_square_two_cells(self, tsq):
        assert oscillation_v(tsq, Partition.uniform(0, 1, 2)) \
            == pytest.approx(0.75, abs=1e-10)

    @pytest.mark.parametrize("points, cell", [
        ((-1.0, 0.5), "[-1.0, 0.5]"), ((0.5, 2.0), "[0.5, 2.0]"),
        ((-1.0, 0.2, 0.5), "[-1.0, 0.2]")])
    def test_cell_outside_the_domain_raises(self, ident, points, cell):
        # as restricting f to that cell does
        with pytest.raises(DomainError) as info:
            oscillation_v(ident, Partition(points))
        assert str(info.value) == f"{cell} is not a subinterval of (0.0, 1.0)"


class TestCompositeRule:
    def test_two_cell_value(self, ident):
        s = composite_S(ident, ident, ident, Partition.uniform(0, 1, 2))
        assert s == pytest.approx(5 / 16, abs=1e-12)

    def test_single_cell_matches_functional_identity(self, ident, tsq,
                                                     u_jump):
        for u in (tsq, u_jump):
            part = Partition((0.0, 1.0))
            s1 = composite_S(ident, tsq, u, part)
            exact = rs_product_integral([ident, tsq], u).value
            span = u(1.0) - u(0.0)
            t_val = cheby_T(ident, tsq, u).value
            assert exact - s1 == pytest.approx(span * t_val, abs=1e-10)

    def test_constant_second_factor_is_exact(self, ident, one, tsq):
        part = Partition.uniform(0, 1, 3)
        s = composite_S(ident, one, tsq, part)
        exact = rs_product_integral([ident, one], tsq).value
        assert s == pytest.approx(exact, abs=1e-12)

    def test_remainder_decomposes_over_cells(self, ident, tsq):
        part = Partition.uniform(0, 1, 4)
        exact = rs_product_integral([ident, tsq], tsq).value
        s = composite_S(ident, tsq, tsq, part)
        decomposed = 0.0
        for lo, hi in part.cells():
            fr = ident.restrict(lo, hi)
            gr = tsq.restrict(lo, hi)
            ur = tsq.restrict(lo, hi)
            span = ur(hi) - ur(lo)
            decomposed += span * cheby_T(fr, gr, ur).value
        assert exact - s == pytest.approx(decomposed, abs=1e-10)

    def test_degenerate_cell_detected(self, ident, vee):
        # u rises then falls back: equal endpoint values on [0, 1], and on
        # the middle cell [1, 2] of a three-cell partition of [0, 3]
        ident3 = PiecewiseFunction.from_coeffs((0.0, 1.0), 0.0, 3.0)
        vee3 = PiecewiseFunction.build(
            (0.0, 1.5, 2.0, 3.0), ((0.0, 1.0), (3.0, -1.0), (-1.0, 1.0)))
        lipschitz = RegularityCertificate.holder(1.0, 1.0)
        for f, u, part, index in (
                (ident, vee, Partition((0.0, 1.0)), 0),
                (ident3, vee3, Partition((0.0, 1.0, 2.0, 3.0)), 1)):
            for solve in (composite_S, remainder_bound_osc,
                          lambda *fgup: remainder_bound_holder(*fgup,
                                                               lipschitz)):
                with pytest.raises(DegenerateCell) as err:
                    solve(f, f, u, part)
                assert err.value.index == index

    def test_flat_integrator_cell_skipped(self, ident):
        u = PiecewiseFunction.build((0.0, 0.5, 1.0), ((0.0,), (-1.0, 2.0)))
        s = composite_S(ident, ident, u, Partition((0.0, 0.5, 1.0)))
        exact = rs_product_integral([ident, ident], u).value
        assert abs(exact - s) <= remainder_bound_osc(
            ident, ident, u, Partition((0.0, 0.5, 1.0))).stated + 1e-10

    def test_equals_the_windowed_reference_loop(self):
        for f, g, u, part in _composite_problems():
            assert composite_S(f, g, u, part) \
                == _reference_composite_S(f, g, u, part)


class TestRemainderBounds:
    def test_single_cell_sharpness(self, ident, u_jump):
        part = Partition((0.0, 1.0))
        exact = rs_product_integral([ident, ident], u_jump).value
        s1 = composite_S(ident, ident, u_jump, part)
        rb = remainder_bound_osc(ident, ident, u_jump, part)
        assert abs(exact - s1) == pytest.approx(0.5, abs=1e-12)
        assert rb.stated == pytest.approx(0.5, abs=1e-9)
        assert abs(exact - s1) / rb.stated == pytest.approx(1.0, abs=1e-9)

    def test_constant_factor_gives_zero_bound(self, ident, one, tsq):
        rb = remainder_bound_osc(ident, one, tsq, Partition.uniform(0, 1, 4))
        assert rb.stated == pytest.approx(0.0, abs=1e-9)

    def test_tight_below_stated(self, ident, tsq):
        rng = random.Random(41)
        for _ in range(20):
            a, b = instances.rand_interval(rng)
            f = instances.rand_continuous(rng, a, b)
            g = instances.rand_continuous(rng, a, b)
            u = instances.ensure_span(
                rng, lambda: instances.rand_monotone(rng, a, b))
            part = Partition.uniform(a, b, rng.randint(1, 5))
            rb = remainder_bound_osc(f, g, u, part)
            assert rb.tight <= rb.stated + 1e-9 * (1.0 + rb.stated)

    def test_holder_form_matches_oscillation_for_lines(self, ident, u_jump):
        part = Partition.uniform(0, 1, 4)
        osc = remainder_bound_osc(ident, ident, u_jump, part)
        hold = remainder_bound_holder(ident, ident, u_jump, part,
                                      RegularityCertificate.holder(1.0, 1.0))
        assert hold.stated == pytest.approx(osc.stated, rel=1e-9)

    def test_constant_function_zero_bound(self, one, ident):
        rb = remainder_bound_holder(one, ident, ident,
                                    Partition.uniform(0, 1, 4),
                                    RegularityCertificate.holder(0.0, 1.0))
        assert rb.stated == pytest.approx(0.0, abs=1e-10)


class TestSoundness:
    def test_randomised(self):
        rng = random.Random(42)
        for _ in range(60):
            a, b = instances.rand_interval(rng)
            f = instances.rand_continuous(rng, a, b)
            g = instances.rand_continuous(rng, a, b)
            u = instances.ensure_span(
                rng, lambda: instances.rand_monotone(rng, a, b))
            part = Partition.uniform(a, b, rng.randint(1, 6))
            exact = rs_product_integral([f, g], u).value
            approx = composite_S(f, g, u, part)
            rb = remainder_bound_osc(f, g, u, part)
            assert abs(exact - approx) <= rb.tight + 1e-9 * (1.0 + rb.tight)


class TestAdaptive:
    def test_constant_second_factor_converges_immediately(self, ident, one):
        res = adaptive_quadrature(ident, one, ident, tol=1e-12)
        assert res.partition.n == 1
        assert res.tight_bound <= 1e-12

    def test_smooth_target(self, ident):
        res = adaptive_quadrature(ident, ident, ident, tol=1e-4)
        assert abs(res.value - 1 / 3) <= 1e-4
        assert res.tight_bound <= 1e-4

    def test_jump_integrator_target(self, ident):
        u = PiecewiseFunction((0.0, 0.5, 1.0), ((0.0, 1.0), (1.0, 1.0)),
                              (0.0, 0.5, 2.0))
        res = adaptive_quadrature(ident, ident, u, tol=1e-6)
        assert abs(res.value - (1 / 3 + 0.25)) <= 1e-6

    def test_split_falls_back_when_the_midpoint_cell_is_degenerate(
            self, ident):
        # u = (t - 1/4)^2 takes the same value at 0 and 1/2, so the first
        # candidate 1/2 would leave [0, 1/2] with zero increment but
        # nonzero variation; the split falls back to 1/4
        u = PiecewiseFunction.from_coeffs((0.0625, -0.5, 1.0), 0.0, 1.0)
        res = adaptive_quadrature(ident, ident, u, tol=1e-3)
        assert res.partition.points[:3] == (0.0, 0.125, 0.25)
        assert res.tight_bound <= 1e-3
        exact = rs_product_integral([ident, ident], u).value
        assert abs(exact - res.value) <= res.tight_bound

    def test_degenerate_first_cell_is_split_and_converges(self, ident):
        # u = (t - 1/2)^2 has u(0) = u(1) with variation 1/2, so the
        # first cell is degenerate; its split at 1/2 leaves two monotone
        # cells, and refinement goes on from finite terms alone
        u = PiecewiseFunction.from_coeffs((0.25, -1.0, 1.0), 0.0, 1.0)
        res = adaptive_quadrature(ident, ident, u, tol=1e-3)
        assert 0.5 in res.partition.points
        assert res.tight_bound <= 1e-3
        exact = rs_product_integral([ident, ident], u).value
        assert abs(exact - res.value) <= res.tight_bound

    def test_monotone_refinement_of_tight_bound(self, ident, tsq):
        bounds = []
        for tol in (1e-2, 1e-3, 1e-4):
            res = adaptive_quadrature(ident, ident, tsq, tol=tol)
            bounds.append(res.tight_bound)
        assert bounds[0] >= bounds[1] >= bounds[2]

    def test_bisecting_worst_cell_never_raises_tight_bound(self, ident, tsq):
        cubic = PiecewiseFunction.from_coeffs((0.0, 1.0, 0.0, 1.0), 0.0, 1.0)
        for u in (tsq, cubic):
            points = [0.0, 1.0]
            prev = remainder_bound_osc(ident, ident, u,
                                       Partition(tuple(points))).tight
            for _ in range(6):
                part = Partition(tuple(points))
                rb = remainder_bound_osc(ident, ident, u, part)
                worst = max(range(part.n), key=lambda i: rb.per_cell[i])
                lo, hi = part.cells()[worst]
                points.append(0.5 * (lo + hi))
                points.sort()
                cur = remainder_bound_osc(ident, ident, u,
                                          Partition(tuple(points))).tight
                assert cur <= prev * (1.0 + 1e-9)
                prev = cur

    def test_bad_tolerance(self, ident):
        for tol in (0.0, -1e-3, math.nan):
            with pytest.raises(DomainError):
                adaptive_quadrature(ident, ident, ident, tol=tol)

    @pytest.mark.parametrize("max_cells", [0, -3])
    def test_bad_cell_budget(self, ident, tsq, max_cells):
        with pytest.raises(DomainError):
            adaptive_quadrature(ident, ident, tsq, tol=1e-9,
                                max_cells=max_cells)

    @pytest.mark.parametrize("case", range(len(ADAPTIVE_PROBLEMS)))
    def test_result_equals_the_fixed_partition_functions(self, case):
        f, g, u, tol = ADAPTIVE_PROBLEMS[case]
        res = adaptive_quadrature(f, g, u, tol, max_cells=128)
        part = res.partition
        rb = remainder_bound_osc(f, g, u, part)
        assert res.value == composite_S(f, g, u, part)
        assert res.remainder_bound == rb.stated
        assert res.tight_bound == rb.tight
        assert res.per_cell.shape == (part.n, 3)
        assert res.per_cell.dtype == np.float64
        assert not res.per_cell.flags.writeable
        assert res.per_cell.tolist() \
            == partition_quadrature(f, g, u, part).per_cell.tolist()

    def test_each_cell_integrates_g_once_and_f_once(self, count_calls):
        # every bisection replaces one cell by two, so a result with n
        # cells evaluated 2n - 1 cells in the loop, each "ok" one with one
        # closed-form integral of g du and one of f du
        counts = count_calls(stieltjes._integral)
        for f, g, u, tol in ADAPTIVE_PROBLEMS:
            before = counts["_integral"]
            n = adaptive_quadrature(f, g, u, tol, max_cells=128).partition.n
            assert counts["_integral"] - before <= 2 * (2 * n - 1)

    def test_results_compare_and_hash_by_value(self, ident, tsq):
        first = adaptive_quadrature(ident, ident, tsq, tol=1e-4)
        second = adaptive_quadrature(ident, ident, tsq, tol=1e-4)
        other = adaptive_quadrature(ident, ident, tsq, tol=1e-3)
        assert first == second and hash(first) == hash(second)
        assert first != other
        assert first != "not a result"

    def test_result_converts_to_certified_integral(self, ident):
        res = adaptive_quadrature(ident, ident, ident, tol=1e-5)
        enclosure = res.as_integral()
        assert enclosure.method == "refined"
        assert abs(enclosure.value - 1 / 3) <= enclosure.abs_error

    def test_interior_plateau_cells_freeze(self, ident):
        # u climbs on [0, 0.4], is flat on [0.4, 0.6], climbs again
        u = PiecewiseFunction.build(
            (0.0, 0.4, 0.6, 1.0),
            ((0.0, 1.0), (0.4,), (-0.2, 1.0)))
        res = adaptive_quadrature(ident, ident, u, tol=1e-6)
        exact = rs_product_integral([ident, ident], u).value
        assert abs(res.value - exact) <= 1e-6


class TestConvergenceRate:
    @pytest.mark.parametrize("r", [0.5, 1.0])
    def test_holder_bound_rate(self, r, ident, sqrt_surrogate):
        f = ident if r == 1.0 else sqrt_surrogate
        cert = RegularityCertificate.holder(1.0, r)
        g = ident
        u = ident
        meshes, bounds = [], []
        n = 4
        while n <= 256:
            part = Partition.uniform(0.0, 1.0, n)
            rb = remainder_bound_holder(f, g, u, part, cert)
            meshes.append(part.mesh)
            bounds.append(rb.stated)
            n *= 2
        slope = np.polyfit(np.log(meshes), np.log(bounds), 1)[0]
        assert slope >= r - 0.1


# f = g = 1e200 + 1e200 t against u = t: every cell term
# 0.5 * osc * sup_g * var_u overflows although each integral is finite
BIG = PiecewiseFunction.from_coeffs((1e200, 1e200), 0.0, 1.0)
IDENT = PiecewiseFunction.from_coeffs((0.0, 1.0), 0.0, 1.0)


class TestOverflow:
    def test_adaptive_raises_at_the_first_cell(self, count_calls):
        counts = count_calls(quadrature._solve_cell)
        with pytest.raises(DomainError, match="not finite"):
            adaptive_quadrature(BIG, BIG, IDENT, 1e-3)
        assert counts["_solve_cell"] == 1

    def test_fixed_partition_raises(self):
        with pytest.raises(DomainError, match="not finite"):
            partition_quadrature(BIG, BIG, IDENT,
                                 Partition.uniform(0.0, 1.0, 4))

    def test_overflowing_value_raises(self):
        # a constant f has zero terms and finite cell integrals; their
        # product overflows
        f = PiecewiseFunction.constant(1e160, 0.0, 1.0)
        with pytest.raises(DomainError, match="quadrature value"):
            partition_quadrature(f, f, IDENT, Partition.uniform(0.0, 1.0, 2))


def _step_at_03(value: float) -> PiecewiseFunction:
    """0 before 0.3, 1 after it, and ``value`` at it."""
    return PiecewiseFunction((0.0, 0.3, 1.0), ((0.0,), (1.0,)),
                             (0.0, value, 1.0))


def _u_jump_at_03(value: float) -> PiecewiseFunction:
    """t before 0.3 and 1 + t after it (left limit 0.3, right limit 1.3),
    with ``value`` at it."""
    return PiecewiseFunction((0.0, 0.3, 1.0), ((0.0, 1.0), (1.0, 1.0)),
                             (0.0, value, 2.0))


class TestSharedJumps:
    """A factor that jumps where u jumps, inside a cell or at one of its
    ends, makes the cell's integral against u undefined: the solve raises
    SharedDiscontinuity with the point, for g and for f alike."""

    @pytest.mark.parametrize("slot", ["f", "g"])
    @pytest.mark.parametrize("points", [(0.0, 0.25, 0.5, 0.75, 1.0),
                                        (0.0, 0.3, 1.0)])
    @pytest.mark.parametrize("g_value, u_value", [(0.5, 0.8), (0.0, 0.8),
                                                  (1.0, 0.8), (0.5, 0.3)])
    def test_partition_raises(self, slot, points, g_value, u_value):
        # inside the cell [0.25, 0.5], or at the end of the cells of
        # (0, 0.3, 1) where both inward halves are nonzero
        step = _step_at_03(g_value)
        fg = (step, IDENT) if slot == "f" else (IDENT, step)
        with pytest.raises(SharedDiscontinuity) as info:
            partition_quadrature(*fg, _u_jump_at_03(u_value),
                                 Partition(points))
        assert info.value.point == 0.3

    @pytest.mark.parametrize("slot", ["f", "g"])
    @pytest.mark.parametrize("g_value, u_value", [(0.0, 1.3), (1.0, 0.3)])
    def test_one_inward_half_each_at_a_cell_end(self, slot, g_value,
                                                u_value):
        # at the end 0.3 of (0, 0.3, 1) the step and u jump on opposite
        # sides: each cell sees one of them jump at its end, and neither
        # cell holds a shared jump; the rule sums the two cells
        step, u = _step_at_03(g_value), _u_jump_at_03(u_value)
        fg = (step, IDENT) if slot == "f" else (IDENT, step)
        res = partition_quadrature(*fg, u, Partition((0.0, 0.3, 1.0)))
        assert res.value == sum(
            rs_integral(step.restrict(lo, hi), u.restrict(lo, hi)).value
            * rs_integral(IDENT.restrict(lo, hi), u.restrict(lo, hi)).value
            / (u(hi) - u(lo)) for lo, hi in ((0.0, 0.3), (0.3, 1.0)))

    @pytest.mark.parametrize("slot", ["f", "g"])
    @pytest.mark.parametrize("g_value, u_value", [(0.5, 0.8), (0.0, 1.3),
                                                  (1.0, 0.3)])
    def test_adaptive_raises(self, slot, g_value, u_value):
        # no bisection point of [0, 1] is 0.3, so some cell always holds it
        step = _step_at_03(g_value)
        fg = (step, IDENT) if slot == "f" else (IDENT, step)
        with pytest.raises(SharedDiscontinuity) as info:
            adaptive_quadrature(*fg, _u_jump_at_03(u_value), 1e-3)
        assert info.value.point == 0.3

    @pytest.mark.parametrize("slot", ["f", "g"])
    def test_adaptive_raises_before_a_split_lands_on_the_jump(self, slot):
        # the first split of [0, 1] is 0.5, where the step (left-continuous)
        # and u (right-continuous) jump: neither half would see a shared
        # jump, but the first cell, solved before it is split, holds one;
        # both integrals of a cell are taken when it is solved, so f and g
        # raise alike, as rs_product_integral([f, g], u) does
        step = PiecewiseFunction((0.0, 0.5, 1.0), ((0.0,), (1.0,)),
                                 (0.0, 0.0, 1.0))
        u = PiecewiseFunction((0.0, 0.5, 1.0), ((0.0, 1.0), (1.0, 1.0)),
                              (0.0, 1.5, 2.0))
        fg = (step, IDENT) if slot == "f" else (IDENT, step)
        for solve in (lambda: rs_product_integral(list(fg), u),
                      lambda: adaptive_quadrature(*fg, u, 1e-3)):
            with pytest.raises(SharedDiscontinuity) as info:
                solve()
            assert info.value.point == 0.5


# QUAD_SPEC of tests/test_cli.py: f and g with interior breakpoints,
# u strictly increasing with jumps at 0, 0.6 and 1, so every cell is "ok"
DERIVE_F = PiecewiseFunction.build((0.0, 0.4, 1.0),
                                   ((1.0, 2.0), (2.52, -2.0, 0.5)))
DERIVE_G = PiecewiseFunction.build((0.0, 0.5, 1.0),
                                   ((0.0, 1.0, -1.0), (0.75, -1.0)))
DERIVE_U = PiecewiseFunction((0.0, 0.6, 1.0), ((0.0, 1.0), (1.0, 0.5)),
                             (-0.5, 0.6, 2.0))


def derive_once_counts(count_calls, solve):
    """Run ``solve()`` with restrict, total_variation, eval_sided,
    _sided_table, _solve_cell and _integral counted; returns the counts and
    what ``solve()`` returned."""
    counts = count_calls(PiecewiseFunction.restrict, funcrep.total_variation,
                         funcrep.eval_sided, funcrep._sided_table,
                         quadrature._solve_cell, stieltjes._integral)
    return counts, solve()


def assert_derived_once(counts) -> list[float]:
    """Check the restrict, total_variation, _integral and sided-table
    counts of ``derive_once_counts`` and return the points at which u was
    evaluated, in call order; f, g and u are the ones that the solve
    passes to ``_solve_cell``."""
    solved = counts.args["_solve_cell"]
    assert solved and all(args[7] == "ok" for args in solved)
    (f,), (g,), (u,) = ({id(args[k]): args[k] for args in solved}.values()
                        for k in range(3))
    # a cell builds no function: it reads the fields of f, g and u on it
    assert counts["restrict"] == 0
    # the variation of u on a cell is the loop of total_variation on u's
    # fields, so the operation itself runs only on the whole u, for the
    # stated bound
    assert all(args[0] is u for args in counts.args["total_variation"])
    # two closed-form integrals per cell, of g du and f du, each reading
    # the solve's product map
    against_u = [args for args in counts.args["_integral"]
                 if args[2] is not None]
    assert len(against_u) == 2 * len(solved)
    # at most one sided table per function; a cell's jump rows are formed
    # from its fields and never kept
    built = [id(args[0]) for args in counts.args["_sided_table"]
             if any(args[0] is h.breakpoints for h in (f, g, u))]
    assert len(built) == len(set(built))
    u_points = [args[1] for args in counts.args["eval_sided"]
                if args[0] is u]
    assert set(u_points) <= {t for args in solved for t in args[3:5]}
    return u_points


class TestDeriveOnce:
    def test_adaptive_solve(self, count_calls):
        counts, _ = derive_once_counts(
            count_calls,
            lambda: adaptive_quadrature(DERIVE_F, DERIVE_G, DERIVE_U, 1e-5))
        solved = counts.args["_solve_cell"]
        assert len(solved) > 20
        u_points = assert_derived_once(counts)
        # once per distinct cell end: both ends, then each split point
        assert sorted(u_points) == sorted({t for args in solved
                                           for t in args[3:5]})

    def test_fixed_partition(self, count_calls):
        counts, _ = derive_once_counts(
            count_calls,
            lambda: partition_quadrature(DERIVE_F, DERIVE_G, DERIVE_U,
                                         Partition.uniform(0.0, 1.0, 9)))
        u_points = assert_derived_once(counts)
        assert u_points == list(Partition.uniform(0.0, 1.0, 9).points)


def _draw_cell(rng, kind, *fns):
    """A cell [lo, hi] of the functions' common domain: strictly inside
    one piece of each ("inside"), ending at an interior breakpoint of one
    of them ("touching"), from a or to b ("end"), or anywhere ("any")."""
    a, b = fns[0].domain
    if kind == "inside":
        grid = sorted({t for h in fns for t in h.breakpoints})
        x0, x1 = rng.choice(list(zip(grid, grid[1:])))
        lo, hi = sorted(rng.uniform(x0, x1) for _ in range(2))
        return (lo, hi) if x0 < lo < hi < x1 else None
    if kind == "touching":
        inner = [t for h in fns for t in h.breakpoints[1:-1]]
        if not inner:
            return None
        t = rng.choice(inner)
        other = rng.uniform(a, b)
        lo, hi = (other, t) if other < t else (t, other)
    elif kind == "end":
        lo, hi = (a, rng.uniform(a, b)) if rng.random() < 0.5 \
            else (rng.uniform(a, b), b)
    else:
        lo, hi = sorted(rng.uniform(a, b) for _ in range(2))
    return (lo, hi) if lo < hi else None


def _hexes(solve, *args):
    """float.hex of the numbers ``solve(*args)`` returns, or the type and
    point of the SharedDiscontinuity it raises."""
    try:
        return [float.hex(x) for x in solve(*args)]
    except SharedDiscontinuity as exc:
        return ["shared", exc.point]


def _cell_case(seed, kind):
    """f, g, u and a cell (lo, hi) of their domain drawn from ``seed``, or
    None where the draw gives no cell: f and g may jump, also where u
    jumps; u may jump and have flat pieces."""
    rng = random.Random(seed)
    a, b = instances.rand_interval(rng)
    f = instances.rand_piecewise(rng, a, b, jumps=rng.random() < 0.5)
    g = instances.rand_piecewise(rng, a, b, jumps=rng.random() < 0.3)
    if rng.random() < 0.5:
        jumping = instances.rand_piecewise(rng, a, b, jumps=True)
        u = PiecewiseFunction(jumping.breakpoints, tuple(
            (c[0],) if rng.random() < 0.4 else c for c in jumping.pieces),
            jumping.point_values)
    else:
        u = instances.ensure_span(rng,
                                  lambda: instances.rand_monotone(rng, a, b))
    cell = _draw_cell(rng, kind, f, g, u)
    return None if cell is None else (f, g, u, *cell)


def _assert_cell_quantities(case, *which):
    """On an "ok" cell, the entries ``which`` of the five cell quantities
    (osc(f), g's centred sup, Var(u), the integrals of g du and f du) equal
    those of the public operations on f, g and u restricted to the cell,
    by float.hex, with and without the solve's product map and from the
    map a first solve filled; a shared jump raises alike.  Returns the
    reference's hexes, or None on a cell that is not "ok"."""
    f, g, u, lo, hi = case
    u_lo, u_hi = u(lo), u(hi)
    if _cell_state(u, lo, hi, u_lo, u_hi) != "ok":
        return None

    def reference():
        fr, gr, ur = (h.restrict(lo, hi) for h in (f, g, u))
        inf_e, sup_e = funcrep.inf_sup_on(fr)
        i_g = rs_integral(gr, ur).value
        sup_g = sup_norm_on((g - i_g / (u_hi - u_lo)).restrict(lo, hi)).hi
        return (sup_e.hi - inf_e.lo, sup_g, total_variation(ur).hi, i_g,
                rs_integral(fr, ur).value)

    def solved(products):
        c = quadrature._solve_cell(f, g, u, lo, hi, u_lo, u_hi, "ok",
                                   products)
        return (*c.terms, c.i_g, c.i_f)

    def pick(hexes):
        return hexes if hexes[0] == "shared" else [hexes[i] for i in which]
    want = _hexes(reference)
    products = {}
    for m in (products, None, products):
        assert pick(_hexes(solved, m)) == pick(want)
    return want


@given(st.integers(min_value=0, max_value=10 ** 9),
       st.sampled_from(["inside", "touching", "end", "any"]))
@settings(max_examples=400, deadline=None)
def test_f_side_equals_the_general_path(seed, kind):
    # a cell's osc(f) is sup - inf of f restricted to it, whether the cell
    # holds breakpoints or not, and oscillation_v's
    case = _cell_case(seed, kind)
    if case is None:
        return
    want = _assert_cell_quantities(case, 0)
    if want is not None and want[0] != "shared":
        assert float.hex(oscillation_v(case[0], Partition(case[3:]))) \
            == want[0]


@given(st.integers(min_value=0, max_value=10 ** 9),
       st.sampled_from(["inside", "touching", "end", "any"]))
@settings(max_examples=400, deadline=None)
def test_g_side_equals_the_general_path(seed, kind):
    # a cell's integral of g du and sup|g - mean| are those of g and u
    # restricted to it, and of g shifted by the mean
    case = _cell_case(seed, kind)
    if case is not None:
        _assert_cell_quantities(case, 1, 3)


@given(st.integers(min_value=0, max_value=10 ** 9),
       st.sampled_from(["inside", "touching", "end", "any"]))
@settings(max_examples=400, deadline=None)
def test_piece_variation_equals_the_general_path(seed, kind):
    # a cell's Var(u) is total_variation of u restricted to it, and the
    # flat-cell test reads the variation as that total_variation does
    case = _cell_case(seed, kind)
    if case is None:
        return
    _, _, u, lo, hi = case
    u_lo, u_hi = u(lo), u(hi)
    scale = 1.0 + max(abs(u_lo), abs(u_hi))
    var = total_variation(u.restrict(lo, hi))
    assert _cell_state(u, lo, hi, u_lo, u_hi) == (
        "ok" if abs(u_hi - u_lo) > 1e-12 * scale else
        "constant" if var.mid <= 1e-10 * scale else "degenerate")
    _assert_cell_quantities(case, 2)


@given(st.integers(min_value=0, max_value=10 ** 9),
       st.sampled_from(["inside", "touching", "end", "any"]))
@settings(max_examples=400, deadline=None)
def test_inside_f_integral_equals_the_general_path(seed, kind):
    # a cell's integral of f du is rs_integral of f and u restricted to
    # it, on cells inside the pieces of f and u as on every other cell
    case = _cell_case(seed, kind)
    if case is not None:
        _assert_cell_quantities(case, 4)


# f on [0, 2] with one piece 1.77e308 + 8e307 t - 4e307 t^2: finite at
# 0.02 and 1.98 (1.786e308) but not at its critical point t = 1, and near
# enough the largest float on [0.01, 0.02] that the inf/sup pad overflows
OVER_F = PiecewiseFunction((0.0, 2.0), ((1.77e308, 8e307, -4e307),),
                           (1.77e308, 1.77e308))


# where a cell raises another DomainError than the operations on the
# restricted functions: the piece overflows at its critical point only, so
# the integral of f du overflows (f) or the term does (u)
F_CELL_MESSAGES = {(0.02, 1.98): "integral is not finite (value inf, error "
                                 "inf): the inputs overflow"}
U_CELL_MESSAGES = {(0.02, 1.97): "cell [0.02, 1.97]: term inf or integral "
                                 "of g du -4.865639999999999e+307 is not "
                                 "finite: the inputs overflow"}


@pytest.mark.parametrize("f, cell, reference_raises, message", [
    # the piece overflows at both ends of the cell: restricting f raises
    (PiecewiseFunction((0.0, 5.0), ((0.0, 0.0, 1e307),), (0.0, 0.0)),
     (4.4, 4.6), True, "non-finite point value"),
    # and at its critical point only: inf_sup_on raises
    (OVER_F, (0.02, 1.98), True, "enclosure lo nan > hi inf"),
    # its values are finite, the padded oscillation is not: the term is
    (OVER_F, (0.01, 0.02), False,
     "cell [0.01, 0.02]: term inf or integral of g du "
     "0.00015000000000000001 is not finite: the inputs overflow"),
])
def test_f_side_overflow_raises_as_the_general_path(f, cell,
                                                   reference_raises,
                                                   message):
    # where restricting f or inf_sup_on of the restriction raises
    # (``message``), the cell raises a DomainError too, the same one but
    # where F_CELL_MESSAGES says; and where its padded oscillation alone
    # overflows, the cell's term does; oscillation_v raises as inf_sup_on
    # does
    lo, hi = cell
    u = PiecewiseFunction.from_coeffs((0.0, 1.0), *f.domain)
    if reference_raises:
        with pytest.raises(DomainError) as info:
            funcrep.inf_sup_on(f.restrict(lo, hi))
        assert str(info.value) == message
        with pytest.raises(DomainError) as info:
            oscillation_v(f, Partition(cell))
        assert str(info.value) == message
    else:
        assert oscillation_v(f, Partition(cell)) == math.inf
    with pytest.raises(DomainError) as info:
        quadrature._solve_cell(f, u, u, lo, hi, u(lo), u(hi), "ok", {})
    assert str(info.value) == F_CELL_MESSAGES.get(cell, message)
    with pytest.raises(DomainError):
        partition_quadrature(f, u, u, Partition((f.a, lo, hi, f.b)))


@pytest.mark.parametrize("u, cell, reference_raises, message, state", [
    # the piece overflows at both ends of the cell: restricting u raises
    (PiecewiseFunction((0.0, 5.0), ((0.0, 0.0, 1e307),), (0.0, 0.0)),
     (4.4, 4.6), True, "non-finite point value", "non-finite point value"),
    # and at its critical point only (OVER_F as u): total_variation raises
    (OVER_F, (0.02, 1.97), True, "enclosure lo nan > hi inf",
     "enclosure lo nan > hi inf"),
    # its variation is finite, the padded variation is not: the term is
    (PiecewiseFunction((0.0, 1.0), ((-8.98846567431158e307,
                                     1.7976931348623157e308),), (0.0, 0.0)),
     (1e-300, 1.0 - 2.0 ** -53), False,
     "cell [1e-300, 0.9999999999999999]: term inf or integral of g du "
     "8.988465674311577e+307 is not finite: the inputs overflow",
     "degenerate"),
])
def test_piece_variation_overflow_raises_as_the_general_path(
        u, cell, reference_raises, message, state):
    # where restricting u or total_variation of the restriction raises
    # (``message``), the cell raises a DomainError too, the same one but
    # where U_CELL_MESSAGES says; and where its padded variation alone
    # overflows, the cell's term does; the flat-cell test, forced by equal end values (the cell ends are no
    # breakpoints of u, so the end values feed only the increment test),
    # raises as total_variation does or returns ``state``
    lo, hi = cell
    f = PiecewiseFunction.from_coeffs((0.0, 1.0), *u.domain)
    if reference_raises:
        with pytest.raises(DomainError) as info:
            total_variation(u.restrict(lo, hi))
        assert str(info.value) == message
    else:
        assert total_variation(u.restrict(lo, hi)).hi == math.inf
    with pytest.raises(DomainError) as info:
        quadrature._solve_cell(f, f, u, lo, hi, u(lo), u(hi), "ok", {})
    assert str(info.value) == U_CELL_MESSAGES.get(cell, message)
    with pytest.raises(DomainError):
        partition_quadrature(f, f, u, Partition((u.a, lo, hi, u.b)))
    if state == "degenerate":
        assert _cell_state(u, lo, hi, u(lo), u(lo)) == state
        return
    with pytest.raises(DomainError) as info:
        _cell_state(u, lo, hi, u(lo), u(lo))
    assert str(info.value) == state


def test_g_side_falls_back_where_g_restricts():
    # g's piece overflows at the ends of [4.4, 4.6] (10^307 t^2 > 1.8e308
    # from t = 4.25 on) while its point values at 0 and 5 are finite: the
    # cell raises as restricting g does
    g = PiecewiseFunction((0.0, 5.0), ((0.0, 0.0, 1e307),), (0.0, 0.0))
    u = PiecewiseFunction.from_coeffs((0.0, 1.0), 0.0, 5.0)
    with pytest.raises(DomainError, match="non-finite point value"):
        g.restrict(4.4, 4.6)
    with pytest.raises(DomainError, match="non-finite point value"):
        quadrature._solve_cell(u, g, u, 4.4, 4.6, u(4.4), u(4.6), "ok",
                               {})    # f = u = t
    with pytest.raises(DomainError, match="non-finite point value"):
        partition_quadrature(u, g, u, Partition((0.0, 4.4, 4.6, 5.0)))


def _list_order_adaptive(f, g, u, tol, max_cells):
    """The refinement loop over cell records alone: a list of cells in
    cell order, re-summed and re-scanned for its first worst cell on every
    split."""
    a, b = u.domain
    u_a, u_b = u(a), u(b)
    cells = [quadrature._solve_cell(f, g, u, a, b, u_a, u_b,
                                    _cell_state(u, a, b, u_a, u_b))]
    while True:
        tight = sum(c.term for c in cells if c.term != math.inf)
        pending = any(c.term == math.inf for c in cells)
        if not pending and tight <= tol:
            break
        if len(cells) >= max_cells and not pending:
            break
        if len(cells) >= max_cells + 64:
            worst_cell = max(cells, key=lambda c: c.term)
            raise ToleranceUnreachable((worst_cell.lo, worst_cell.hi), tight)
        idx = max(range(len(cells)), key=lambda i: cells[i].term)
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
                raise ToleranceUnreachable((lo, hi), worst
                                           if worst != math.inf else tol)
            break
        cells[idx] = quadrature._solve_cell(f, g, u, lo, split, u_lo,
                                            u_cand, left)
        cells.insert(idx + 1, quadrature._solve_cell(
            f, g, u, split, hi, u_cand, u_hi, right))
    return quadrature._result(u, cells)


def _outcome(solve):
    try:
        res = solve()
    except ToleranceUnreachable as exc:
        return "unreachable", (exc.cell, exc.bound)
    return "result", res._key()


class TestRefinementLoop:
    @pytest.mark.parametrize("case", range(len(ADAPTIVE_PROBLEMS)))
    @pytest.mark.parametrize("tol, max_cells", [(1e-3, 128), (1e-7, 24),
                                                (1e-2, 4096)])
    def test_equals_the_list_order_loop(self, case, tol, max_cells):
        f, g, u, _ = ADAPTIVE_PROBLEMS[case]
        assert _outcome(lambda: adaptive_quadrature(f, g, u, tol, max_cells)) \
            == _outcome(lambda: _list_order_adaptive(f, g, u, tol, max_cells))

    def test_unreachable_reports_what_the_list_order_loop_reports(self,
                                                                  ident):
        # u is 0 but for a spike at 0.1: every split candidate leaves a
        # degenerate half (no increment, variation 2) holding the spike
        u = PiecewiseFunction((0.0, 0.1, 1.0), ((0.0,), (0.0,)),
                              (0.0, 1.0, 0.0))
        want = _outcome(lambda: _list_order_adaptive(ident, ident, u, 1e-3,
                                                     8))
        assert want == ("unreachable", ((0.0, 1.0), 1e-3))
        assert _outcome(lambda: adaptive_quadrature(ident, ident, u, 1e-3,
                                                    8)) == want


FIELDS = {"breakpoints", "pieces", "point_values"}


class TestSolveScope:
    """A solve leaves no derived data on any function: piece derivatives
    live in ``poly``'s memo and the product map in the solve."""

    def test_caller_functions_carry_no_table(self):
        adaptive_quadrature(DERIVE_F, DERIVE_G, DERIVE_U, 1e-5)
        partition_quadrature(DERIVE_F, DERIVE_G, DERIVE_U,
                             Partition.uniform(0.0, 1.0, 9))
        for h in (DERIVE_F, DERIVE_G, DERIVE_U):
            assert set(vars(h)) <= FIELDS | {"_sided"}
            assert set(vars(h.restrict(0.25, 0.75))) == FIELDS

    def test_restrict_without_a_table_builds_none(self):
        cell = DERIVE_U.restrict(0.2, 0.7)
        assert set(vars(cell)) == FIELDS
        assert poly._tail_entry.cache_info().misses == 0

    def test_restrictions_and_shifts_share_one_entry(self):
        entries = [poly._derivative_entry(c) for c in DERIVE_G.pieces]
        for lo, hi in ((0.1, 0.5), (0.5, 0.9), (0.6, 1.0), (0.2, 0.3)):
            cell = DERIVE_G.restrict(lo, hi)
            for c in cell.pieces:
                shifted = poly.psub(c, (0.375,))
                assert poly._derivative_entry(shifted) \
                    is poly._derivative_entry(c) \
                    is entries[DERIVE_G.pieces.index(c)]
        assert poly._tail_entry.cache_info().misses == len(entries)

    def test_battery_solves_leave_only_the_sided_memo(self, count_calls):
        counts = count_calls(partition_quadrature,
                             PiecewiseFunction.restrict)
        for tid in battery.THEOREM_IDS:
            before = counts["partition_quadrature"]
            battery.THEOREMS[tid](random.Random(f"0:{tid}:0"))
            assert (counts["partition_quadrature"] > before) \
                == (tid == "thm_3_2a")
        solved = [h for args in counts.args["partition_quadrature"]
                  for h in args[:3]]
        restricted = [args[0] for args in counts.args["restrict"]]
        assert solved
        for h in solved + restricted:
            assert set(vars(h)) <= FIELDS | {"_sided"}


class TestWorkBudget:
    """Exact call counts of the derivation helpers for one fixed solve,
    from an empty derivative memo: a drop in reuse shows up as a changed
    count."""

    def test_adaptive_solve(self, count_calls):
        counts = count_calls(poly.proots, poly.pderiv, poly.pmul)
        res = adaptive_quadrature(DERIVE_F, DERIVE_G, DERIVE_U, 1e-5)
        assert res.partition.n == 162
        pieces = sum(len(h.pieces) for h in (DERIVE_F, DERIVE_G, DERIVE_U))
        # one derivation (memo miss) per piece of f, g and u, whose cells
        # and shifts reuse it, and nothing else derives critical points
        assert poly._tail_entry.cache_info().misses == pieces == 6
        assert counts["proots"] == 0
        # one pderiv per entry, and one per product antiderivative
        assert counts["pderiv"] == 12
        assert counts["pmul"] == 6

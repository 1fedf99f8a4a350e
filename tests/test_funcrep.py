import dataclasses
import math
import random

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings
from numpy.polynomial import polynomial as nppoly

from grusskit import funcrep, instances
from grusskit.errors import DomainError, MalformedCertificate
from grusskit.funcrep import (PiecewiseFunction, RegularityCertificate,
                              eval_sided, inf_sup_on, p_norm, sup_norm_on,
                              total_variation, verify_certificate)


class TestEvalSided:
    def test_endpoint_jump_values(self, u_jump):
        assert eval_sided(u_jump, 0.0, "at") == -1.0
        assert eval_sided(u_jump, 0.5, "at") == 0.0
        assert eval_sided(u_jump, 1.0, "at") == 1.0
        assert eval_sided(u_jump, 0.0, "right") == 0.0
        assert eval_sided(u_jump, 1.0, "left") == 0.0

    def test_continuous_all_sides_agree(self, ident):
        assert eval_sided(ident, 0.3, "left") == pytest.approx(0.3)
        assert eval_sided(ident, 0.3, "right") == pytest.approx(0.3)
        assert eval_sided(ident, 0.3, "at") == pytest.approx(0.3)

    def test_domain_violations(self, ident):
        with pytest.raises(DomainError):
            eval_sided(ident, -0.1, "at")
        with pytest.raises(DomainError):
            eval_sided(ident, 0.0, "left")
        with pytest.raises(DomainError):
            eval_sided(ident, 1.0, "right")


class TestInfSup:
    def test_linear(self, ident):
        inf_e, sup_e = inf_sup_on(ident)
        assert inf_e.mid == pytest.approx(0.0, abs=1e-12)
        assert sup_e.mid == pytest.approx(1.0)

    def test_quadratic_interior_max(self):
        f = PiecewiseFunction.from_coeffs((0.0, 1.0, -1.0), 0.0, 1.0)
        _, sup_e = inf_sup_on(f)
        assert sup_e.mid == pytest.approx(0.25)

    def test_step_levels(self, pm_step):
        inf_e, sup_e = inf_sup_on(pm_step)
        assert inf_e.mid == pytest.approx(-1.0)
        assert sup_e.mid == pytest.approx(1.0)

    def test_window(self, tsq):
        _, sup_e = inf_sup_on(tsq.restrict(0.0, 0.5))
        assert sup_e.mid == pytest.approx(0.25)


class TestSupNorm:
    def test_centred_line(self, centred_line):
        assert sup_norm_on(centred_line).mid == pytest.approx(0.5)

    def test_zero(self, zero):
        assert sup_norm_on(zero).mid == pytest.approx(0.0, abs=1e-12)

    def test_square(self, tsq):
        assert sup_norm_on(tsq).mid == pytest.approx(1.0)

    def test_scalar_homogeneous(self, tsq):
        assert sup_norm_on(tsq * -3.0).mid == pytest.approx(3.0)


class TestTotalVariation:
    def test_pure_jump_integrator(self, u_jump):
        assert total_variation(u_jump).mid == pytest.approx(2.0)

    def test_monotone_linear(self, ident):
        assert total_variation(ident).mid == pytest.approx(1.0)

    def test_rise_and_fall(self):
        f = PiecewiseFunction.from_coeffs((0.0, 1.0, -1.0), 0.0, 1.0)
        assert total_variation(f).mid == pytest.approx(0.5)

    def test_additive_over_adjacent_windows(self, vee, u_jump):
        for f in (vee, u_jump):
            whole = total_variation(f)
            left = total_variation(f.restrict(0.0, 0.375))
            right = total_variation(f.restrict(0.375, 1.0))
            assert left.mid + right.mid == pytest.approx(
                whole.mid, abs=left.rad + right.rad + whole.rad)

    def test_monotone_equals_endpoint_gap(self, step_at_mid):
        assert total_variation(step_at_mid).mid == pytest.approx(1.0)


class TestJumpMasses:
    def test_endpoint_half_jumps_and_interior_jump(self):
        # -1 at 0, 0 on (0, 1/2), 5 at 1/2, 2 on (1/2, 1), 3 at 1; the
        # removable value 7 at 1/4 is a jump of zero mass
        f = PiecewiseFunction((0.0, 0.25, 0.5, 1.0), ((0.0,), (0.0,), (2.0,)),
                              (-1.0, 7.0, 5.0, 3.0))
        assert 0.25 in [t for t, *_ in f.jumps()]
        assert f.jump_masses() == [(0.0, 1.0), (0.5, 2.0), (1.0, 1.0)]

    def test_pure_endpoint_jumps(self, u_jump):
        assert u_jump.jump_masses() == [(0.0, 1.0), (1.0, 1.0)]

    def test_continuous_has_none(self, vee):
        assert vee.jump_masses() == []


class TestAlignedPieces:
    @pytest.mark.parametrize("x", [0.3, 0.6, 0.9])
    def test_one_ulp_piece_keeps_its_polynomial(self, x):
        # the midpoint of [x, nextafter(x, 1)] rounds up to its right end,
        # so a midpoint lookup picked the right neighbour's piece
        f = PiecewiseFunction((0.0, x, math.nextafter(x, 1.0), 1.0),
                              ((0.0,), (5.0,), (1.0,)),
                              (0.0, 5.0, 5.0, 1.0))
        assert (f + 0.0).pieces == f.pieces
        assert f.restrict(0.0, 1.0).pieces == f.pieces
        assert [cell[2] for cell in funcrep.aligned_pieces(f, f)] \
            == list(f.pieces)

    def test_cells_of_the_merged_grid(self, vee, pm_step):
        cells = funcrep.aligned_pieces(vee, pm_step, splits=(-1.0, 0.75, 2.0))
        assert [(lo, hi) for lo, hi, *_ in cells] \
            == [(0.0, 0.5), (0.5, 0.75), (0.75, 1.0)]
        for lo, hi, pv, ps in cells:
            mid = 0.5 * (lo + hi)
            assert pv == vee.pieces[vee._piece_index(mid)]
            assert ps == pm_step.pieces[pm_step._piece_index(mid)]


class TestSignSegments:
    def test_cut_at_roots_and_splits(self):
        # (t - 0.25)(t - 0.5) on [0, 1], with an extra cut at 0.75
        c = (0.125, -0.75, 1.0)
        segs = funcrep.sign_segments(c, 0.0, 1.0, splits=(0.75, 1.5))
        assert segs == [(0.0, 0.25, 1.0), (0.25, 0.5, -1.0),
                        (0.5, 0.75, 1.0), (0.75, 1.0, 1.0)]

    def test_zero_polynomial_is_one_nonnegative_segment(self):
        assert funcrep.sign_segments((0.0,), 0.0, 1.0) == [(0.0, 1.0, 1.0)]

    def test_roots_just_outside_the_window_are_dropped(self):
        # proots reports the root 0.5 + 1e-13 of this line on [0, 0.5]
        # (it keeps roots within 1e-12 of the window); a cut there made a
        # second segment (0.5, 0.5000000000001) outside the window
        assert funcrep.sign_segments((-0.5 - 1e-13, 1.0), 0.0, 0.5) \
            == [(0.0, 0.5, -1.0)]
        assert funcrep.sign_segments((0.5 + 1e-13, 1.0), -0.5, 1.0) \
            == [(-0.5, 1.0, 1.0)]


class TestCertificates:
    def test_lipschitz_pass(self, ident):
        assert verify_certificate(
            ident, RegularityCertificate.lipschitz(1.0)).ok

    def test_bounds_pass(self, ident):
        assert verify_certificate(
            ident, RegularityCertificate.bounds(0.0, 1.0)).ok

    def test_step_breaks_lipschitz(self, pm_step):
        chk = verify_certificate(pm_step,
                                 RegularityCertificate.lipschitz(1e6))
        assert not chk.ok
        assert chk.witness == pytest.approx(0.5)
        assert chk.detail == "jump breaks continuity"

    def test_bounds_fail_with_witness(self, tsq):
        chk = verify_certificate(tsq, RegularityCertificate.bounds(0.0, 0.5))
        assert not chk.ok
        assert chk.witness == pytest.approx(1.0)

    def test_bounds_iff_range_contained(self, tsq):
        inf_e, sup_e = inf_sup_on(tsq)
        good = RegularityCertificate.bounds(inf_e.lo, sup_e.hi)
        assert verify_certificate(tsq, good).ok

    def test_monotone(self, ident, step_at_mid):
        mono = RegularityCertificate.monotone()
        assert verify_certificate(ident, mono).ok
        assert verify_certificate(step_at_mid, mono).ok
        down = PiecewiseFunction.from_coeffs((1.0, -1.0), 0.0, 1.0)
        assert not verify_certificate(down, mono).ok

    def test_downward_jump_breaks_monotone(self):
        chk = verify_certificate(PiecewiseFunction.step(0, 1, 0.5, 1, 0),
                                 RegularityCertificate.monotone())
        assert not chk.ok
        assert chk.witness == 0.5
        assert chk.detail == "downward jump at 0.5"

    @pytest.mark.parametrize("cert, detail", [
        (RegularityCertificate.lipschitz(1.9), "sup|f'| = 2.0 > L = 1.9"),
        (RegularityCertificate.holder(1.9, 1.0), "sup|f'| = 2.0 > H = 1.9"),
    ])
    def test_steep_square_breaks_the_slope_bound(self, tsq, cert, detail):
        chk = verify_certificate(tsq, cert)
        assert not chk.ok
        assert chk.witness is None
        assert chk.detail == detail

    @given(st.integers(min_value=0, max_value=10 ** 9),
           st.booleans(),
           st.sampled_from([1.0 - 1e-9, 1.0 - 1e-11, 1.0 + 1e-11,
                            1.0 + 1e-9]))
    @settings(max_examples=200, deadline=None)
    def test_lipschitz_and_holder_r1_agree(self, seed, jumps, factor):
        # lipschitz(L) and holder(L, 1) state one hypothesis, so they pass
        # or fail together, with one witness; L sits just either side of
        # sup|f'| so that the slope test's tolerance decides
        rng = random.Random(seed)
        a, b = instances.rand_interval(rng)
        f = instances.rand_piecewise(rng, a, b, continuous=not jumps,
                                     jumps=jumps)
        L = funcrep._sup_abs_derivative(funcrep._derivative_ranges(f)) \
            * factor
        lip = verify_certificate(f, RegularityCertificate.lipschitz(L))
        hol = verify_certificate(f, RegularityCertificate.holder(L, 1.0))
        assert (lip.ok, lip.witness) == (hol.ok, hol.witness)

    def test_bv(self, u_jump):
        assert verify_certificate(
            u_jump, RegularityCertificate.bounded_variation(2.0)).ok
        assert not verify_certificate(
            u_jump, RegularityCertificate.bounded_variation(1.5)).ok

    def test_holder_fractional_sampling(self):
        f = PiecewiseFunction.from_coeffs((0.0, 1.0), 0.0, 1.0)
        assert verify_certificate(
            f, RegularityCertificate.holder(1.0, 0.5)).ok
        steep = PiecewiseFunction.from_coeffs((0.0, 10.0), 0.0, 1.0)
        assert not verify_certificate(
            steep, RegularityCertificate.holder(1.0, 0.5)).ok

    def test_holder_fractional_closed_form_detail(self, tsq):
        # t^2 on [0, 1]: L = 2, osc = 1, so L^r osc^(1-r) = sqrt(2)
        chk = verify_certificate(tsq, RegularityCertificate.holder(1.5, 0.5))
        assert chk.ok
        assert chk.detail.startswith("certified")

    def test_holder_fractional_identity_threshold(self, ident):
        # the 1/2-Holder constant of t on [0, 1] is exactly 1
        assert verify_certificate(
            ident, RegularityCertificate.holder(1.0, 0.5)).ok
        assert not verify_certificate(
            ident, RegularityCertificate.holder(1.0 - 1e-6, 0.5)).ok

    def test_holder_fractional_jump_rejected_first(self, step_at_mid,
                                                   monkeypatch):
        def unreachable(*args):
            raise AssertionError("continuity is checked first")
        monkeypatch.setattr(funcrep, "_holder_upper_bound", unreachable)
        monkeypatch.setattr(funcrep, "_holder_sample_check", unreachable)
        chk = verify_certificate(step_at_mid,
                                 RegularityCertificate.holder(1e6, 0.5))
        assert not chk.ok
        assert chk.witness == 0.5
        assert "jump" in chk.detail

    def test_malformed(self):
        nan = math.nan
        for make in (lambda: RegularityCertificate.bounds(1.0, 0.0),
                     lambda: RegularityCertificate.holder(1.0, 0.0),
                     lambda: RegularityCertificate.lipschitz(-1.0),
                     lambda: RegularityCertificate.lipschitz(nan),
                     lambda: RegularityCertificate.holder(nan, 0.5),
                     lambda: RegularityCertificate.holder(1.0, nan),
                     lambda: RegularityCertificate.bounded_variation(nan),
                     lambda: RegularityCertificate.bounds(nan, 1.0)):
            with pytest.raises(MalformedCertificate):
                make()


class TestPNorm:
    def test_unit_step_every_p(self, pm_step):
        for p in (1.0, 2.0, 3.5, math.inf):
            assert p_norm(pm_step, p).mid == pytest.approx(1.0, abs=1e-9)

    def test_zero(self, zero):
        assert p_norm(zero, 2.0).mid == pytest.approx(0.0, abs=1e-12)

    def test_line_l2(self, ident):
        assert p_norm(ident, 2.0).mid == pytest.approx(1 / math.sqrt(3))

    def test_p_below_one_rejected(self, ident):
        with pytest.raises(DomainError):
            p_norm(ident, 0.5)

    @pytest.mark.parametrize("p", [4.0, 10.0, 50.0, 1e3, 1e4, 1e5, 1e308])
    def test_centred_line_contains_the_exact_value(self, p):
        # ||t - 1/2|| over [0, 1] is (1/2) (p + 1)^(-1/p); a closed form in
        # monomials cancels from p = 10 on, and p = 1e308 must not loop
        f = PiecewiseFunction.from_coeffs((-0.5, 1.0), 0.0, 1.0)
        enc = p_norm(f, p)
        assert enc.lo <= 0.5 * math.exp(-math.log1p(p) / p) <= enc.hi
        assert enc.hi <= 0.5 * (1.0 + 1e-12)

    @pytest.mark.parametrize("p", [100.0, 1e3])
    def test_point_value_far_above_the_pieces_leaves_the_norm(self, p):
        # the point value at b has measure zero: scaling by it instead of
        # the pieces' sup would underflow |f/S|^p to 0 on every panel
        f = PiecewiseFunction.build((0.0, 1.0), ((-0.5, 1.0),), (0.0, 1e3))
        exact = 0.5 * math.exp(-math.log1p(p) / p)
        enc = p_norm(f, p)
        assert enc.lo <= exact <= enc.hi
        assert enc.hi - enc.lo <= 1e-9 * exact

    def test_huge_p_expands_and_integrates_nothing(self, monkeypatch):
        # above the graded range the norm is the enclosure [0, S (b-a)^(1/p)]
        def refuse(*args, **kwargs):
            raise AssertionError("no power or quadrature at p = 1e308")
        monkeypatch.setattr(funcrep.poly, "ppow", refuse)
        monkeypatch.setattr(funcrep, "gauss_integral", refuse)
        f = PiecewiseFunction.from_coeffs((-0.5, 1.0), 0.0, 1.0)
        enc = p_norm(f, 1e308)
        assert enc.lo == 0.0 and 0.5 <= enc.hi <= 0.5 * (1.0 + 1e-12)

    def test_small_function_at_p_1_5_contains_the_exact_value(self):
        # the root's ends are the 1/p-th roots of total -/+ error; a pad of
        # err * max(1, value) on the root missed (0.4e-6)^(2/3)
        f = PiecewiseFunction.from_coeffs((0.0, 1e-4), 0.0, 1.0)
        enc = p_norm(f, 1.5)
        assert enc.lo <= 0.4e-6 ** (2.0 / 3.0) <= enc.hi

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_huge_function_keeps_a_finite_enclosure(self, p):
        # |f|^p is integrated as |f/S|^p: unscaled, 1e300 t gave [0, inf]
        # at p = 1.5 and a NaN end at p = 2
        f = PiecewiseFunction.from_coeffs((0.0, 1e300), 0.0, 1.0)
        enc = p_norm(f, p)
        exact = 1e300 * math.exp(-math.log1p(p) / p)
        assert math.isfinite(enc.hi)
        assert enc.lo <= exact <= enc.hi
        assert enc.hi - enc.lo <= 1e-12 * exact

    def test_normalised_monotone_in_p(self, vee):
        # on |f| <= 1 the normalised p-norms increase with p
        norms = [p_norm(vee, p).mid / 1.0 ** (1 / p)
                 for p in (1.0, 2.0, 4.0, 8.0)]
        assert all(x <= y + 1e-12 for x, y in zip(norms, norms[1:]))


class TestConstruction:
    def test_degree_cap_enforced(self):
        with pytest.raises(DomainError):
            PiecewiseFunction.build((0.0, 1.0), (tuple(range(10)),))

    def test_breakpoints_must_increase(self):
        with pytest.raises(DomainError):
            PiecewiseFunction.build((0.0, 0.0, 1.0), ((1.0,), (2.0,)))

    def test_default_values_follow_limits(self):
        f = PiecewiseFunction.build((0.0, 0.5, 1.0), ((0.0,), (1.0,)))
        assert f(0.5) == 1.0  # right limit by default
        assert f.left_limit(0.5) == 0.0

    def test_restrict_keeps_values(self, u_jump):
        g = u_jump.restrict(0.0, 0.5)
        assert g(0.0) == -1.0
        assert g(0.5) == 0.0

    def test_antiderivative_is_continuous(self, pm_step):
        F = pm_step.antiderivative()
        assert F.is_continuous()
        assert F(1.0) == pytest.approx(0.0, abs=1e-12)

    def test_algebra(self, ident, tsq):
        h = ident + tsq
        assert h(0.5) == pytest.approx(0.75)
        assert (ident - ident)(0.3) == pytest.approx(0.0)
        assert (ident * tsq)(0.5) == pytest.approx(0.125)
        assert (2.0 * ident)(0.25) == pytest.approx(0.5)


class TestValidation:
    """Which constructor checks what: the dataclass constructor, ``build``
    and ``_binary`` validate every number they are given or form;
    ``restrict`` checks only the two end values it computes."""

    def test_restrict_rejects_an_end_value_that_overflows(self):
        # point values 1.7e308 at 0 and 1 are finite; Horner's rule at 1/2
        # gives 2.125e308, which overflows
        big = 1.7e308
        f = PiecewiseFunction.from_coeffs((big, big, -big), 0.0, 1.0)
        assert math.isfinite(f(0.0)) and math.isfinite(f(1.0))
        with pytest.raises(DomainError, match="non-finite point value"):
            f.restrict(0.0, 0.5)
        with pytest.raises(DomainError, match="non-finite point value"):
            f.restrict(0.5, 1.0)

    @pytest.mark.parametrize("make", [
        lambda bp, pcs: PiecewiseFunction(
            bp, pcs, tuple(0.0 for _ in bp)),
        PiecewiseFunction.build,
    ])
    def test_constructors_reject_bad_input(self, make):
        with pytest.raises(DomainError, match="non-finite coefficient"):
            make((0.0, 1.0), ((math.nan, 1.0),))
        with pytest.raises(DomainError, match="strictly increasing"):
            make((0.0, 0.5, 0.5, 1.0), ((0.0,), (1.0,), (2.0,)))
        with pytest.raises(DomainError, match="strictly increasing"):
            make((1.0, 0.0), ((0.0,),))

    @pytest.mark.parametrize("fields", [
        ([0.0, 0.5, 1.0], ((1.0,), (2.0,)), (1.0, 1.0, 2.0)),
        ((0.0, 0.5, 1.0), [(1.0,), (2.0,)], (1.0, 1.0, 2.0)),
        ((0.0, 0.5, 1.0), ((1.0,), (2.0,)), [1.0, 1.0, 2.0]),
        ((0.0, 0.5, 1.0), ([1.0], (2.0,)), (1.0, 1.0, 2.0)),
    ])
    def test_constructor_takes_only_tuples(self, fields):
        # a list field or piece used to validate and then break restrict
        # and hash with a bare TypeError
        with pytest.raises(DomainError, match="tuple"):
            PiecewiseFunction(*fields)
        f = PiecewiseFunction(*(tuple(map(tuple, x)) if i == 1 else tuple(x)
                                for i, x in enumerate(fields)))
        assert f.restrict(0.25, 0.75)(0.5) == 1.0
        assert hash(f) == hash(PiecewiseFunction.build(
            (0.0, 0.5, 1.0), ((1.0,), (2.0,)), (1.0, 1.0, 2.0)))

    def test_degree_caps(self):
        with pytest.raises(DomainError, match="exceeds cap 8"):
            PiecewiseFunction.build((0.0, 1.0), ((1.0,) * 10,))
        # the dataclass constructor takes internally formed products up to
        # the structural cap, and no further
        PiecewiseFunction((0.0, 1.0), ((1.0,) * 41,), (0.0, 0.0))
        with pytest.raises(DomainError, match="structural cap"):
            PiecewiseFunction((0.0, 1.0), ((1.0,) * 42,), (0.0, 0.0))

    def test_binary_rejects_what_it_forms(self):
        big = PiecewiseFunction.from_coeffs((1e200, 1e200), 0.0, 1.0)
        with pytest.raises(DomainError, match="non-finite"):
            big * big
        deg21 = PiecewiseFunction((0.0, 1.0), ((1.0,) * 22,), (0.0, 0.0))
        with pytest.raises(DomainError, match="structural cap"):
            deg21 * deg21

    def test_restrict_slices_and_keeps_equality(self, pm_step):
        cell = pm_step.restrict(0.25, 0.75)
        assert cell == PiecewiseFunction(
            (0.25, 0.5, 0.75), ((-1.0,), (1.0,)), (-1.0, -1.0, 1.0))
        assert pm_step.restrict(0.0, 0.5) == PiecewiseFunction(
            (0.0, 0.5), ((-1.0,),), (-1.0, -1.0))


class TestSidedTable:
    def test_memo_is_invisible_to_fields(self, u_jump):
        fresh = PiecewiseFunction(u_jump.breakpoints, u_jump.pieces,
                                  u_jump.point_values)
        u_jump.jump_masses()
        assert "_sided" in vars(u_jump) and "_sided" not in vars(fresh)
        assert u_jump == fresh and hash(u_jump) == hash(fresh)
        assert repr(u_jump) == repr(fresh)
        copy = dataclasses.replace(u_jump)
        assert copy == u_jump and "_sided" not in vars(copy)

    def test_built_once_per_function(self, count_calls, u_jump):
        counts = count_calls(funcrep._sided_table)
        for _ in range(2):
            u_jump.jumps()
            u_jump.jump_masses()
            u_jump.jump_slack()
            u_jump.discontinuity_points()
            u_jump.is_continuous()
            total_variation(u_jump)
        assert counts["_sided_table"] == 1

    def test_returned_lists_are_fresh(self, u_jump):
        u_jump.jumps().clear()
        u_jump.jump_masses().clear()
        assert u_jump.jump_masses() == [(0.0, 1.0), (1.0, 1.0)]


def _masked_piece_values(f, ts):
    """The per-piece evaluation that ``piece_values`` replaced, kept as its
    reference: a clipped right-side lookup in the breakpoints, then one
    masked ``nppoly.polyval`` per piece."""
    ts = np.asarray(ts, dtype=float)
    if len(f.pieces) == 1:
        return nppoly.polyval(ts, np.asarray(f.pieces[0]))
    bp = np.asarray(f.breakpoints)
    idx = np.clip(np.searchsorted(bp, ts, side="right") - 1,
                  0, len(f.pieces) - 1)
    out = np.empty_like(ts)
    for i, c in enumerate(f.pieces):
        m = idx == i
        if m.any():
            out[m] = nppoly.polyval(ts[m], np.asarray(c))
    return out


def _masked_values_at(f, ts):
    out = _masked_piece_values(f, ts)
    for j, t in enumerate(f.breakpoints):
        out[ts == t] = f.point_values[j]
    return out


class TestPieceValues:
    """``piece_values`` (one zero-padded coefficient matrix, one span
    lookup, one Horner) and ``values_at`` equal the per-piece masked
    polyval bit for bit, on node arrays of any shape."""

    @staticmethod
    def _function(rng, degrees):
        a = rng.uniform(-3.0, 1.0)
        cuts = sorted(rng.uniform(a, a + 4.0) for _ in degrees[1:])
        bp = (a, *cuts, a + 4.0)
        pieces = tuple(tuple(rng.uniform(-5.0, 5.0)
                             * 10.0 ** rng.randint(-3, 3)
                             for _ in range(d + 1)) for d in degrees)
        values = tuple(rng.uniform(-9.0, 9.0) for _ in bp)
        return PiecewiseFunction(bp, pieces, values)

    @staticmethod
    def _nodes(rng, f):
        # every breakpoint (a and b too), its neighbouring floats, and
        # uniform draws, as a 2-D array
        ts = [x for t in f.breakpoints for x in
              (t, math.nextafter(t, -math.inf), math.nextafter(t, math.inf))]
        ts = [t for t in ts if f.a <= t <= f.b]
        ts += [rng.uniform(f.a, f.b) for _ in range(60 - len(ts) % 3)]
        rng.shuffle(ts)
        return np.array(ts).reshape(3, -1)

    @given(st.integers(min_value=0, max_value=10 ** 9),
           st.sampled_from([1, 2, 5, 9]))
    @settings(max_examples=60, deadline=None)
    def test_equals_masked_polyval_bit_for_bit(self, seed, k):
        # with k = 9 the degrees are 0..8 in one function, so every row
        # but one is zero-padded
        rng = random.Random(seed)
        f = self._function(rng, rng.sample(range(9), k))
        ts = self._nodes(rng, f)
        for got, want in ((f.piece_values(ts), _masked_piece_values(f, ts)),
                          (f.values_at(ts), _masked_values_at(f, ts))):
            assert got.shape == ts.shape
            assert [x.hex() for x in got.ravel().tolist()] \
                == [x.hex() for x in want.ravel().tolist()]
        # a scalar node on a breakpoint reads the point value there
        assert [float(f.values_at(t)) for t in f.breakpoints] \
            == list(f.point_values)


class TestGaussIntegral:
    def test_stop_test_is_relative(self):
        # both orders read about 0 on the first round; an absolute stop
        # test below 1 accepted 3.8e-24 for 1/40001
        value, err = funcrep.gauss_integral(lambda t: t ** 40000, 0.0, 1.0)
        assert abs(value - 1.0 / 40001.0) <= err
        assert err <= 2e-12 * value

    @pytest.mark.parametrize("r", [0.5, 1.5, 2.5])
    def test_power_singularity_at_both_ends(self, r):
        # |t - end|^r is smooth in s after t = end +- h s^2: no round cap
        calls = []

        def fun(ts):
            calls.append(ts.size)
            return (ts * (1.0 - ts)) ** r
        value, err = funcrep.gauss_integral(fun, 0.0, 1.0)
        exact = math.gamma(r + 1.0) ** 2 / math.gamma(2.0 * r + 2.0)
        assert abs(value - exact) <= max(err, 1e-15 * exact)
        assert len(calls) <= 3

    def test_spans_sum_and_rows_keep_their_own_values(self):
        def rows(ts):
            return np.array([np.cos(ts), ts ** 3])
        values, errors = funcrep.gauss_integral(rows, [0.0, 1.0], [1.0, 2.5])
        assert values[0] == funcrep.gauss_integral(np.cos, [0.0, 1.0],
                                                   [1.0, 2.5])[0]
        assert values[0] == pytest.approx(math.sin(2.5), rel=1e-14)
        assert values[1] == pytest.approx(2.5 ** 4 / 4.0, rel=1e-14)
        assert len(errors) == 2

    def test_empty_spans_call_nothing(self):
        def refuse(ts):
            raise AssertionError("no node for an empty span")
        assert funcrep.gauss_integral(refuse, [1.0, 2.0], [1.0, 2.0]) \
            == (0.0, 0.0)

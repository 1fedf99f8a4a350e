import math

import pytest

from grusskit.errors import BadExponent, DomainError, UnknownWitness
from grusskit.funcrep import verify_certificate
from grusskit.sharpness import (WITNESS_IDS, evaluate_witness,
                                p_branch_constant_estimate, run_catalogue,
                                sharpness_ratio, witness)


class TestCatalogue:
    def test_every_witness_saturates(self):
        for wid, tid, ratio, expected, ok in run_catalogue():
            assert ok, f"{wid}: ratio {ratio} vs expected {expected}"

    def test_interval_covariance(self):
        base = {wid: ratio for wid, _, ratio, _, _ in run_catalogue()}
        moved = {wid: ratio for wid, _, ratio, _, _
                 in run_catalogue(-3.0, 7.0)}
        for wid in base:
            assert moved[wid] == pytest.approx(base[wid], abs=1e-9)

    @pytest.mark.parametrize("a, b", [(-1.2, 0.73), (0.1, 0.35),
                                      (-2.0, 1.0), (0.3, 2.9),
                                      (-7.5, -2.25), (1e-3, 1.0)])
    def test_every_witness_saturates_off_unit_interval(self, a, b):
        for wid, tid, ratio, expected, ok in run_catalogue(a, b):
            assert ok, f"{wid} on [{a}, {b}]: ratio {ratio!r}"

    def test_specific_targets(self):
        assert sharpness_ratio(witness("thm_2_1a")) \
            == pytest.approx(1.0, abs=1e-9)
        assert sharpness_ratio(witness("cor_2_4")) \
            == pytest.approx(1.0, abs=1e-9)
        assert sharpness_ratio(witness("thm_b_2")) \
            == pytest.approx(1.0, abs=1e-9)
        assert sharpness_ratio(witness("thm_2_3a")) \
            == pytest.approx(1.0, abs=1e-9)

    def test_witness_certificates_validate(self):
        for wid in WITNESS_IDS:
            w = witness(wid)
            for slot, cert in w.certificates:
                fn = {"f": w.f, "g": w.g, "u": w.u}[slot]
                assert verify_certificate(fn, cert).ok, (wid, slot)

    def test_reports_hold(self):
        for wid in WITNESS_IDS:
            rep = evaluate_witness(witness(wid))
            assert rep.holds, wid

    def test_unknown_id(self):
        with pytest.raises(UnknownWitness):
            witness("no_such_witness")

    @pytest.mark.parametrize("a, b", [(1.0, 1.0), (1.0, 0.0), (0.0, math.nan)])
    def test_an_empty_interval_is_a_domain_error(self, a, b):
        with pytest.raises(DomainError, match=r"^need a < b$"):
            witness("thm_2_1a", a, b)


class TestPBranchTrend:
    def test_monotone_in_q_toward_limit(self):
        qs = (2.0, 1.1, 1.01, 1.001)
        estimates = [p_branch_constant_estimate(q) for q in qs]
        assert all(x <= y + 1e-12 for x, y in zip(estimates, estimates[1:]))

    def test_limit_value(self):
        assert p_branch_constant_estimate(1.001) \
            == pytest.approx(0.5, abs=1e-3)

    @pytest.mark.parametrize("q", [1.0, 0.5, -2.0, math.nan, math.inf])
    def test_q_outside_the_branch_is_a_bad_exponent(self, q):
        with pytest.raises(BadExponent):
            p_branch_constant_estimate(q)

    def test_reference_point(self):
        # at q = 2 the estimate is sqrt(3)/4
        assert p_branch_constant_estimate(2.0) \
            == pytest.approx(3 ** 0.5 / 4, abs=1e-9)

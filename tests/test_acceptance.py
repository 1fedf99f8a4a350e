"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report.  Stated runtime budgets are asserted where the criterion carries
one.
"""

import contextlib
import io
import json
import random
import time

import numpy as np
import pytest

from grusskit import instances
from grusskit.battery import THEOREM_IDS, verify_theorem
from grusskit.bounds import (bound_D_monotone_K,
                             bound_T_holder_lipschitz,
                             positivity_check_D)
from grusskit.cli import run as cli_run
from grusskit.funcrep import PiecewiseFunction, RegularityCertificate
from grusskit.functionals import (cheby_T, gamma_kernel, identity_residual_D,
                                  kernel_delta, phi_kernel)
from grusskit.quadrature import (Partition, adaptive_quadrature, composite_S,
                                 remainder_bound_holder, remainder_bound_osc)
from grusskit.sharpness import (evaluate_witness, p_branch_constant_estimate,
                                witness)
from grusskit.stieltjes import rs_integral, rs_oracle, rs_product_integral


def _report(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num}: PASS - {text}")


def test_criterion_1_endpoint_jump_witnesses():
    start = time.perf_counter()
    w = witness("thm_2_1a")
    t_val = cheby_T(w.f, w.g, w.u).value
    assert t_val == pytest.approx(0.25, abs=1e-12)
    for wid in ("thm_2_1a", "thm_2_2", "cor_2_2"):
        rep = evaluate_witness(witness(wid))
        assert rep.ratio == pytest.approx(1.0, abs=1e-9), wid
        assert rep.holds
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"endpoint-jump witnesses saturate in {elapsed:.3f}s")


def test_criterion_2_step_and_lipschitz_witnesses():
    rep = evaluate_witness(witness("thm_2_3a"))
    assert rep.lhs == pytest.approx(1.0, abs=1e-12)
    assert rep.rhs == pytest.approx(1.0, abs=1e-9)
    assert rep.ratio == pytest.approx(1.0, abs=1e-9)

    w = witness("cor_2_6")
    rep = bound_T_holder_lipschitz(w.f, w.g, w.u, w.cert("f"), w.cert("u"),
                                   p=2.0)
    assert rep.lhs == pytest.approx(0.25, abs=1e-12)
    assert rep.tier("sup") == pytest.approx(0.25, abs=1e-9)
    assert rep.lhs / rep.tier("sup") == pytest.approx(1.0, abs=1e-9)

    est = p_branch_constant_estimate(1.001)
    assert est == pytest.approx(0.5, abs=1e-3)
    _report(2, "step witness and norm-branch constants reproduced")


def test_criterion_3_monotone_integrator_witnesses():
    w = witness("thm_b_1")
    rep = bound_D_monotone_K(w.f, w.u, w.cert("f"))
    assert rep.lhs == pytest.approx(0.5, abs=1e-12)
    assert rep.extra("K") == pytest.approx(0.0, abs=1e-12)
    assert rep.ratio == pytest.approx(1.0, abs=1e-9)

    rep = evaluate_witness(witness("thm_b_2"))
    assert rep.ratio == pytest.approx(1.0, abs=1e-9)
    _report(3, "monotone-integrator witnesses saturate")


def test_criterion_4_kernel_identity_suite():
    start = time.perf_counter()
    rng = random.Random(404)
    worst = 0.0
    for _ in range(50):
        a, b = instances.rand_interval(rng)
        f = instances.rand_continuous(rng, a, b)
        u = instances.rand_continuous(rng, a, b)
        worst = max(worst, identity_residual_D(f, u))
    assert worst <= 1e-8

    for k in range(10):
        rng2 = random.Random(1000 + k)
        a, b = instances.rand_interval(rng2)
        u = instances.rand_continuous(rng2, a, b)
        ts = np.linspace(a, b, 1002)[1:-1]
        gam = gamma_kernel(u).values_at(ts)
        phi = phi_kernel(u).values_at(ts)
        scale = 1.0 + float(np.max(np.abs(gam)))
        assert float(np.max(np.abs(gam - (b - a) * phi))) <= 1e-12 * scale
        deltas = np.array([kernel_delta(u, float(t)) for t in ts])
        assert float(np.max(np.abs(gam - (ts - a) * (b - ts) * deltas))) \
            <= 1e-12 * scale
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(4, f"identity residual worst {worst:.2e}, kernel grids match "
               f"in {elapsed:.1f}s")


def test_criterion_5_soundness_battery():
    start = time.perf_counter()
    failures = []
    for tid in THEOREM_IDS:
        summary = verify_theorem(tid, trials=1000, seed=20260808)
        if not summary.ok:
            failures.append((tid, summary.violations[:3]))
    elapsed = time.perf_counter() - start
    assert not failures, failures
    assert elapsed < 300.0
    _report(5, f"{len(THEOREM_IDS)} bound families x 1000 trials, zero "
               f"violations in {elapsed:.0f}s")


def test_criterion_6_positivity():
    rng = random.Random(606)
    for _ in range(100):
        a, b = instances.rand_interval(rng)
        f = instances.rand_monotone(rng, a, b)
        u = instances.rand_convex(rng, a, b)
        rep = positivity_check_D(f, u)
        assert rep.holds
        assert rep.lhs >= -1e-9
        assert rep.rhs >= rep.lhs - 1e-9 * (1.0 + abs(rep.rhs))
    _report(6, "positivity chain nonnegative on 100 convex/monotone pairs")


def test_criterion_7_quadrature_soundness_and_rate(sqrt_surrogate):
    rng = random.Random(707)
    for _ in range(500):
        a, b = instances.rand_interval(rng)
        f = instances.rand_continuous(rng, a, b)
        g = instances.rand_continuous(rng, a, b)
        u = instances.ensure_span(
            rng, lambda: instances.rand_monotone(rng, a, b))
        part = Partition.uniform(a, b, rng.randint(1, 6))
        exact = rs_product_integral([f, g], u).value
        approx = composite_S(f, g, u, part)
        rb = remainder_bound_osc(f, g, u, part)
        assert abs(exact - approx) <= rb.stated + 1e-9 * (1.0 + rb.stated)

    ident = PiecewiseFunction.from_coeffs((0.0, 1.0), 0.0, 1.0)
    for r in (0.5, 1.0):
        f = ident if r == 1.0 else sqrt_surrogate
        cert = RegularityCertificate.holder(1.0, r)
        meshes, bounds = [], []
        n = 4
        while n <= 256:
            part = Partition.uniform(0.0, 1.0, n)
            rb = remainder_bound_holder(f, ident, ident, part, cert)
            meshes.append(part.mesh)
            bounds.append(rb.stated)
            n *= 2
        slope = np.polyfit(np.log(meshes), np.log(bounds), 1)[0]
        assert slope >= r - 0.1

    res = adaptive_quadrature(ident, ident, ident, tol=1e-6)
    assert abs(res.value - 1 / 3) <= 1e-6
    _report(7, "500 sound remainders, mesh-rate slopes hold, adaptive "
               "target met")


def test_criterion_8_oracle_equivalence():
    ident = PiecewiseFunction.from_coeffs((0.0, 1.0), 0.0, 1.0)
    tsq = PiecewiseFunction.from_coeffs((0.0, 0.0, 1.0), 0.0, 1.0)
    u_jump = PiecewiseFunction.endpoint_step(0.0, 1.0, -1.0, 0.0, 1.0)
    pm = PiecewiseFunction.step(0.0, 1.0, 0.5, -1.0, 1.0, value=-1.0)
    vee = PiecewiseFunction.build((0.0, 0.5, 1.0),
                                  ((0.5, -1.0), (-0.5, 1.0)))
    drifted = PiecewiseFunction((0.0, 0.5, 1.0), ((0.0, 1.0), (1.0, 1.0)),
                                (0.0, 0.5, 2.0))
    fixtures = [(ident, tsq), (ident, u_jump), (tsq, u_jump), (pm, ident),
                (vee, tsq), (ident, drifted)]
    for f, u in fixtures:
        exact = rs_integral(f, u)
        approx = rs_oracle(f, u, n=2 ** 16)
        assert abs(exact.value - approx.value) \
            <= exact.abs_error + approx.abs_error
    jump_case = rs_oracle(ident, u_jump, n=2 ** 16)
    assert jump_case.value == pytest.approx(1.0, abs=1e-10)
    _report(8, "closed form and refinement oracle agree on all fixtures")


def test_criterion_9_cli_determinism():
    spec = json.dumps({
        "domain": [0.0, 1.0],
        "f": {"breakpoints": [0.0, 1.0], "pieces": [{"coeffs": [0.0, 1.0]}]},
        "g": {"breakpoints": [0.0, 1.0], "pieces": [{"coeffs": [0.0, 1.0]}]},
        "u": {"breakpoints": [0.0, 1.0], "pieces": [{"coeffs": [0.0]}],
              "values": {"0": -1.0, "1": 1.0}},
        "certificates": [{"slot": "f", "kind": "bounds",
                          "params": [0.0, 1.0]}],
    })
    battery = [
        ["integrate", "--json", spec],
        ["cheby", "--json", spec],
        ["dfunc", "--residual", "--json", json.dumps({
            "domain": [0.0, 1.0],
            "f": {"breakpoints": [0.0, 1.0],
                  "pieces": [{"coeffs": [0.0, 1.0]}]},
            "u": {"breakpoints": [0.0, 1.0],
                  "pieces": [{"coeffs": [0.0, 0.0, 1.0]}]}})],
        ["bound", "--theorem", "thm_2_1a", "--json", spec],
        ["bound", "--theorem", "thm_2_2", "--json", spec],
        ["quad", "--partition", "uniform:4", "--json", json.dumps({
            "domain": [0.0, 1.0],
            "f": {"breakpoints": [0.0, 1.0],
                  "pieces": [{"coeffs": [0.0, 1.0]}]},
            "g": {"breakpoints": [0.0, 1.0],
                  "pieces": [{"coeffs": [0.0, 1.0]}]},
            "u": {"breakpoints": [0.0, 1.0],
                  "pieces": [{"coeffs": [0.0, 1.0]}]}})],
        ["sharpness"],
        ["verify", "--theorem", "thm_2_1a", "--trials", "50",
         "--seed", "7"],
        ["verify", "--theorem", "thm_b_1", "--trials", "50", "--seed", "7"],
    ]

    def run_once(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli_run(argv)
        doc = json.loads(buf.getvalue())
        doc.pop("timestamp", None)
        return code, json.dumps(doc, indent=2).encode()

    for argv in battery:
        code1, first = run_once(argv)
        code2, second = run_once(argv)
        assert code1 == code2 == 0, argv
        assert first == second, argv
    _report(9, "CLI battery byte-identical across runs (timestamp "
               "excluded)")

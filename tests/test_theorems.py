"""The theorem registry and the three views of it: ``grusskit bound``,
the soundness battery and the sharpness witnesses."""

import json
import pathlib
import random

import pytest

from grusskit import battery, funcrep, poly
from grusskit.cli import run
from grusskit.sharpness import WITNESS_IDS, witness
from grusskit.theorems import THEOREMS
from test_cli import THEOREM_SPECS

DATA = pathlib.Path(__file__).parent / "data"
REL_TOL = 1e-12


def _close(a, b) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def _same(a, b) -> bool:
    return a == b or _close(a, b)


def _cli_results(argv, capsys):
    code = run(argv)
    return code, json.loads(capsys.readouterr().out)["results"]


def _golden_results(name: str):
    return json.loads((DATA / name).read_text())["results"]


TRIALS_GOLDEN = DATA / "trials_seed0.json"


def trial_records(trials: int = 10, seed: int = 0) -> dict:
    """Every report of trials 0..trials-1 of every registry id at ``seed``
    (the battery's seeding), without the theorem id.  Regenerate with
    ``PYTHONPATH=src:tests python -c "import test_theorems as t;
    t.write_trial_records()"``."""
    out = {}
    for tid, entry in THEOREMS.items():
        rows = []
        for k in range(trials):
            reports = entry.trial(random.Random(f"{seed}:{tid}:{k}"))
            rows.append([{"lhs": r.lhs, "rhs": r.rhs, "ratio": r.ratio,
                          "holds": r.holds,
                          "tiers": [list(t) for t in r.tiers],
                          "extras": [list(x) for x in r.extras]}
                         for r in reports])
        out[tid] = rows
    return out


def write_trial_records() -> None:
    TRIALS_GOLDEN.write_text(json.dumps(trial_records(), indent=1) + "\n")


class TestIds:
    def test_battery_runs_every_registered_theorem(self):
        assert battery.THEOREM_IDS == tuple(THEOREMS)

    def test_cli_offers_all_but_the_quadrature_remainder(self):
        assert set(THEOREMS) == set(THEOREM_SPECS) | {"thm_3_2a"}
        assert [t.id for t in THEOREMS.values() if t.takes_partition] \
            == ["thm_3_2a"]

    def test_witnesses_name_registered_theorems(self):
        assert {witness(w).theorem_id for w in WITNESS_IDS} <= set(THEOREMS)

    @pytest.mark.parametrize("theorem", ["thm_3_2a", "no_such_id"])
    def test_bound_refuses_ids_it_cannot_run(self, theorem, capsys):
        argv = ["bound", "--theorem", theorem, "--json",
                json.dumps({"domain": [0.0, 1.0]})]
        assert run(argv) == 1
        assert "input error" in capsys.readouterr().err


class TestGolden:
    """Reports recorded before the registry existed: verdicts and
    violations must match exactly, ratios to 1e-12 relative."""

    def test_verify_all(self, capsys):
        code, results = _cli_results(
            ["verify", "--theorem", "all", "--trials", "20", "--seed", "0"],
            capsys)
        want = _golden_results("verify_all_trials20_seed0.json")["verify"]
        assert code == 0
        assert [s["theorem"] for s in results["verify"]] \
            == [s["theorem"] for s in want]
        for got, ref in zip(results["verify"], want):
            assert got["trials"] == ref["trials"]
            assert got["violations"] == ref["violations"]
            for key in ("min_ratio", "mean_ratio", "max_ratio"):
                assert _close(got[key], ref[key]), (got["theorem"], key)

    def test_sharpness(self, capsys):
        code, results = _cli_results(["sharpness"], capsys)
        want = _golden_results("sharpness.json")["sharpness"]
        assert code == 0
        assert [(r["id"], r["theorem"], r["expected"], r["pass"])
                for r in results["sharpness"]] \
            == [(r["id"], r["theorem"], r["expected"], r["pass"])
                for r in want]
        for got, ref in zip(results["sharpness"], want):
            assert _close(got["ratio"], ref["ratio"]), got["id"]

    def test_every_trial_report(self):
        """Per-trial lhs, rhs, ratio, tiers and extras of every id (trials
        0-9, seed 0): verdicts exact, values to 1e-12 relative."""
        want = json.loads(TRIALS_GOLDEN.read_text())
        got = trial_records()
        assert list(got) == list(want)
        for tid in want:
            for k, (g_reps, w_reps) in enumerate(zip(got[tid], want[tid])):
                where = (tid, k)
                assert len(g_reps) == len(w_reps), where
                for g, w in zip(g_reps, w_reps):
                    assert g["holds"] == w["holds"], where
                    for key in ("lhs", "rhs", "ratio"):
                        assert _same(g[key], w[key]), where + (key,)
                    for part in ("tiers", "extras"):
                        assert [n for n, _ in g[part]] \
                            == [n for n, _ in w[part]], where
                        for (name, gv), (_, wv) in zip(g[part], w[part]):
                            assert _same(gv, wv), where + (name,)


def test_unexpected_exception_is_recorded_and_the_run_goes_on(monkeypatch,
                                                              capsys):
    trial = battery.THEOREMS["thm_b_1"]
    calls = []

    def flaky(rng):
        calls.append(rng)
        if len(calls) == 2:
            raise ZeroDivisionError("float division by zero")
        return trial(rng)

    monkeypatch.setitem(battery.THEOREMS, "thm_b_1", flaky)
    summary = battery.verify_theorem("thm_b_1", trials=4, seed=0)
    assert len(calls) == 4
    assert summary.violations == [
        {"theorem": "thm_b_1", "seed": 0, "trial": 1,
         "error": "ZeroDivisionError", "message": "float division by zero"}]
    assert len(summary.ratios) == 3

    calls.clear()
    code, results = _cli_results(
        ["verify", "--theorem", "thm_b_1", "--trials", "4", "--seed", "0"],
        capsys)
    assert code == 2
    assert len(results["verify"][0]["violations"]) == 1


# Calls over trials 0..9 of every registry id at seed 0, recorded on the
# code that derives each piece's derivative ranges once per monotone check;
# gauss_integral re-recorded when each integral became one call of the
# substituted two-order Gauss rule, and its nodes (148 calls and 99 744
# nodes under the doubled rule) with it.
BATTERY_WORK = {"proots": 1348, "pminmax_on": 2019, "pcritical": 2444,
                "pderiv": 7268, "pmul": 5378, "_derivative_entry": 2339,
                "gauss_integral": 32, "verify_certificate": 370}
BATTERY_GAUSS_NODES = 13104


def test_battery_work_budget(count_calls, monkeypatch):
    counts = count_calls(poly.proots, poly.pminmax_on, poly.pcritical,
                         poly.pderiv, poly.pmul, poly._derivative_entry,
                         funcrep.gauss_integral, funcrep.verify_certificate)
    nodes = []
    counted = funcrep.gauss_integral

    def counting_nodes(fun, *args, **kwargs):
        def fun_counted(ts):
            nodes.append(ts.size)
            return fun(ts)
        return counted(fun_counted, *args, **kwargs)
    monkeypatch.setattr(funcrep, "gauss_integral", counting_nodes)
    for tid in battery.THEOREM_IDS:
        for k in range(10):
            battery.THEOREMS[tid](random.Random(f"0:{tid}:{k}"))
    assert 0 < sum(nodes) <= 1.05 * BATTERY_GAUSS_NODES
    grown = {name: (counts[name], budget)
             for name, budget in BATTERY_WORK.items()
             if counts[name] > 1.05 * budget}
    assert not grown

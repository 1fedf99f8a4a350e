import argparse
import contextlib
import io
import json
import math
import pathlib

import pytest

from grusskit import cli, funcrep, jsonio, quadrature, stieltjes
from grusskit.bounds import BoundReport
from grusskit.cli import run
from grusskit.errors import SchemaError
from grusskit.functionals import weighted_Tw


WITNESS_SPEC = {
    "domain": [0.0, 1.0],
    "f": {"breakpoints": [0.0, 1.0], "pieces": [{"coeffs": [0.0, 1.0]}]},
    "g": {"breakpoints": [0.0, 1.0], "pieces": [{"coeffs": [0.0, 1.0]}]},
    "u": {"breakpoints": [0.0, 1.0], "pieces": [{"coeffs": [0.0]}],
          "values": {"0": -1.0, "1": 1.0}},
    "certificates": [
        {"slot": "f", "kind": "bounds", "params": [0.0, 1.0]},
    ],
}

# f = t against u = t on [0, 1/2), 1/2 at 1/2, 1 + t on (1/2, 1], 2 at 1:
# a unit jump at 1/2 whose point value sits at the left level
JUMP_AT_HALF_DOC = json.dumps({
    "domain": [0.0, 1.0],
    "f": {"breakpoints": [0.0, 1.0], "pieces": [{"coeffs": [0.0, 1.0]}]},
    "u": {"breakpoints": [0.0, 0.5, 1.0],
          "pieces": [{"coeffs": [0.0, 1.0]}, {"coeffs": [1.0, 1.0]}],
          "values": {"0": 0.0, "1": 0.5, "2": 2.0}},
})


def run_capture(argv, capsys):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


class TestSchema:
    def test_round_trip(self):
        spec = jsonio.parse_document(WITNESS_SPEC)
        doc = jsonio.document_to_jsonable(spec)
        again = jsonio.parse_document(doc)
        assert jsonio.document_to_jsonable(again) == doc

    def test_missing_domain(self):
        with pytest.raises(SchemaError) as exc:
            jsonio.parse_document({"f": {}})
        assert "domain" in str(exc.value)

    def test_bad_breakpoints_path(self):
        bad = dict(WITNESS_SPEC)
        bad["f"] = {"breakpoints": [0.0, 0.5],
                    "pieces": [{"coeffs": [0.0]}]}
        with pytest.raises(SchemaError) as exc:
            jsonio.parse_document(bad)
        assert "f.breakpoints" in str(exc.value)

    def test_degree_cap_rejected(self):
        bad = json.loads(json.dumps(WITNESS_SPEC))
        bad["f"]["pieces"] = [{"coeffs": list(range(10))}]
        with pytest.raises(SchemaError):
            jsonio.parse_document(bad)

    def test_bad_certificate_slot(self):
        bad = json.loads(json.dumps(WITNESS_SPEC))
        bad["certificates"] = [{"slot": "q", "kind": "bounds",
                                "params": [0, 1]}]
        with pytest.raises(SchemaError) as exc:
            jsonio.parse_document(bad)
        assert "certificates[0].slot" in str(exc.value)

    def test_unknown_key_rejected(self):
        bad = json.loads(json.dumps(WITNESS_SPEC))
        bad["extra"] = 1
        with pytest.raises(SchemaError):
            jsonio.parse_document(bad)

    def test_partial_values_keep_defaults_elsewhere(self):
        doc = {"domain": [0.0, 1.0],
               "f": {"breakpoints": [0.0, 0.5, 1.0],
                     "pieces": [{"coeffs": [0.0]}, {"coeffs": [2.0]}],
                     "values": {"1": 7.0}}}
        f = jsonio.parse_document(doc).require("f")
        assert f(0.5) == 7.0
        assert f(0.0) == 0.0   # default: adjacent limit
        assert f(1.0) == 2.0

    def test_value_index_out_of_range(self):
        doc = {"domain": [0.0, 1.0],
               "f": {"breakpoints": [0.0, 1.0],
                     "pieces": [{"coeffs": [0.0]}],
                     "values": {"5": 1.0}}}
        with pytest.raises(SchemaError) as exc:
            jsonio.parse_document(doc)
        assert "f.values.5" in str(exc.value)

    @pytest.mark.parametrize("values", [
        {"1": 5.0, "01": 7.0}, {"01": 7.0}, {" 1 ": 7.0}, {"-0": 7.0},
        {"+1": 7.0}])
    def test_value_index_has_one_spelling(self, values):
        # only str(i), as function_to_jsonable writes it, names index i
        doc = {"domain": [0.0, 1.0],
               "f": {"breakpoints": [0.0, 1.0],
                     "pieces": [{"coeffs": [0.0]}], "values": values}}
        bad = [key for key in values if key != "1"]
        with pytest.raises(SchemaError) as exc:
            jsonio.parse_document(doc)
        assert str(exc.value).startswith(f"f.values.{bad[0]}: ")

    def test_unknown_piece_key_rejected(self):
        doc = {"domain": [0.0, 1.0],
               "f": {"breakpoints": [0.0, 1.0],
                     "pieces": [{"coeffs": [0.0, 1.0], "extra": 1}]}}
        with pytest.raises(SchemaError) as exc:
            jsonio.parse_document(doc)
        assert str(exc.value) == "f.pieces[0]: unknown keys ['extra']"

    @pytest.mark.parametrize("cert, unknown", [
        ({"slot": "f", "kind": "monotone", "parms": [1]}, ["parms"]),
        ({"slot": "f", "kind": "bounds", "param": [0, 1]}, ["param"]),
        ({"slot": "f", "kind": "bounds", "params": [0, 1], "note": "x",
          "Params": []}, ["Params", "note"])])
    def test_unknown_certificate_key_rejected(self, cert, unknown):
        # a misspelt params key read as no params: "monotone" parsed, and
        # "bounds" reported a missing m <= M, not the key
        doc = {"domain": [0.0, 1.0],
               "f": {"breakpoints": [0.0, 1.0],
                     "pieces": [{"coeffs": [0.0, 1.0]}]},
               "certificates": [cert]}
        with pytest.raises(SchemaError) as exc:
            jsonio.parse_document(doc)
        assert str(exc.value) == f"certificates[0]: unknown keys {unknown!r}"


# a function with a "values" key whose breakpoints or degree its build
# rejects: the failure is a SchemaError on the slot, as without "values"
MALFORMED_WITH_VALUES = {
    "unordered_breakpoints": (
        {"breakpoints": [0, 0.7, 0.5, 1],
         "pieces": [{"coeffs": [1]}, {"coeffs": [1]}, {"coeffs": [1]}],
         "values": {"0": 1}},
        "f: breakpoints must be strictly increasing"),
    "degree_9": (
        {"breakpoints": [0, 1], "pieces": [{"coeffs": [0] * 10}],
         "values": {"0": 0, "1": 0}},
        "f: piece degree 9 exceeds cap 8"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_WITH_VALUES))
def test_malformed_function_with_values_is_a_schema_error(case, capsys):
    f, message = MALFORMED_WITH_VALUES[case]
    doc = json.dumps({"domain": [0, 1], "f": f})
    with pytest.raises(SchemaError) as exc:
        jsonio.loads_document(doc)
    assert str(exc.value) == message
    assert run(["integrate", "--json", doc]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: {message}\n"


def _strict_loads(text):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("option, message", [
    (["--trials", "-3"], "input error: trials: must be >= 0, got -3\n"),
    (["--theorem", "nope"],
     "input error: theorem: unknown theorem id 'nope'\n"),
], ids=["negative_trials", "unknown_theorem"])
def test_verify_rejects_bad_input(option, message, capsys):
    code = run(["verify", *option])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == message


class TestStrictJson:
    def test_verify_without_trials(self, capsys):
        code = run(["verify", "--theorem", "thm_2_1a", "--trials", "0"])
        doc = _strict_loads(capsys.readouterr().out)
        summary = doc["results"]["verify"][0]
        assert code == 0
        assert summary["min_ratio"] is None
        assert summary["mean_ratio"] is None
        assert summary["max_ratio"] is None

    def test_infinite_ratio(self):
        rep = BoundReport("thm_2_1a", 1.0, 0.0, math.inf, False, (),
                          (("bv", 0.0),))
        text = jsonio.dumps_report(
            {"bounds": [jsonio.bound_report_to_jsonable(rep)]})
        parsed = _strict_loads(text)["bounds"][0]
        assert parsed["ratio"] is None
        assert parsed["lhs"] == 1.0


class TestCommands:
    def test_integrate(self, capsys):
        code, doc = run_capture(
            ["integrate", "--json", json.dumps(WITNESS_SPEC)], capsys)
        assert code == 0
        assert doc["results"]["integral"]["value"] == pytest.approx(1.0)

    def test_integrate_riemann_fallback(self, capsys):
        spec = {"domain": [0.0, 1.0],
                "f": {"breakpoints": [0.0, 1.0],
                      "pieces": [{"coeffs": [0.0, 1.0]}]}}
        code, doc = run_capture(
            ["integrate", "--json", json.dumps(spec)], capsys)
        assert code == 0
        assert doc["results"]["integral"]["value"] == pytest.approx(0.5)

    def test_integrate_polynomial_integrator(self, capsys):
        spec = {"domain": [0.0, 1.0],
                "f": {"breakpoints": [0.0, 1.0],
                      "pieces": [{"coeffs": [0.0, 1.0]}]},
                "u": {"breakpoints": [0.0, 1.0],
                      "pieces": [{"coeffs": [0.0, 0.0, 1.0]}]}}
        code, doc = run_capture(
            ["integrate", "--json", json.dumps(spec)], capsys)
        assert code == 0
        res = doc["results"]["integral"]
        assert res["value"] == pytest.approx(2 / 3, abs=1e-12)
        assert res["abs_error"] <= 1e-12

    @pytest.mark.parametrize("window, value", [
        ([], 1.0),
        (["--from", "0.5", "--to", "1"], 0.875),
        (["--from", "0.5"], 0.875),
        (["--from", "0", "--to", "0.5"], 0.125),
    ])
    def test_integrate_window(self, window, value, capsys):
        # the window from 1/2 takes the whole (value -> right) jump there,
        # the window up to 1/2 none of it
        code, doc = run_capture(
            ["integrate", "--json", JUMP_AT_HALF_DOC] + window, capsys)
        assert code == 0
        assert doc["results"]["integral"]["value"] \
            == pytest.approx(value, abs=1e-12)

    @pytest.mark.parametrize("window", [["--from", "0.7", "--to", "0.2"],
                                        ["--to", "2"]])
    def test_integrate_bad_window(self, window, capsys):
        code = run(["integrate", "--json", JUMP_AT_HALF_DOC] + window)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: DomainError: ")

    def test_cheby(self, capsys):
        code, doc = run_capture(
            ["cheby", "--json", json.dumps(WITNESS_SPEC)], capsys)
        assert code == 0
        assert doc["results"]["functional"]["value"] \
            == pytest.approx(0.25, abs=1e-12)

    def test_bound(self, capsys):
        code, doc = run_capture(
            ["bound", "--theorem", "thm_2_1a", "--json",
             json.dumps(WITNESS_SPEC)], capsys)
        assert code == 0
        rep = doc["results"]["bounds"][0]
        assert rep["holds"] is True
        assert rep["ratio"] == pytest.approx(1.0, abs=1e-9)

    def test_bound_missing_certificate(self, capsys):
        spec = json.loads(json.dumps(WITNESS_SPEC))
        spec["certificates"] = []
        code = run(["bound", "--theorem", "thm_2_1a", "--json",
                    json.dumps(spec)])
        capsys.readouterr()
        assert code == 1

    def test_schema_error_exit_code(self, capsys):
        code = run(["integrate", "--json", "{"])
        err = capsys.readouterr().err
        assert code == 1
        assert "input error" in err

    @pytest.mark.parametrize("command", [
        ["integrate"], ["cheby"], ["dfunc", "--residual"],
        ["bound", "--theorem", "thm_2_1a"],
        ["quad", "--partition", "uniform:4"],
    ])
    def test_input_file_reads_as_inline_json(self, command, tmp_path, capsys):
        # the reports differ only in the timestamp and the echoed command
        text = json.dumps(WITNESS_SPEC)
        path = tmp_path / "spec.json"
        path.write_text(text, encoding="utf-8")
        reports = []
        for argv in (command + ["--json", text],
                     command + ["--input", str(path)]):
            assert run(argv) == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc.pop("command") == argv
            doc.pop("timestamp")
            reports.append(json.dumps(doc, indent=2))
        assert reports[0] == reports[1]

    def test_missing_input_file_is_an_io_error(self, tmp_path, capsys):
        code = run(["integrate", "--input", str(tmp_path / "missing.json")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("io error: ")

    def test_cheby_with_a_weight(self, capsys):
        # no u slot: the weighted functional of w = 1 + t
        spec = {"domain": [0.0, 1.0], "f": LINE, "g": LINE,
                "w": _slot([[1.0, 1.0]])}
        code, doc = run_capture(["cheby", "--json", json.dumps(spec)],
                                capsys)
        parsed = jsonio.parse_document(spec).functions
        want = weighted_Tw(parsed["f"], parsed["g"], parsed["w"])
        assert code == 0
        res = doc["results"]["functional"]
        assert res["value"] == want.value
        assert res["components"]["weight_total"] == 1.5

    def test_dfunc(self, capsys):
        spec = {"domain": [0.0, 1.0],
                "f": {"breakpoints": [0.0, 1.0],
                      "pieces": [{"coeffs": [0.0, 1.0]}]},
                "u": {"breakpoints": [0.0, 1.0],
                      "pieces": [{"coeffs": [0.0, 0.0, 1.0]}]}}
        code, doc = run_capture(
            ["dfunc", "--residual", "--json", json.dumps(spec)], capsys)
        assert code == 0
        assert doc["results"]["functional"]["value"] \
            == pytest.approx(1 / 6, abs=1e-12)
        assert doc["results"]["identity_residual"] <= 1e-8

    def test_quad_fixed_partition(self, capsys):
        spec = {"domain": [0.0, 1.0],
                "f": {"breakpoints": [0.0, 1.0],
                      "pieces": [{"coeffs": [0.0, 1.0]}]},
                "g": {"breakpoints": [0.0, 1.0],
                      "pieces": [{"coeffs": [0.0, 1.0]}]},
                "u": {"breakpoints": [0.0, 1.0],
                      "pieces": [{"coeffs": [0.0, 1.0]}]}}
        code, doc = run_capture(
            ["quad", "--partition", "uniform:2", "--json",
             json.dumps(spec)], capsys)
        assert code == 0
        assert doc["results"]["quadrature"]["value"] \
            == pytest.approx(5 / 16, abs=1e-12)

    def test_quad_adaptive(self, capsys):
        spec = {"domain": [0.0, 1.0],
                "f": {"breakpoints": [0.0, 1.0],
                      "pieces": [{"coeffs": [0.0, 1.0]}]},
                "g": {"breakpoints": [0.0, 1.0],
                      "pieces": [{"coeffs": [0.0, 1.0]}]},
                "u": {"breakpoints": [0.0, 1.0],
                      "pieces": [{"coeffs": [0.0, 1.0]}]}}
        code, doc = run_capture(
            ["quad", "--tol", "1e-6", "--json", json.dumps(spec)], capsys)
        assert code == 0
        assert doc["results"]["quadrature"]["value"] \
            == pytest.approx(1 / 3, abs=1e-6)

    def test_quad_sweep_csv(self, capsys, tmp_path):
        spec = {"domain": [0.0, 1.0],
                "f": {"breakpoints": [0.0, 1.0],
                      "pieces": [{"coeffs": [0.0, 1.0]}]},
                "g": {"breakpoints": [0.0, 1.0],
                      "pieces": [{"coeffs": [0.0, 1.0]}]},
                "u": {"breakpoints": [0.0, 1.0],
                      "pieces": [{"coeffs": [0.0, 1.0]}]}}
        csv_path = tmp_path / "rate.csv"
        code, doc = run_capture(
            ["quad", "--sweep", "4:32", "--csv", str(csv_path), "--json",
             json.dumps(spec)], capsys)
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "mesh,bound,true_error"
        assert len(lines) == 1 + 4  # n = 4, 8, 16, 32

    def test_sharpness(self, capsys):
        code, doc = run_capture(["sharpness"], capsys)
        assert code == 0
        rows = doc["results"]["sharpness"]
        assert all(r["pass"] for r in rows)

    def test_verify_single(self, capsys):
        code, doc = run_capture(
            ["verify", "--theorem", "thm_2_1a", "--trials", "100",
             "--seed", "7"], capsys)
        assert code == 0
        summary = doc["results"]["verify"][0]
        assert summary["trials"] == 100
        assert summary["violations"] == []
        assert summary["max_ratio"] <= 1.0 + 1e-9

    def test_env_seed_override(self, capsys, monkeypatch):
        # the environment no longer overrides an explicit --seed
        monkeypatch.setenv("STIELTJES_SEED", "123")
        code, doc = run_capture(
            ["verify", "--theorem", "thm_2_2", "--trials", "3",
             "--seed", "7"], capsys)
        assert code == 0
        assert doc["seed"] == 7

    def test_overflow_is_an_error(self, capsys):
        # f = g = 1e200 + 1e200 t against u = 1e200 t
        big = _slot([[1e200, 1e200]])
        doc = json.dumps({"domain": [0.0, 1.0], "f": big, "g": big,
                          "u": _slot([[0.0, 1e200]])})
        for cmd in ("integrate", "cheby", "dfunc"):
            code = run([cmd, "--json", doc])
            captured = capsys.readouterr()
            assert code == 1, cmd
            assert captured.out == "", cmd
            assert "DomainError" in captured.err, cmd


def _slot(coeffs_list, values=None):
    out = {"breakpoints": [0.0, 1.0],
           "pieces": [{"coeffs": list(c)} for c in coeffs_list]}
    if values:
        out["values"] = values
    return out


LINE = _slot([[0.0, 1.0]])
SQUARE = _slot([[0.0, 0.0, 1.0]])
ONE = _slot([[1.0]])
UJUMP = _slot([[0.0]], values={"0": -1.0, "1": 1.0})


def _cert(slot, kind, *params):
    return {"slot": slot, "kind": kind, "params": list(params)}


THEOREM_SPECS = {
    "thm_2_1a": ({"f": LINE, "g": LINE, "u": UJUMP},
                 [_cert("f", "bounds", 0.0, 1.0)], None),
    "thm_2_2": ({"f": LINE, "g": LINE, "u": UJUMP},
                [_cert("f", "bounds", 0.0, 1.0)], None),
    "thm_2_3a": ({"f": LINE, "g": LINE, "u": LINE},
                 [_cert("f", "bounds", 0.0, 1.0),
                  _cert("u", "lipschitz", 1.0)], None),
    "thm_2_1": ({"f": LINE, "g": LINE, "u": UJUMP},
                [_cert("f", "holder", 1.0, 1.0)], None),
    "cor_2_2": ({"f": LINE, "g": LINE, "u": UJUMP},
                [_cert("f", "holder", 1.0, 1.0)], None),
    "thm_2_3": ({"f": LINE, "g": LINE, "u": SQUARE},
                [_cert("f", "holder", 1.0, 1.0)], None),
    "cor_2_4": ({"f": LINE, "g": LINE, "u": SQUARE},
                [_cert("f", "holder", 1.0, 1.0)], None),
    "thm_2_5": ({"f": LINE, "g": LINE, "u": LINE},
                [_cert("f", "holder", 1.0, 1.0),
                 _cert("u", "lipschitz", 1.0)], 2.0),
    "cor_2_6": ({"f": LINE, "g": LINE, "u": LINE},
                [_cert("f", "holder", 1.0, 1.0),
                 _cert("u", "lipschitz", 1.0)], 2.0),
    "item_1": ({"f": LINE, "g": LINE, "w": ONE},
               [_cert("f", "bounds", 0.0, 1.0)], None),
    "item_2": ({"f": LINE, "g": LINE, "w": ONE},
               [_cert("f", "bounds", 0.0, 1.0)], None),
    "item_3": ({"f": LINE, "g": LINE, "w": ONE},
               [_cert("f", "bounds", 0.0, 1.0)], None),
    "item_4": ({"f": LINE, "g": LINE, "w": ONE},
               [_cert("f", "holder", 1.0, 1.0)], None),
    "item_5": ({"f": LINE, "g": LINE, "w": ONE},
               [_cert("f", "holder", 1.0, 1.0)], None),
    "item_6": ({"f": LINE, "g": LINE, "w": ONE},
               [_cert("f", "holder", 1.0, 1.0)], 2.0),
    "thm_a_1": ({"f": LINE, "u": LINE},
                [_cert("f", "bounds", 0.0, 1.0),
                 _cert("u", "lipschitz", 1.0)], None),
    "thm_a_2": ({"f": LINE, "u": UJUMP},
                [_cert("f", "lipschitz", 1.0)], None),
    "thm_a_6_i": ({"f": LINE, "u": SQUARE}, [], None),
    "thm_a_6_ii": ({"f": LINE, "u": SQUARE},
                   [_cert("f", "lipschitz", 1.0)], None),
    "thm_a_6_iii": ({"f": LINE, "u": SQUARE}, [], None),
    "cor_a_7": ({"f": LINE, "u": SQUARE}, [], None),
    "cor_a_8": ({"f": LINE, "u": SQUARE},
                [_cert("f", "lipschitz", 1.0)], 2.0),
    "cor_a_9": ({"f": LINE, "u": SQUARE}, [], 2.0),
    "thm_a_11": ({"f": LINE, "u": SQUARE}, [], None),
    "thm_b_1": ({"f": LINE, "u": SQUARE},
                [_cert("f", "lipschitz", 1.0)], None),
    "thm_b_2": ({"f": LINE, "u": SQUARE},
                [_cert("f", "bv", 1.0)], None),
}


class TestBoundDispatch:
    @pytest.mark.parametrize("theorem", sorted(THEOREM_SPECS))
    def test_every_theorem_id_runs_and_holds(self, theorem, capsys):
        slots, certs, p = THEOREM_SPECS[theorem]
        doc = {"domain": [0.0, 1.0], **slots}
        if certs:
            doc["certificates"] = certs
        argv = ["bound", "--theorem", theorem, "--json", json.dumps(doc)]
        if p is not None:
            argv += ["--p", str(p)]
        code, report = run_capture(argv, capsys)
        assert code == 0
        assert report["results"]["bounds"], theorem
        assert all(rep["holds"] for rep in report["results"]["bounds"])
        assert all(rep["theorem"] == theorem
                   for rep in report["results"]["bounds"])

    @pytest.mark.parametrize("theorem", ["cor_2_2", "cor_2_4", "cor_2_6"])
    def test_corollaries_refuse_fractional_holder(self, theorem, capsys):
        slots, certs, p = THEOREM_SPECS[theorem]
        certs = [_cert("f", "holder", 1.0, 0.5)] + certs[1:]
        doc = {"domain": [0.0, 1.0], **slots, "certificates": certs}
        argv = ["bound", "--theorem", theorem, "--json", json.dumps(doc)]
        if p is not None:
            argv += ["--p", str(p)]
        code = run(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "input error: certificates.f" in captured.err

    def test_nan_certificate_parameter_is_an_input_error(self, capsys):
        # json.loads reads the NaN token; the certificate must refuse it
        # rather than verify it and report a null rhs
        doc = json.dumps({"domain": [0.0, 1.0], "f": LINE, "u": LINE,
                          "certificates": [_cert("f", "lipschitz",
                                                 math.nan)]})
        assert "NaN" in doc
        code = run(["bound", "--theorem", "thm_a_2", "--json", doc])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("input error: certificates[0]: ")

    @pytest.mark.parametrize("theorem", ["cor_a_7", "thm_a_6_i"])
    def test_jumping_integrator_is_refused(self, theorem, capsys):
        code = run(["bound", "--theorem", theorem, "--json",
                    JUMP_AT_HALF_DOC])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "ClassMismatch" in captured.err

    def test_cor_a_8_p_near_one_holds(self, capsys):
        slots, certs, _ = THEOREM_SPECS["cor_a_8"]
        doc = {"domain": [0.0, 1.0], **slots, "certificates": certs}
        code, report = run_capture(
            ["bound", "--theorem", "cor_a_8", "--p", "1.001",
             "--json", json.dumps(doc)], capsys)
        rep = report["results"]["bounds"][0]
        assert code == 0
        assert dict(rep["tiers"])["p_norm"] > 0.0
        assert rep["holds"]

    @pytest.mark.parametrize("p", ["nan", "inf", "1", "0.5"])
    @pytest.mark.parametrize("theorem", ["thm_2_5", "cor_2_6", "item_6",
                                         "cor_a_8", "cor_a_9"])
    def test_exponent_outside_the_p_branches_is_refused(self, theorem, p,
                                                        capsys):
        # every L^p branch takes a finite p > 1; its ends are the L^1 and
        # sup tiers
        slots, certs, _ = THEOREM_SPECS[theorem]
        doc = {"domain": [0.0, 1.0], **slots, "certificates": certs}
        code = run(["bound", "--theorem", theorem, "--p", p,
                    "--json", json.dumps(doc)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "BadExponent" in captured.err

    @pytest.mark.parametrize("g_values", [None, {"0": 0.0, "1": 1000.0}],
                             ids=["line", "jump_at_b"])
    @pytest.mark.parametrize("p", ["4", "10", "50", "1000", "1e308"])
    def test_fractional_holder_bound_holds_at_large_p(self, p, g_values,
                                                      capsys, monkeypatch):
        # no monomial power beyond the closed form's p <= 3 is expanded (at
        # p = 1e308 that was a loop of int(p) products), and a point value
        # of g far above its pieces leaves the p_norm tier of G positive
        real_ppow = funcrep.poly.ppow

        def small_ppow(a, n):
            assert n <= 3, f"expands a monomial power {n}"
            return real_ppow(a, n)

        monkeypatch.setattr(funcrep.poly, "ppow", small_ppow)
        g = LINE if g_values is None else {**LINE, "values": g_values}
        doc = {"domain": [0.0, 1.0], "f": LINE, "g": g, "u": LINE,
               "certificates": [_cert("f", "holder", 1.0, 0.5),
                                _cert("u", "lipschitz", 1.0)]}
        code, report = run_capture(["bound", "--theorem", "thm_2_5", "--p",
                                    p, "--json", json.dumps(doc)], capsys)
        assert code == 0
        (rep,) = report["results"]["bounds"]
        assert rep["holds"]
        assert dict(rep["tiers"])["p_norm"] > 0.0


class TestDeterminism:
    BATTERY = [
        ["integrate", "--json", json.dumps(WITNESS_SPEC)],
        ["cheby", "--json", json.dumps(WITNESS_SPEC)],
        ["bound", "--theorem", "thm_2_1a", "--json",
         json.dumps(WITNESS_SPEC)],
        ["sharpness"],
        ["verify", "--theorem", "thm_2_2", "--trials", "10", "--seed", "7"],
    ]

    @staticmethod
    def _strip_timestamp(text: str) -> str:
        doc = json.loads(text)
        doc.pop("timestamp", None)
        return json.dumps(doc, indent=2)

    def test_reports_byte_identical_modulo_timestamp(self, capsys):
        for argv in self.BATTERY:
            run(argv)
            first = self._strip_timestamp(capsys.readouterr().out)
            run(argv)
            second = self._strip_timestamp(capsys.readouterr().out)
            assert first == second, argv


# -- golden quadrature reports -----------------------------------------------

QUAD_GOLDEN = pathlib.Path(__file__).parent / "data" / "quad_reports.json"

# f, g continuous with interior breakpoints (0.5 is hit by bisection, 0.4
# is not); u monotone with an interior jump at 0.6 and endpoint jumps
QUAD_SPEC = {
    "domain": [0.0, 1.0],
    "f": {"breakpoints": [0.0, 0.4, 1.0],
          "pieces": [{"coeffs": [1.0, 2.0]}, {"coeffs": [2.52, -2.0, 0.5]}]},
    "g": {"breakpoints": [0.0, 0.5, 1.0],
          "pieces": [{"coeffs": [0.0, 1.0, -1.0]}, {"coeffs": [0.75, -1.0]}]},
    "u": {"breakpoints": [0.0, 0.6, 1.0],
          "pieces": [{"coeffs": [0.0, 1.0]}, {"coeffs": [1.0, 0.5]}],
          "values": {"0": -0.5, "1": 0.6, "2": 2.0}},
}
QUAD_SPEC_HOLDER = dict(QUAD_SPEC, certificates=[
    {"slot": "f", "kind": "holder", "params": [2.0, 1.0]}])

QUAD_CASES = {
    "adaptive_tol1e-3": ["quad", "--tol", "1e-3"],
    "adaptive_tol1e-5": ["quad", "--tol", "1e-5"],
    "partition_uniform7": ["quad", "--partition", "uniform:7"],
    "sweep_osc": ["quad", "--sweep", "4:256"],
    "sweep_holder": ["quad", "--sweep", "4:256"],
}


def quad_reports() -> dict:
    """Standard output of every ``QUAD_CASES`` command with its ``timestamp``
    line removed, keyed by case name.  Regenerate with
    ``PYTHONPATH=src:tests python -c "import test_cli as t;
    t.write_quad_reports()"``."""
    out = {}
    for name, argv in QUAD_CASES.items():
        spec = QUAD_SPEC_HOLDER if name == "sweep_holder" else QUAD_SPEC
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = run(argv + ["--json", json.dumps(spec)])
        assert code == 0, name
        out[name] = "".join(line for line in buf.getvalue()
                            .splitlines(keepends=True)
                            if not line.startswith('  "timestamp": '))
    return out


@pytest.mark.parametrize("option", [
    ["--partition", "uniform:x"], ["--partition", "uniform:"],
    ["--sweep", "4"], ["--sweep", "4:x"], ["--sweep", "8:4"],
    ["--partition", "bogus:3"],
])
def test_quad_rejects_malformed_counts(option, capsys):
    code = run(["quad", *option, "--json", json.dumps(QUAD_SPEC)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("input error: ")


@pytest.mark.parametrize("option, cap", [
    (["--partition", "uniform:4097"], []),
    (["--sweep", "4:4097"], []),
    (["--sweep", "4097:8192"], []),
    (["--partition", "uniform:9"], ["--max-cells", "8"]),
    (["--sweep", "4:16"], ["--max-cells", "8"]),
])
def test_quad_partition_above_the_cell_budget_is_a_schema_error(
        option, cap, monkeypatch, capsys):
    # --max-cells (default 4096) caps every quad mode; an n or nmax above
    # it is refused before any partition is built
    def refuse(*args):
        raise AssertionError("Partition.uniform called")
    monkeypatch.setattr(quadrature.Partition, "uniform", refuse)
    code = run(["quad", *option, *cap, "--json", json.dumps(QUAD_SPEC)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("input error: ")
    assert "exceeds --max-cells" in captured.err


@pytest.mark.parametrize("option, name", [
    (["--partition", "uniform:0"], "partition"),
    (["--partition", "uniform:-1"], "partition"),
    (["--sweep", "0:4"], "sweep"),
    (["--sweep=-2:4"], "sweep"),
    (["--partition", "uniform:4", "--max-cells", "-5"], "max-cells"),
    (["--sweep", "4:8", "--max-cells", "0"], "max-cells"),
    (["--max-cells", "0"], "max-cells"),
    (["--max-cells", "-3"], "max-cells"),
])
def test_quad_counts_below_one_are_a_schema_error(option, name, monkeypatch,
                                                  capsys):
    # a cell count or cell budget below 1 is refused, naming its option,
    # before any partition is built; the budget in every mode
    def refuse(*args):
        raise AssertionError("Partition.uniform called")
    monkeypatch.setattr(quadrature.Partition, "uniform", refuse)
    code = run(["quad", *option, "--json", json.dumps(QUAD_SPEC)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith(f"input error: {name}: ")
    assert "must be >= 1" in captured.err


@pytest.mark.parametrize("option", [
    ["--partition", "uniform:8"], ["--sweep", "4:8"], ["--sweep", "8:8"],
])
def test_quad_partition_at_the_cell_budget_runs(option, capsys):
    code = run(["quad", *option, "--max-cells", "8",
                "--json", json.dumps(QUAD_SPEC)])
    capsys.readouterr()
    assert code == 0


@pytest.mark.parametrize("option", [
    ["--tol", "nan"], ["--tol", "0"], ["--tol", "-1"],
    ["--tol", "nan", "--sweep", "4:8"],
    ["--tol", "-1", "--partition", "uniform:4"],
])
def test_quad_rejects_a_bad_tolerance_or_budget(option, monkeypatch, capsys):
    # --tol is checked in every mode, as --max-cells is, before any
    # partition is built; the fixed-partition modes do not read it
    def refuse(*args):
        raise AssertionError("Partition.uniform called")
    monkeypatch.setattr(quadrature.Partition, "uniform", refuse)
    code = run(["quad", *option, "--json", json.dumps(QUAD_SPEC)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("input error: tol: must be > 0, got ")


def test_quad_sweep_solves_each_cell_once(count_calls, capsys):
    from test_quadrature import assert_derived_once, derive_once_counts
    counts = count_calls(funcrep.require_certificate, stieltjes.rs_integral,
                         stieltjes.rs_product_integral,
                         quadrature._cell_state)
    derived, code = derive_once_counts(
        count_calls,
        lambda: run(["quad", "--sweep", "4:256",
                     "--json", json.dumps(QUAD_SPEC_HOLDER)]))
    assert code == 0
    assert len(json.loads(capsys.readouterr().out)["results"]["sweep"]) == 7
    ns = (4, 8, 16, 32, 64, 128, 256)
    cells = sum(ns)
    assert counts["require_certificate"] == 1
    assert counts["rs_product_integral"] == 1
    assert counts["_cell_state"] == cells
    solved = derived.args["_solve_cell"]
    assert len(solved) == cells
    # no function restricted, one sided table per function, two integrals
    # against u per cell reading the solve's product map, and u evaluated
    # once per cell end of each partition
    assert assert_derived_once(derived) == [
        t for n in ns for t in quadrature.Partition.uniform(0.0, 1.0, n).points]
    # the cells' integrals are the closed-form loop on their fields, not
    # rs_integral; the one integral without a map is the report's exact
    # integral of f g du
    assert counts["rs_integral"] == 0
    assert sum(args[2] is None
               for args in derived.args["_integral"]) == 1


def test_quad_sweep_work_budget(count_calls, capsys):
    # exact counts of the derivation helpers over the seven solves, from
    # an empty derivative memo: one derivation (memo miss) per distinct
    # piece tail of f, g and u (6) and of the certificate check's f'
    # (1), shared by every solve; one pderiv per derivation and one per
    # product antiderivative (48 over the seven per-solve maps)
    from grusskit import poly
    counts = count_calls(poly.proots, poly.pderiv, poly.pmul,
                         funcrep.PiecewiseFunction.restrict,
                         funcrep.total_variation,
                         stieltjes._product_core, stieltjes._integral)
    assert run(["quad", "--sweep", "4:256",
                "--json", json.dumps(QUAD_SPEC_HOLDER)]) == 0
    capsys.readouterr()
    assert poly._tail_entry.cache_info().misses == 7
    assert counts["proots"] == 0
    assert counts["pderiv"] == 7 + 48
    assert counts["pmul"] == 50
    # and of the cell work over the 508 cells: every cell reads the fields
    # of f, g and u on it, so no function is restricted, the variation of
    # u is never taken of a restricted u (the whole u's is read by the
    # stated and the Holder bounds), and each cell runs the closed-form
    # loop twice, for g du and f du; the one whole-function integral is
    # the report's exact integral of f g du
    assert counts["restrict"] == 0
    assert all(args[0].domain == (0.0, 1.0)
               for args in counts.args["total_variation"])
    assert counts["_product_core"] == 1
    assert counts["_integral"] == 2 * 508 + 1


@pytest.mark.parametrize("option", [["--partition", "uniform:4"], []])
def test_quad_overflow_is_an_error(option, capsys):
    # f = g = 1e200 + 1e200 t against u = t: every cell term overflows
    big = _slot([[1e200, 1e200]])
    doc = json.dumps({"domain": [0.0, 1.0], "f": big, "g": big,
                      "u": _slot([[0.0, 1.0]])})
    code = run(["quad", *option, "--json", doc])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "DomainError" in captured.err


def test_quad_sweep_uses_the_first_holder_certificate(capsys):
    # ParsedSpec.cert, and so ``bound``, takes the first certificate of a
    # kind; the sweep must state its bound from the same one
    loose = {"slot": "f", "kind": "holder", "params": [5.0, 1.0]}
    runs = {}
    for name, spec in [
            ("first", QUAD_SPEC_HOLDER),
            ("two", dict(QUAD_SPEC, certificates=[
                *QUAD_SPEC_HOLDER["certificates"], loose]))]:
        code, report = run_capture(
            ["quad", "--sweep", "4:16", "--json", json.dumps(spec)], capsys)
        assert code == 0
        runs[name] = report["results"]["sweep"]
    assert runs["two"] == runs["first"]


def test_thm_a_11_refuses_a_narrow_negative_gap(tent_above_chord, capsys):
    doc = {"domain": [0.0, 1.0], "f": LINE,
           "u": jsonio.function_to_jsonable(tent_above_chord)}
    code = run(["bound", "--theorem", "thm_a_11", "--json", json.dumps(doc)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "HypothesisFailed" in captured.err


def write_quad_reports() -> None:
    QUAD_GOLDEN.write_text(json.dumps(quad_reports(), indent=1) + "\n")


def test_quad_reports_byte_identical_to_golden():
    want = json.loads(QUAD_GOLDEN.read_text())
    got = quad_reports()
    assert list(got) == list(want)
    for name in want:
        assert got[name] == want[name], name


# -- one parser per process, one build per parsed function --------------------

def readme_stream(tmp_path) -> list[list[str]]:
    """16 requests: every subcommand on the README spec, interleaved with
    argv that argparse rejects and with --help."""
    witness, quad = json.dumps(WITNESS_SPEC), json.dumps(QUAD_SPEC)
    slots, certs, _ = THEOREM_SPECS["thm_2_5"]
    with_p = json.dumps({"domain": [0.0, 1.0], **slots,
                         "certificates": certs})
    return [
        ["integrate", "--from", "0.25", "--to", "0.75",
         "--json", JUMP_AT_HALF_DOC],
        ["nosuch"],
        ["cheby", "--json", witness],
        ["dfunc", "--residual", "--json", JUMP_AT_HALF_DOC],
        ["bound", "--theorem", "thm_2_1a", "--json", witness],
        ["bound", "--json", witness],
        ["bound", "--theorem", "thm_2_5", "--p", "2.0", "--json", with_p],
        ["--help"],
        ["quad", "--tol", "1e-3", "--json", quad],
        ["bound", "--theorem", "thm_2_5", "--p", "x", "--json", with_p],
        ["quad", "--partition", "uniform:7", "--json", quad],
        ["quad", "--sweep", "4:64", "--csv", str(tmp_path / "rate.csv"),
         "--json", json.dumps(QUAD_SPEC_HOLDER)],
        ["quad", "--help"],
        ["sharpness", "--a", "-3", "--b", "7"],
        ["verify", "--theorem", "thm_2_2", "--trials", "10", "--seed", "7"],
        ["integrate", "--json", witness],
    ]


def run_stream(stream, capsys, tmp_path) -> list[tuple]:
    """(exit code, stdout without its timestamp, stderr, csv text) per
    request; a SystemExit escaping ``run`` fails the test."""
    csv = tmp_path / "rate.csv"
    out = []
    for argv in stream:
        csv.unlink(missing_ok=True)
        try:
            code = run(argv)
        except SystemExit as exc:
            pytest.fail(f"SystemExit({exc.code!r}) escaped run({argv!r})")
        captured = capsys.readouterr()
        stdout = captured.out
        if stdout.startswith("{"):
            doc = json.loads(stdout)
            doc.pop("timestamp")
            stdout = json.dumps(doc, indent=2)
        out.append((code, stdout, captured.err,
                    csv.read_text() if csv.exists() else None))
    return out


def test_requests_leave_the_shared_parser_as_a_fresh_one(
        tmp_path, monkeypatch, capsys):
    stream = readme_stream(tmp_path)
    cli._shared_parser.cache_clear()
    shared = run_stream(stream, capsys, tmp_path)
    monkeypatch.setattr(cli, "_shared_parser", cli.build_parser)
    fresh = run_stream(stream, capsys, tmp_path)
    assert [r[0] for r in shared] == [
        0, 2, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0]
    for argv, got, want in zip(stream, shared, fresh):
        assert got == want, argv


def test_parser_is_built_at_the_first_request_only(
        tmp_path, monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli._shared_parser.cache_clear()
    per_request = []
    for argv in readme_stream(tmp_path):
        before = len(built)
        run(argv)
        capsys.readouterr()
        per_request.append(len(built) - before)
    # one parser and its 7 subparsers
    assert per_request == [8] + [0] * 15


SLOTS_WITHOUT_VALUES = {"domain": [0.0, 1.0], "f": LINE, "g": SQUARE,
                        "w": ONE}
SLOTS_WITH_ONE_MISSING_VALUE = {
    "domain": [0.0, 1.0], "f": LINE,
    "u": {"breakpoints": [0.0, 0.5, 1.0],
          "pieces": [{"coeffs": [0.0]}, {"coeffs": [2.0]}],
          "values": {"0": 0.0, "1": 7.0}}}


@pytest.mark.parametrize("doc, missing", [
    (WITNESS_SPEC, 0),                    # u's values complete
    (jsonio.document_to_jsonable(jsonio.parse_document(QUAD_SPEC)), 0),
    (SLOTS_WITHOUT_VALUES, 0),
    (SLOTS_WITH_ONE_MISSING_VALUE, 1),    # build fills u's missing value
])
def test_loads_document_builds_each_function_once(doc, missing,
                                                   monkeypatch):
    built = []
    build = funcrep.PiecewiseFunction.build.__func__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return build(cls, *args, **kwargs)

    monkeypatch.setattr(funcrep.PiecewiseFunction, "build",
                        classmethod(counted))
    spec = jsonio.loads_document(json.dumps(doc))
    # exactly one build per function; an index that ``values`` leaves out
    # reaches that build as None, and build fills it
    assert len(built) == len(spec.functions)
    assert sum(v is None for args in built if args[2] is not None
               for v in args[2]) == missing

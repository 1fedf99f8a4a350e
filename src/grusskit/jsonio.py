"""JSON schemas for function specs and result reports.

A function-spec document carries a shared domain, named function slots and
optional certificates::

    {
      "domain": [0.0, 1.0],
      "f": {"breakpoints": [0.0, 1.0], "pieces": [{"coeffs": [0.0, 1.0]}]},
      "u": {"breakpoints": [0.0, 1.0], "pieces": [{"coeffs": [0.0]}],
             "values": {"0": -1.0, "1": 1.0}},
      "certificates": [{"slot": "f", "kind": "bounds", "params": [0.0, 1.0]}]
    }

Schema violations raise :class:`SchemaError` with a dotted field path.
Floats round-trip losslessly (shortest-repr encoding, up to 17 significant
digits).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .errors import DomainError, MalformedCertificate, SchemaError
from .funcrep import PiecewiseFunction, RegularityCertificate

FUNCTION_SLOTS = ("f", "g", "u", "w")


@dataclass
class ParsedSpec:
    domain: tuple[float, float]
    functions: dict[str, PiecewiseFunction] = field(default_factory=dict)
    certificates: dict[str, list[RegularityCertificate]] = \
        field(default_factory=dict)

    def require(self, slot: str) -> PiecewiseFunction:
        if slot not in self.functions:
            raise SchemaError(slot, "required function slot missing")
        return self.functions[slot]

    def cert(self, slot: str, kind: str) -> RegularityCertificate:
        for c in self.certificates.get(slot, []):
            if c.kind == kind:
                return c
        raise SchemaError(f"certificates.{slot}",
                          f"no {kind!r} certificate supplied")


def _number(obj, path: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise SchemaError(path, f"expected a number, got {type(obj).__name__}")
    return float(obj)


def _number_list(obj, path: str) -> list[float]:
    if not isinstance(obj, list) or not obj:
        raise SchemaError(path, "expected a non-empty array of numbers")
    return [_number(x, f"{path}[{i}]") for i, x in enumerate(obj)]


def parse_function(obj, domain: tuple[float, float],
                   path: str) -> PiecewiseFunction:
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected an object")
    unknown = set(obj) - {"breakpoints", "pieces", "values"}
    if unknown:
        raise SchemaError(path, f"unknown keys {sorted(unknown)!r}")
    bps = _number_list(obj.get("breakpoints"), f"{path}.breakpoints")
    if len(bps) < 2:
        raise SchemaError(f"{path}.breakpoints", "need at least two points")
    if bps[0] != domain[0] or bps[-1] != domain[1]:
        raise SchemaError(f"{path}.breakpoints",
                          "must start and end at the domain endpoints")
    pieces_obj = obj.get("pieces")
    if not isinstance(pieces_obj, list) or len(pieces_obj) != len(bps) - 1:
        raise SchemaError(f"{path}.pieces",
                          "need exactly one piece per subinterval")
    pieces = []
    for i, po in enumerate(pieces_obj):
        if not isinstance(po, dict) or "coeffs" not in po:
            raise SchemaError(f"{path}.pieces[{i}]",
                              "expected an object with 'coeffs'")
        if len(po) > 1:
            raise SchemaError(f"{path}.pieces[{i}]", f"unknown keys "
                              f"{sorted(set(po) - {'coeffs'})!r}")
        coeffs = _number_list(po["coeffs"], f"{path}.pieces[{i}].coeffs")
        pieces.append(tuple(coeffs))
    values = None
    if "values" in obj:
        vo = obj["values"]
        if not isinstance(vo, dict):
            raise SchemaError(f"{path}.values",
                              "expected an object keyed by breakpoint index")
        # one spelling per index, str(i) as function_to_jsonable writes it
        indices = {str(i): i for i in range(len(bps))}
        values = [None] * len(bps)
        for key, val in vo.items():
            if key not in indices:
                raise SchemaError(f"{path}.values.{key}",
                                  f"key must be a breakpoint index from 0 "
                                  f"to {len(bps) - 1} in plain decimal")
            values[indices[key]] = _number(val, f"{path}.values.{key}")
    try:
        return PiecewiseFunction.build(bps, pieces, values)
    except DomainError as exc:
        raise SchemaError(path, str(exc)) from None


def function_to_jsonable(f: PiecewiseFunction) -> dict:
    return {
        "breakpoints": list(f.breakpoints),
        "pieces": [{"coeffs": list(c)} for c in f.pieces],
        "values": {str(i): v for i, v in enumerate(f.point_values)},
    }


def parse_certificate(obj, path: str) -> tuple[str, RegularityCertificate]:
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected an object")
    unknown = set(obj) - {"slot", "kind", "params"}
    if unknown:
        raise SchemaError(path, f"unknown keys {sorted(unknown)!r}")
    slot = obj.get("slot")
    if slot not in FUNCTION_SLOTS:
        raise SchemaError(f"{path}.slot",
                          f"slot must be one of {FUNCTION_SLOTS!r}")
    kind = obj.get("kind")
    if not isinstance(kind, str):
        raise SchemaError(f"{path}.kind", "kind must be a string")
    params = obj.get("params", [])
    if not isinstance(params, list):
        raise SchemaError(f"{path}.params", "params must be an array")
    try:
        cert = RegularityCertificate(
            kind, tuple(_number(x, f"{path}.params[{i}]")
                        for i, x in enumerate(params)))
    except MalformedCertificate as exc:
        raise SchemaError(path, str(exc)) from None
    return slot, cert


def certificate_to_jsonable(slot: str, cert: RegularityCertificate) -> dict:
    return {"slot": slot, "kind": cert.kind, "params": list(cert.params)}


def parse_document(doc) -> ParsedSpec:
    if not isinstance(doc, dict):
        raise SchemaError("$", "expected a JSON object")
    unknown = set(doc) - ({"domain", "certificates"} | set(FUNCTION_SLOTS))
    if unknown:
        raise SchemaError("$", f"unknown keys {sorted(unknown)!r}")
    dom = doc.get("domain")
    if not isinstance(dom, list) or len(dom) != 2:
        raise SchemaError("domain", "expected [a, b]")
    a = _number(dom[0], "domain[0]")
    b = _number(dom[1], "domain[1]")
    if not (a < b):
        raise SchemaError("domain", "need a < b")
    spec = ParsedSpec((a, b))
    for slot in FUNCTION_SLOTS:
        if slot in doc:
            spec.functions[slot] = parse_function(doc[slot], (a, b), slot)
    certs = doc.get("certificates", [])
    if not isinstance(certs, list):
        raise SchemaError("certificates", "expected an array")
    for i, co in enumerate(certs):
        slot, cert = parse_certificate(co, f"certificates[{i}]")
        spec.certificates.setdefault(slot, []).append(cert)
    return spec


def document_to_jsonable(spec: ParsedSpec) -> dict:
    doc: dict = {"domain": list(spec.domain)}
    for slot in FUNCTION_SLOTS:
        if slot in spec.functions:
            doc[slot] = function_to_jsonable(spec.functions[slot])
    certs = []
    for slot in FUNCTION_SLOTS:
        for c in spec.certificates.get(slot, []):
            certs.append(certificate_to_jsonable(slot, c))
    if certs:
        doc["certificates"] = certs
    return doc


def loads_document(text: str) -> ParsedSpec:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("$", f"invalid JSON: {exc}") from None
    return parse_document(raw)


# -- result serialisation ----------------------------------------------------

def integral_to_jsonable(res) -> dict:
    return {"value": res.value, "abs_error": res.abs_error,
            "method": res.method}


def functional_to_jsonable(res) -> dict:
    return {"value": res.value, "abs_error": res.abs_error,
            "components": dict(res.components)}


def bound_report_to_jsonable(rep) -> dict:
    return {
        "theorem": rep.theorem_id,
        "lhs": rep.lhs,
        "rhs": rep.rhs,
        "ratio": rep.ratio,
        "holds": rep.holds,
        "tiers": [[k, v] for k, v in rep.tiers],
        "extras": [[k, v] for k, v in rep.extras],
        "inputs": [[k, v] for k, v in rep.inputs_digest],
        "lhs_error": rep.lhs_error,
    }


def quadrature_to_jsonable(res, per_cell: bool = True) -> dict:
    doc = {"value": res.value, "remainder_bound": res.remainder_bound,
           "tight_bound": res.tight_bound,
           "partition": list(res.partition.points)}
    if per_cell:
        doc["per_cell"] = res.per_cell.tolist()
    return doc


def _finite_or_null(obj):
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    return obj


def dumps_report(doc: dict) -> str:
    """Standard JSON: a non-finite float (a ratio of inf, the statistics of
    an empty ratio list) is written as null."""
    try:
        return json.dumps(doc, indent=2, allow_nan=False)
    except ValueError:
        return json.dumps(_finite_or_null(doc), indent=2, allow_nan=False)

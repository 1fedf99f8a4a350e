"""The theorem registry: one entry per bound family of the paper.

Each entry pairs a hypothesis-class **sampler**, ``rng -> (ParsedSpec, p)``,
which draws a seeded instance of the family's class for the soundness
battery, with an **evaluator**, ``(ParsedSpec, p) -> list[BoundReport]``,
which runs the family's bound operation on a function-spec document for
``grusskit bound``, the battery and the sharpness witnesses; all three call
it through ``Theorem.run``, which labels every report with the entry's id.
``p`` is the exponent of the L^p branches or None; the quadrature remainder
``thm_3_2a`` takes the Partition there instead, so ``grusskit bound`` does
not offer it.

Evaluators call the bound operations through the ``bounds`` module when
they run (``bnd.bound_T_bv(...)``), and samplers call the generators
through ``instances``: a tracer that rebinds module globals then sees every
call, which it would not if this table held the function objects.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Any, Callable

from . import bounds as bnd
from . import instances as gen
from .errors import SchemaError
from .funcrep import PiecewiseFunction, RegularityCertificate
from .jsonio import ParsedSpec
from .quadrature import Partition, _cell_state


@dataclass(frozen=True)
class Theorem:
    id: str
    sample: Callable[[random.Random], tuple[ParsedSpec, Any]]
    evaluate: Callable[[ParsedSpec, Any], list]
    takes_partition: bool = False

    def run(self, spec: ParsedSpec, p) -> list:
        """The evaluator's reports, each labelled with this entry's id (a
        bound operation names its report after the certificate, e.g.
        ``cor_2_2`` for an r = 1 Holder certificate)."""
        return [replace(rep, theorem_id=self.id)
                for rep in self.evaluate(spec, p)]

    def trial(self, rng: random.Random) -> list:
        """One soundness trial: evaluate a freshly sampled instance."""
        return self.run(*self.sample(rng))


# ---------------------------------------------------------------------------
# samplers.  A maker draws one function on [a, b] and returns it with the
# certificates it carries.  The draw order is part of the seed contract:
# (seed, theorem, trial) names one instance for good.
# ---------------------------------------------------------------------------

def _continuous(rng, a, b):
    return gen.rand_continuous(rng, a, b), []


def _jumpy(rng, a, b):
    return gen.rand_piecewise(rng, a, b, jumps=True), []


def _monotone(rng, a, b):
    return gen.rand_monotone(rng, a, b), []


def _convex(rng, a, b):
    return gen.rand_convex(rng, a, b), []


def _lipschitz(rng, a, b):
    f, lip = gen.rand_lipschitz(rng, a, b)
    return f, [lip]


def _holder(fractional: bool):
    def make(rng, a, b):
        f, cert = gen.rand_holder(rng, a, b, allow_fractional=fractional)
        return f, [cert]
    return make


def _bounded(make):
    """make's function with a bounds certificate instead of its own."""
    def bounded(rng, a, b):
        f, _ = make(rng, a, b)
        return f, [gen.rand_bounds_cert(f)]
    return bounded


def _bv_spanning(rng, a, b):
    return gen.ensure_span(
        rng, lambda: gen.rand_piecewise(rng, a, b, jumps=True)), []


def _monotone_spanning(rng, a, b):
    return gen.ensure_span(rng, lambda: gen.rand_monotone(rng, a, b)), []


def _lipschitz_spanning(rng, a, b):
    for _ in range(60):
        u, lip = gen.rand_lipschitz(rng, a, b)
        if abs(u(b) - u(a)) >= 0.1:
            return u, [lip]
    ident = PiecewiseFunction.from_coeffs((0.0, 1.0), a, b)
    return ident, [RegularityCertificate.lipschitz(1.0)]


def _nonneg_weight(rng, a, b):
    return gen.rand_nonneg_weight(rng, a, b), []


def _signed_weight(rng, a, b):
    return gen.rand_signed_weight(rng, a, b), []


def _draw(*slots, p_choices=None):
    """Sampler: the interval, then each (slot, maker) in order, then p.  A
    None slot is drawn and dropped, so that older seeds keep naming the same
    instances."""
    def sample(rng: random.Random):
        a, b = gen.rand_interval(rng)
        functions, certificates = {}, {}
        for slot, make in slots:
            fn, certs = make(rng, a, b)
            if slot is not None:
                functions[slot], certificates[slot] = fn, certs
        p = rng.choice(p_choices) if p_choices else None
        return ParsedSpec((a, b), functions, certificates), p
    return sample


def _sample_thm_b_2(rng: random.Random):
    a, b = gen.rand_interval(rng)
    f = gen.rand_piecewise(rng, a, b, jumps=True)
    u = gen.rand_monotone(rng, a, b, avoid=set(f.discontinuity_points()))
    if set(f.discontinuity_points()) & set(u.discontinuity_points()):
        u = gen.rand_monotone(rng, a, b, with_jumps=False)
    return ParsedSpec((a, b), {"f": f, "u": u},
                      {"f": [gen.rand_bv_cert(f)]}), None


_sample_quadrature_functions = _draw(
    ("f", _continuous), ("g", _continuous), ("u", _monotone_spanning))


def _sample_thm_3_2a(rng: random.Random):
    spec, _ = _sample_quadrature_functions(rng)
    (a, b), u = spec.domain, spec.functions["u"]
    n = rng.randint(1, 6)
    part = Partition.uniform(a, b, n)
    for _ in range(40):
        if all(_cell_state(u, lo, hi, u(lo), u(hi)) != "degenerate"
               for lo, hi in part.cells()):
            break
        n += 1
        part = Partition.uniform(a, b, n)
    return spec, part


def _holder_t(fractional: bool, u_make):
    """Holder f, continuous g, u from u_make, after one unused draw."""
    return _draw((None, _continuous), ("g", _continuous),
                 ("f", _holder(fractional)), ("u", u_make))


def _holder_lipschitz_t(fractional: bool):
    return _draw(("f", _holder(fractional)), ("g", _jumpy),
                 ("u", _lipschitz_spanning), p_choices=(1.5, 2.0, 3.0))


def _weighted_sample(which: str):
    """The sampler of a weighted item, from its ``bnd._WEIGHT_ITEMS`` row:
    a jumping bounded f where u is Lipschitz, as for thm_2_3a, and p
    choices for the one bound with a p-norm tier."""
    kind, u_class, bound = bnd._WEIGHT_ITEMS[which]
    weight = _nonneg_weight if u_class == "monotone" else _signed_weight
    if kind == "holder":
        f_make = _holder(True)
    else:
        f_make = _bounded(_jumpy if u_class == "lipschitz" else _continuous)
    return _draw(("g", _continuous), ("w", weight), ("f", f_make),
                 p_choices=(1.5, 2.0, 3.0)
                 if bound is bnd.bound_T_holder_lipschitz else None)


# ---------------------------------------------------------------------------
# evaluators
# ---------------------------------------------------------------------------

def _fgu(s: ParsedSpec):
    return s.require("f"), s.require("g"), s.require("u")


def _fu(s: ParsedSpec):
    return s.require("f"), s.require("u")


def _weighted_eval(which: str):
    kind = bnd._WEIGHT_ITEMS[which][0]

    def evaluate(s: ParsedSpec, p):
        f, g, w = s.require("f"), s.require("g"), s.require("w")
        return [bnd.weighted_bounds(f, g, w, which, p=p,
                                    **{f"f_{kind}": s.cert("f", kind)})]
    return evaluate


def _lipschitz_case(evaluate):
    """A corollary's evaluator: its theorem's, for r = 1 only."""
    def checked(s: ParsedSpec, p):
        r = s.cert("f", "holder").params[1]
        if r != 1.0:
            raise SchemaError("certificates.f",
                              f"the corollary needs holder(H, 1), got r = "
                              f"{r!r}; its theorem takes r < 1")
        return evaluate(s, p)
    return checked


def _holder_bv(s, p):
    return [bnd.bound_T_holder_bv(*_fgu(s), s.cert("f", "holder"))]


def _holder_monotone(s, p):
    return [bnd.bound_T_holder_monotone(*_fgu(s), s.cert("f", "holder"))]


def _holder_lipschitz(s, p):
    return [bnd.bound_T_holder_lipschitz(*_fgu(s), s.cert("f", "holder"),
                                         s.cert("u", "lipschitz"), p=p)]


_ENTRIES = (
    Theorem("thm_2_1a", _draw(("f", _bounded(_continuous)),
                              ("g", _continuous), ("u", _bv_spanning)),
            lambda s, p: [bnd.bound_T_bv(*_fgu(s), s.cert("f", "bounds"))]),
    Theorem("thm_2_2", _draw(("f", _bounded(_continuous)),
                             ("g", _continuous), ("u", _monotone_spanning)),
            lambda s, p: [bnd.bound_T_monotone(*_fgu(s),
                                               s.cert("f", "bounds"))]),
    Theorem("thm_2_3a", _draw(("f", _bounded(_jumpy)), ("g", _jumpy),
                              ("u", _lipschitz_spanning)),
            lambda s, p: [bnd.bound_T_lipschitz_u(
                *_fgu(s), s.cert("f", "bounds"), s.cert("u", "lipschitz"))]),
    Theorem("thm_2_1", _holder_t(True, _bv_spanning), _holder_bv),
    Theorem("cor_2_2", _holder_t(False, _bv_spanning),
            _lipschitz_case(_holder_bv)),
    Theorem("thm_2_3", _holder_t(True, _monotone_spanning), _holder_monotone),
    Theorem("cor_2_4", _holder_t(False, _monotone_spanning),
            _lipschitz_case(_holder_monotone)),
    Theorem("thm_2_5", _holder_lipschitz_t(True), _holder_lipschitz),
    Theorem("cor_2_6", _holder_lipschitz_t(False),
            _lipschitz_case(_holder_lipschitz)),
    *(Theorem(f"item_{k}", _weighted_sample(f"item{k}"),
              _weighted_eval(f"item{k}")) for k in range(1, 7)),
    Theorem("thm_a_1", _draw(("f", _bounded(_jumpy)), ("u", _lipschitz)),
            lambda s, p: bnd.bound_D_prior(
                *_fu(s), f_bounds=s.cert("f", "bounds"),
                u_lipschitz=s.cert("u", "lipschitz"))),
    Theorem("thm_a_2", _draw(("f", _lipschitz), ("u", _jumpy)),
            lambda s, p: bnd.bound_D_prior(
                *_fu(s), f_lipschitz=s.cert("f", "lipschitz"))),
    Theorem("thm_a_6_i", _draw(("f", _jumpy), ("u", _continuous)),
            lambda s, p: [bnd.bound_D_kernel(*_fu(s), "bv")]),
    Theorem("thm_a_6_ii", _draw(("f", _lipschitz), ("u", _jumpy)),
            lambda s, p: [bnd.bound_D_kernel(*_fu(s), "lipschitz",
                                             s.cert("f", "lipschitz"))]),
    Theorem("thm_a_6_iii", _draw(("f", _monotone), ("u", _continuous)),
            lambda s, p: [bnd.bound_D_kernel(*_fu(s), "monotone")]),
    Theorem("cor_a_7", _draw(("f", _jumpy), ("u", _continuous)),
            lambda s, p: [bnd.bound_D_corollaries(*_fu(s), "a12")]),
    Theorem("cor_a_8", _draw(("f", _lipschitz), ("u", _continuous),
                             p_choices=(1.5, 2.0, 4.0)),
            lambda s, p: [bnd.bound_D_corollaries(
                *_fu(s), "a13", p=p, f_lipschitz=s.cert("f", "lipschitz"))]),
    Theorem("cor_a_9", _draw(("f", _monotone), ("u", _continuous),
                             p_choices=(2.0, 3.0)),
            lambda s, p: [bnd.bound_D_corollaries(*_fu(s), "a14", p=p)]),
    Theorem("thm_a_11", _draw(("f", _monotone), ("u", _convex)),
            lambda s, p: [bnd.positivity_check_D(*_fu(s))]),
    Theorem("thm_b_1", _draw(("f", _lipschitz), ("u", _monotone)),
            lambda s, p: [bnd.bound_D_monotone_K(*_fu(s),
                                                 s.cert("f", "lipschitz"))]),
    Theorem("thm_b_2", _sample_thm_b_2,
            lambda s, p: [bnd.bound_D_monotone_Q(*_fu(s),
                                                 s.cert("f", "bv"))]),
    Theorem("thm_3_2a", _sample_thm_3_2a,
            lambda s, part: [bnd.bound_quadrature_remainder(*_fgu(s), part)],
            takes_partition=True),
)

THEOREMS: dict[str, Theorem] = {t.id: t for t in _ENTRIES}

"""Randomised soundness harness: every bound gets hammered with seeded
instances of its hypothesis class and must hold on all of them.

``verify_theorem`` runs the seeded trials of one registry entry; the CLI
``verify`` command calls it once per requested id.  A violation carries a
JSON-ready reproducer of the offending instance.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable

from .errors import DomainError
from .theorems import THEOREMS as REGISTRY


@dataclass
class VerifySummary:
    theorem_id: str
    trials: int
    violations: list[dict] = field(default_factory=list)
    ratios: list[float] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def min_ratio(self) -> float:
        return min(self.ratios) if self.ratios else math.nan

    @property
    def max_ratio(self) -> float:
        return max(self.ratios) if self.ratios else math.nan

    @property
    def mean_ratio(self) -> float:
        return sum(self.ratios) / len(self.ratios) if self.ratios else math.nan

    def to_jsonable(self) -> dict:
        return {
            "theorem": self.theorem_id,
            "trials": self.trials,
            "violations": self.violations,
            "min_ratio": self.min_ratio,
            "mean_ratio": self.mean_ratio,
            "max_ratio": self.max_ratio,
        }


# theorem id -> one seeded trial (a list of reports); a view of the registry
THEOREMS: dict[str, Callable[[random.Random], list]] = {
    tid: entry.trial for tid, entry in REGISTRY.items()}

THEOREM_IDS = tuple(THEOREMS)


def _reproducer(rng_seed: int, theorem_id: str, trial: int) -> dict:
    return {"theorem": theorem_id, "seed": rng_seed, "trial": trial}


def verify_theorem(theorem_id: str, trials: int = 1000,
                   seed: int = 0) -> VerifySummary:
    """Run seeded trials of one theorem; any non-holding report or
    unexpected exception is recorded as a violation with a reproducer."""
    if theorem_id not in THEOREMS:
        raise DomainError(f"unknown theorem id {theorem_id!r}")
    make = THEOREMS[theorem_id]
    summary = VerifySummary(theorem_id, trials)
    for k in range(trials):
        # string seeding is sha512-based, hence stable across processes
        rng = random.Random(f"{seed}:{theorem_id}:{k}")
        try:
            reports = make(rng)
        except Exception as exc:  # recorded, so one crash cannot end the run
            summary.violations.append(
                dict(_reproducer(seed, theorem_id, k),
                     error=type(exc).__name__, message=str(exc)))
            continue
        for rep in reports:
            if math.isfinite(rep.ratio):
                summary.ratios.append(rep.ratio)
            if not rep.holds:
                summary.violations.append(
                    dict(_reproducer(seed, theorem_id, k),
                         lhs=rep.lhs, rhs=rep.rhs,
                         tiers=list(map(list, rep.tiers))))
    return summary


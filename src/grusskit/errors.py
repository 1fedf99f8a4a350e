"""Exception types shared across the toolkit."""

from __future__ import annotations


class GrussKitError(Exception):
    """Base class for all toolkit errors."""


class DomainError(GrussKitError):
    """A point or interval lies outside the function's domain, or a
    precondition on the evaluation side was violated."""


class MalformedCertificate(GrussKitError):
    """Certificate parameters violate the certificate-kind invariants."""


class CertificateInvalid(GrussKitError):
    """A certificate failed verification against its function."""

    def __init__(self, message: str, witness: float | None = None):
        super().__init__(message)
        self.witness = witness


class SharedDiscontinuity(GrussKitError):
    """Integrand and integrator jump at the same point; the
    Riemann-Stieltjes integral need not exist there."""

    def __init__(self, point: float):
        super().__init__(f"integrand and integrator both jump at t={point!r}")
        self.point = point


class DegenerateIntegrator(GrussKitError):
    """u(b) == u(a): the normalised functional is undefined."""


class DegenerateWeight(GrussKitError):
    """The weight integrates to zero over the interval."""


class NegativeWeight(GrussKitError):
    """A nonnegative weight was required but w < 0 somewhere."""

    def __init__(self, point: float):
        super().__init__(f"weight is negative near t={point!r}")
        self.point = point


class BadExponent(GrussKitError):
    """An exponent outside the admissible range was supplied."""


class ClassMismatch(GrussKitError):
    """A bound that needs a continuous integrator u was given one that
    jumps."""


class HypothesisFailed(GrussKitError):
    """A pointwise hypothesis check failed; carries a witness point."""

    def __init__(self, point: float, message: str | None = None):
        super().__init__(message or f"hypothesis fails at t={point!r}")
        self.point = point


class DegenerateCell(GrussKitError):
    """u takes equal values at the ends of a partition cell on which it is
    not constant, so the per-cell rule is undefined."""

    def __init__(self, index: int, cell: tuple[float, float]):
        super().__init__(f"u(x_(i+1)) == u(x_i) on non-constant cell "
                         f"{index}: {cell!r}")
        self.index = index
        self.cell = cell


class ToleranceUnreachable(GrussKitError):
    """Adaptive refinement stagnated before reaching the target bound."""

    def __init__(self, cell: tuple[float, float], bound: float):
        super().__init__(f"certified bound stagnates at {bound!r} on cell "
                         f"{cell!r}")
        self.cell = cell
        self.bound = bound


class UnknownWitness(GrussKitError):
    """No extremal witness is registered under the requested id."""


class GeneratorExhausted(GrussKitError):
    """The random-instance generator could not sample the hypothesis class."""


class SchemaError(GrussKitError):
    """A JSON document violates the function-spec schema."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path

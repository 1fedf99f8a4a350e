"""Certified Riemann-Stieltjes integration and Gruss-type inequality
verification for piecewise-polynomial functions."""

import types

__version__ = "0.1.0"

from .errors import (BadExponent, CertificateInvalid, ClassMismatch,
                     DegenerateCell, DegenerateIntegrator, DegenerateWeight,
                     DomainError, GeneratorExhausted, GrussKitError,
                     HypothesisFailed, MalformedCertificate, NegativeWeight,
                     SchemaError, SharedDiscontinuity, ToleranceUnreachable,
                     UnknownWitness)
from .funcrep import (Enclosure, PiecewiseFunction, RegularityCertificate,
                      eval_sided, inf_sup_on, p_norm, sup_norm_on,
                      total_variation, verify_certificate)
from .stieltjes import IntegralResult, riemann_integral, rs_integral, \
    rs_oracle
from .functionals import (FunctionalValue, cheby_T, functional_D,
                          functional_E, identity_residual_D, kernel_delta,
                          kernel_gamma, kernel_phi, weighted_Tw)
from .bounds import (BoundReport, beta_int, bound_D_corollaries,
                     bound_D_kernel, bound_D_monotone_K, bound_D_monotone_Q,
                     bound_D_prior, bound_T_bv, bound_T_holder_bv,
                     bound_T_holder_lipschitz, bound_T_holder_monotone,
                     bound_T_lipschitz_u, bound_T_monotone,
                     ostrowski_pointwise, positivity_check_D,
                     weighted_bounds)
from .quadrature import (Partition, QuadratureResult, adaptive_quadrature,
                         composite_S, oscillation_v, remainder_bound_holder,
                         remainder_bound_osc)
from .sharpness import (WITNESS_IDS, Witness, evaluate_witness,
                        p_branch_constant_estimate, run_catalogue,
                        sharpness_ratio, witness)

# submodules become package attributes as they are imported; they are not
# part of the star-import surface
__all__ = [name for name, value in globals().items()
           if not (name.startswith("_")
                   or isinstance(value, types.ModuleType))]

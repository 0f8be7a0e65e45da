"""Exact toolkit for maximum pairwise-independent event families.

On the uniform sample space {1..n}, g(n) is the largest intersecting
family of events that are pairwise independent and f(n) = g(n) + 1 is
the largest pairwise-independent family outright.  This package computes
both by exhaustive clique search at small n, builds extremal witnesses
from Hadamard matrices and 2-designs, and certifies every family with an
exact integer Gram/rank certificate.
"""

from .construct import (
    Design,
    DesignCheck,
    HadamardMatrix,
    check_design,
    design_from_dict,
    design_to_dict,
    dualize_design,
    hadamard_family,
    hadamard_from_json,
    hadamard_from_text,
    hadamard_matrix,
    hadamard_to_design,
    hadamard_to_json,
    hadamard_to_text,
    paley1,
    paley_orders,
    projective_plane,
    sylvester,
    sylvester_orders,
    validate_design,
)
from .exactlin import GramReport, gram_certify, rank
from .graphs import JohnsonGraphOracle, PowerSetGraphOracle
from .search import (
    CliqueResult,
    SweepRow,
    conjecture_sweep,
    f_exact,
    g_exact,
    implied_f_bound,
    johnson_omega,
    max_clique,
)
from .setsys import (
    CapacityError,
    CertificateError,
    Event,
    Family,
    ParameterError,
    PifamError,
    SampleSpace,
    family_from_dict,
    family_to_dict,
    is_independent,
    is_pairwise_independent,
    is_valid_g_family,
    mask_to_points,
    points_to_mask,
    probability,
    violations,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "CertificateError",
    "CliqueResult",
    "Design",
    "DesignCheck",
    "Event",
    "Family",
    "GramReport",
    "HadamardMatrix",
    "JohnsonGraphOracle",
    "ParameterError",
    "PifamError",
    "PowerSetGraphOracle",
    "SampleSpace",
    "SweepRow",
    "check_design",
    "conjecture_sweep",
    "design_from_dict",
    "design_to_dict",
    "dualize_design",
    "f_exact",
    "family_from_dict",
    "family_to_dict",
    "g_exact",
    "gram_certify",
    "hadamard_family",
    "hadamard_from_json",
    "hadamard_from_text",
    "hadamard_matrix",
    "hadamard_to_design",
    "hadamard_to_json",
    "hadamard_to_text",
    "implied_f_bound",
    "is_independent",
    "is_pairwise_independent",
    "is_valid_g_family",
    "johnson_omega",
    "mask_to_points",
    "max_clique",
    "paley1",
    "paley_orders",
    "points_to_mask",
    "probability",
    "projective_plane",
    "rank",
    "sylvester",
    "sylvester_orders",
    "validate_design",
    "violations",
]

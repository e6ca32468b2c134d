"""Exact rationality of powers of trigonometric functions at rational angles.

The package decides, in exact rational and cyclotomic arithmetic, when
cos(pi*p/q)^n, sin(pi*p/q)^n or tan(pi*p/q)^n is a rational number, produces
the value and the least such exponent, and verifies the surrounding algebra
(binomial irreducibility, Gauss sums, square-root embeddings, membership of
real radicals in cyclotomic fields, and the group acting on the roots) by
independent computation.
"""

from .cyclotomic import (
    CycElem,
    cyclotomic_polynomial,
    minimal_polynomial,
    zeta,
    zeta_power,
)
from .kummer import (
    GroupReport,
    MetaGaloisElem,
    RootJustification,
    RootMembershipVerdict,
    SubsetFactor,
    binomial_irreducible,
    gauss_sum,
    gauss_sum_case_check,
    meta_compose,
    meta_group_checks,
    nth_root_in_cyclotomic,
    sqrt_in_cyclotomic,
    subset_factorizations,
    subset_unity_product,
    verify_remark_factorization,
)
from .numtheory import (
    divisors,
    euler_phi,
    format_rational,
    nth_root_rational,
    parse_rational,
    prime_factorization,
    radical_condition,
)
from .polynomials import RatPoly
from .sweep import Hit, SweepConfig, SweepReport, Violation, reduced_angles, verify_theorem_sweep
from .trig import (
    Angle,
    Case,
    Classification,
    TrigFunc,
    UndefinedTrigValue,
    ValueDescriptor,
    classify,
    power_rational,
    theorem_value_list,
    trig_elem,
    value_descriptor,
)
from .cli import run_cli

__all__ = [
    "Angle",
    "Case",
    "Classification",
    "CycElem",
    "GroupReport",
    "Hit",
    "MetaGaloisElem",
    "RatPoly",
    "RootJustification",
    "RootMembershipVerdict",
    "SubsetFactor",
    "SweepConfig",
    "SweepReport",
    "TrigFunc",
    "UndefinedTrigValue",
    "ValueDescriptor",
    "Violation",
    "binomial_irreducible",
    "classify",
    "cyclotomic_polynomial",
    "divisors",
    "euler_phi",
    "format_rational",
    "gauss_sum",
    "gauss_sum_case_check",
    "meta_compose",
    "meta_group_checks",
    "minimal_polynomial",
    "nth_root_in_cyclotomic",
    "nth_root_rational",
    "parse_rational",
    "power_rational",
    "prime_factorization",
    "radical_condition",
    "reduced_angles",
    "run_cli",
    "sqrt_in_cyclotomic",
    "subset_factorizations",
    "subset_unity_product",
    "theorem_value_list",
    "trig_elem",
    "value_descriptor",
    "verify_remark_factorization",
    "verify_theorem_sweep",
    "zeta",
    "zeta_power",
]

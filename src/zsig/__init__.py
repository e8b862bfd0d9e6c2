"""Exact arithmetic for Zsigmondy and large Zsigmondy primes."""

from .arith import (
    Effort,
    Factorization,
    divisors,
    euler_phi,
    factorize,
    is_prime,
    largest_prime_divisor,
    mobius,
    vp,
)
from .cyclotomic import Triple, cyclotomic_coeffs, eval_homogeneous
from .valuation import multiplicative_order, vp_cyclotomic
from .zsigmondy import (
    DivisorCase,
    ExceptionKind,
    FastDecision,
    PrimeDivisorClass,
    ZsigReport,
    analyze,
    classify_exception,
    classify_prime_divisor,
    has_large_zsigmondy_fast,
    sufficiency_check,
)

__version__ = "0.1.0"

__all__ = [
    "Effort",
    "Factorization",
    "divisors",
    "euler_phi",
    "factorize",
    "is_prime",
    "largest_prime_divisor",
    "mobius",
    "vp",
    "Triple",
    "cyclotomic_coeffs",
    "eval_homogeneous",
    "multiplicative_order",
    "vp_cyclotomic",
    "DivisorCase",
    "ExceptionKind",
    "FastDecision",
    "PrimeDivisorClass",
    "ZsigReport",
    "analyze",
    "classify_exception",
    "classify_prime_divisor",
    "has_large_zsigmondy_fast",
    "sufficiency_check",
    "__version__",
]

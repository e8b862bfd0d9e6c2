"""Zsigmondy prime detection and the no-large-prime exception table.

A Zsigmondy prime of (a, b, n) divides a**n - b**n but no earlier
a**m - b**m; equivalently the multiplicative order of a * b^(-1) mod the
prime is exactly n.  A large Zsigmondy prime additionally has square
multiplicity in a**n - b**n or exceeds n + 1.

Everything funnels through the homogeneous cyclotomic value: its prime
divisors are the order-n primes plus at most one known interloper, which
is what makes the factorization-free existence decision possible.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .arith import Effort, Factorization, factorize, is_prime, largest_prime_divisor, vp
from .arith import _index_factors
from .cyclotomic import Triple, cyclotomic_coeffs, eval_homogeneous
from .valuation import multiplicative_order, vp_cyclotomic


class DivisorCase(Enum):
    """The three ways a prime can divide a homogeneous cyclotomic value."""

    TWO_POWER = "two_power"
    ZSIGMONDY = "zsigmondy"
    LARGEST_PRIME = "largest_prime"


@dataclass(frozen=True)
class PrimeDivisorClass:
    case: DivisorCase
    p: int
    k: int
    beta: int

    def __post_init__(self) -> None:
        if self.case is DivisorCase.TWO_POWER and self.p != 2:
            raise ValueError("two-power case requires p = 2")
        if self.case is not DivisorCase.TWO_POWER and self.p < 3:
            raise ValueError("odd cases require p >= 3")


class ExceptionKind(Enum):
    """Why a triple has no large Zsigmondy prime (NONE when it does)."""

    NONE = "none"
    SUM_POWER_OF_TWO = "sum_power_of_two"
    SUM_THREE_TIMES_POWER_OF_TWO = "sum_three_times_power_of_two"
    TRIPLE_2_1_6 = "triple_2_1_6"
    SMALL_PAIR_N4 = "small_pair_n4"
    SMALL_PAIR_N6 = "small_pair_n6"
    PAIR_2_1_N10_12_18 = "pair_2_1_n10_12_18"


@dataclass(frozen=True)
class ExceptionCase:
    kind: ExceptionKind
    s: int | None = None
    t: int | None = None
    pair: tuple[int, int] | None = None

    @property
    def is_exception(self) -> bool:
        return self.kind is not ExceptionKind.NONE

    def witness(self) -> dict:
        out: dict = {}
        if self.s is not None:
            out["s"] = self.s
        if self.t is not None:
            out["t"] = self.t
        if self.pair is not None:
            out["pair"] = list(self.pair)
        return out


# the frozen result shared by every triple the table does not list
_NO_EXCEPTION = ExceptionCase(ExceptionKind.NONE)


@dataclass(frozen=True)
class FastDecision:
    """Existence decision with the arithmetic that produced it.

    residual is the cyclotomic value after removing the one possible
    non-Zsigmondy prime power; the decision is residual > threshold.
    """

    has_large: bool
    phi_value: int
    removed_prime: int | None
    removed_exponent: int
    residual: int
    threshold: int


@dataclass(frozen=True)
class ZsigReport:
    triple: Triple
    phi_value: int
    zsig_primes: tuple[tuple[int, int], ...]
    large_zsig_primes: tuple[int, ...]
    has_zsigmondy: bool
    has_large: bool
    exception: ExceptionCase
    factorization_complete: bool
    phi_factors: Factorization
    fast: FastDecision
    large_multiplier: int = 1

    @property
    def table_agrees(self) -> bool:
        """Whether the exception table predicted has_large correctly."""
        return (not self.exception.is_exception) == self.has_large


class IncompleteFactorizationError(Exception):
    """The budget ran out before zsigmondy_primes could list every prime.

    Carries whatever was established: the partial factorization and the
    order-n primes among the factors found.  analyze never raises it; its
    report says factorization_complete=False instead.
    """

    def __init__(
        self,
        message: str,
        factorization: Factorization,
        partial_primes: tuple[tuple[int, int], ...],
    ) -> None:
        super().__init__(message)
        self.factorization = factorization
        self.partial_primes = partial_primes


def _order_equals(q: int, a: int, b: int, n: int) -> bool:
    """Whether the order of a * b^(-1) mod q is exactly n, by powmod."""
    x = a * pow(b, q - 2, q) % q
    if pow(x, n, q) != 1:
        return False
    for r, _ in _index_factors(n):
        if pow(x, n // r, q) == 1:
            return False
    return True


def zsigmondy_primes(
    t: Triple, effort: Effort | None = None
) -> list[tuple[int, int]]:
    """All primes whose order at (a, b) is exactly n, with the exponent
    they carry in a**n - b**n, located by factoring the cyclotomic value.

    For an order-n prime the exponent in a**n - b**n equals its exponent
    in the cyclotomic value, because no other divisor level can contain
    it; the report records that shared exponent.

    Raises IncompleteFactorizationError when the budget is exhausted
    before the value splits completely.
    """
    fac, zsig = _zsig_core(t, eval_homogeneous(t.n, t.a, t.b), effort)
    if not fac.complete:
        raise IncompleteFactorizationError(
            f"budget exhausted with composite cofactor of {fac.cofactor.bit_length()} bits",
            fac,
            tuple(zsig),
        )
    return zsig


def _zsig_core(
    t: Triple, value: int, effort: Effort | None
) -> tuple[Factorization, list[tuple[int, int]]]:
    """Factor the cyclotomic value of t and keep the primes of order n.

    Besides order-n primes the value can hold only 2 and the largest
    prime of n; trial division finds them when its bound reaches them,
    rho splits them off otherwise.
    """
    fac = factorize(value, effort)
    zsig = [
        (q, e) for q, e in fac.factors if _order_equals(q, t.a, t.b, t.n)
    ]
    return fac, zsig


def _large(
    zsig: list[tuple[int, int]], n: int, multiplier: int
) -> tuple[int, ...]:
    # large: squared in a**n - b**n, or beyond multiplier * n + 1
    return tuple(q for q, e in zsig if e >= 2 or q > multiplier * n + 1)


def large_zsigmondy_primes(
    t: Triple, multiplier: int = 1, effort: Effort | None = None
) -> list[int]:
    """Zsigmondy primes that are large: squared in a**n - b**n or beyond
    multiplier * n + 1.  multiplier = 1 is the standard notion."""
    if multiplier < 1:
        raise ValueError("multiplier must be a positive integer")
    return list(_large(zsigmondy_primes(t, effort), t.n, multiplier))


def _phi_mod(n: int, a: int, b: int, p: int) -> int:
    # Horner evaluation of the homogeneous value mod p; avoids big integers
    cs = cyclotomic_coeffs(n).coeffs
    acc = cs[-1] % p
    bpow = 1
    for k in range(len(cs) - 2, -1, -1):
        bpow = bpow * b % p
        acc = (acc * a + cs[k] * bpow) % p
    return acc


def classify_prime_divisor(p: int, t: Triple) -> PrimeDivisorClass:
    """Which of the three divisor cases p falls into for this triple.

    p must actually divide the cyclotomic value (checked modularly).  The
    largest-prime case additionally verifies its multiplicity-one claim
    through the closed-form valuation.
    """
    if not is_prime(p):
        raise ValueError("p must be prime")
    a, b, n = t.a, t.b, t.n
    if _phi_mod(n, a, b, p) != 0:
        raise ValueError("p does not divide the cyclotomic value")
    if p == 2:
        if n == 1:
            raise ValueError("p = 2 at n = 1 is outside the case analysis")
        if n & (n - 1) != 0:
            raise ValueError("2 divides the value only at power-of-two indices")
        return PrimeDivisorClass(DivisorCase.TWO_POWER, 2, 1, n.bit_length() - 1)
    if _order_equals(p, a, b, n):
        return PrimeDivisorClass(DivisorCase.ZSIGMONDY, p, n, 0)
    if p == largest_prime_divisor(n):
        k = multiplicative_order(p, a, b)
        beta = vp(n, p)
        if beta >= 1 and n == p**beta * k:
            if vp_cyclotomic(p, a, b, n) != 1:
                raise AssertionError("largest-prime divisor must have multiplicity 1")
            return PrimeDivisorClass(DivisorCase.LARGEST_PRIME, p, k, beta)
    raise ValueError("prime divisor fits no case; this contradicts the theory")


def has_large_zsigmondy_fast(t: Triple) -> FastDecision:
    """Factorization-free existence decision for a large Zsigmondy prime.

    Remove the one possible non-Zsigmondy prime from the cyclotomic value
    C: every factor of the largest prime P(n) dividing n.  That is a
    single factor for n >= 3 (when present) and v_2(a + b) factors at
    n = 2, where P(n) = 2.  What remains is a product of primes of order
    exactly n, each congruent to 1 mod n and hence at least n + 1.  So:
    residual 1 means no Zsigmondy prime, residual n + 1 means exactly one
    and it is not large, and residual > n + 1 forces either a prime above
    n + 1 or a repeated prime, either of which is large.
    """
    a, b, n = t.a, t.b, t.n
    if n < 2:
        raise ValueError("the decision needs n >= 2")
    value = eval_homogeneous(n, a, b)
    p = largest_prime_divisor(n)
    removed_exp = 0
    residual = value
    while residual % p == 0:
        residual //= p
        removed_exp += 1
    return FastDecision(
        has_large=residual > n + 1,
        phi_value=value,
        removed_prime=p if removed_exp else None,
        removed_exponent=removed_exp,
        residual=residual,
        threshold=n + 1,
    )


def sufficiency_check(t: Triple) -> bool:
    """Strict inequality (n+1) * P(n) < C that forces a large Zsigmondy
    prime to exist.  One-directional: failure decides nothing."""
    if t.n < 3:
        raise ValueError("the sufficiency bound needs n >= 3")
    value = eval_homogeneous(t.n, t.a, t.b)
    return (t.n + 1) * largest_prime_divisor(t.n) < value


def classify_exception(t: Triple) -> ExceptionCase:
    """Pure table lookup: which known no-large-prime case the triple is.

    Entirely syntactic (the only arithmetic is the odd part of a + b at
    n = 2), so comparing it against computed existence is a genuine
    cross-check of the table, not a circular one.
    """
    a, b, n = t.a, t.b, t.n
    if n < 2:
        raise ValueError("the exception table starts at n = 2")
    if n == 2:
        s = vp(a + b, 2)
        odd = (a + b) >> s
        if odd == 1:
            return ExceptionCase(ExceptionKind.SUM_POWER_OF_TWO, s=s, t=0)
        if odd == 3:
            return ExceptionCase(
                ExceptionKind.SUM_THREE_TIMES_POWER_OF_TWO, s=s, t=1
            )
        return _NO_EXCEPTION
    if n == 4 and (a, b) in {(2, 1), (3, 1)}:
        return ExceptionCase(ExceptionKind.SMALL_PAIR_N4, pair=(a, b))
    if n == 6:
        if (a, b) == (2, 1):
            return ExceptionCase(ExceptionKind.TRIPLE_2_1_6, pair=(2, 1))
        if (a, b) in {(3, 1), (3, 2), (5, 4)}:
            return ExceptionCase(ExceptionKind.SMALL_PAIR_N6, pair=(a, b))
    if n in {10, 12, 18} and (a, b) == (2, 1):
        return ExceptionCase(ExceptionKind.PAIR_2_1_N10_12_18, pair=(2, 1))
    return _NO_EXCEPTION


def analyze(
    t: Triple, effort: Effort | None = None, multiplier: int = 1
) -> ZsigReport:
    """Full per-triple report.

    The existence answer is computed three ways: from the factored prime
    list, from the factorization-free decision, and (as a prediction) from
    the exception table.  The first two must agree and that is asserted;
    the table's prediction is recorded in the report, where a disagreement
    is data, not an error: the scanner collects such triples as
    mismatches.

    A report is returned whether or not the budget lets the value split
    completely.  When it does not, factorization_complete is False, the
    prime lists are partial, and has_large comes from the
    factorization-free decision, which is exact either way.
    """
    if multiplier < 1:
        raise ValueError("multiplier must be a positive integer")
    fast = has_large_zsigmondy_fast(t)
    exception = classify_exception(t)
    value = fast.phi_value
    fac, zsig = _zsig_core(t, value, effort)
    large = _large(zsig, t.n, multiplier)
    complete = fac.complete
    if complete:
        if multiplier == 1 and bool(large) != fast.has_large:
            raise AssertionError(
                f"factored and factorization-free decisions disagree on {t}"
            )
        for q, _ in zsig:
            if value % q != 0 or q % t.n != 1:
                raise AssertionError(f"order-{t.n} prime {q} violates its invariants")
    return ZsigReport(
        triple=t,
        phi_value=value,
        zsig_primes=tuple(zsig),
        large_zsig_primes=large,
        has_zsigmondy=bool(zsig) or (not complete and fast.residual > 1),
        has_large=bool(large) if complete else fast.has_large,
        exception=exception,
        factorization_complete=complete,
        phi_factors=fac,
        fast=fast,
        large_multiplier=multiplier,
    )

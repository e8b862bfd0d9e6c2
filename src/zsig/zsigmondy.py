"""Zsigmondy prime detection and the no-large-prime exception table.

A Zsigmondy prime of (a, b, n) divides a**n - b**n but no earlier
a**m - b**m; equivalently the multiplicative order of a * b^(-1) mod the
prime is exactly n.  A large Zsigmondy prime additionally has square
multiplicity in a**n - b**n or exceeds n + 1.

Everything funnels through the homogeneous cyclotomic value.  Each of
its primes is P(lcm(2, n)), the largest prime of lcm(2, n), or of order
n and so in 1 + k * lcm(2, n): one known interloper at most, which is
what makes the factorization-free existence decision possible.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from enum import Enum
from typing import NamedTuple

from .arith import Effort, Factorization, is_prime, largest_prime_divisor, vp
from .arith import _factor, _index_records, _trial_divide, _trial_limit, _Validated
from .cyclotomic import Triple, _eval_homogeneous
from .cyclotomic import _aurifeuillian_pieces, _power_pieces
from .valuation import multiplicative_order, vp_cyclotomic


class DivisorCase(Enum):
    """The three ways a prime can divide a homogeneous cyclotomic value."""

    TWO_POWER = "two_power"
    ZSIGMONDY = "zsigmondy"
    LARGEST_PRIME = "largest_prime"


class PrimeDivisorClass(
    _Validated,
    NamedTuple(
        "_PrimeDivisorClassFields",
        [("case", DivisorCase), ("p", int), ("k", int), ("beta", int)],
    )
):
    __slots__ = ()

    def __new__(cls, case: DivisorCase, p: int, k: int, beta: int) -> PrimeDivisorClass:
        if case is DivisorCase.TWO_POWER and p != 2:
            raise ValueError("two-power case requires p = 2")
        if case is not DivisorCase.TWO_POWER and p < 3:
            raise ValueError("odd cases require p >= 3")
        return tuple.__new__(cls, (case, p, k, beta))


class ExceptionKind(Enum):
    """Why a triple has no large Zsigmondy prime (NONE when it does)."""

    NONE = "none"
    SUM_POWER_OF_TWO = "sum_power_of_two"
    SUM_THREE_TIMES_POWER_OF_TWO = "sum_three_times_power_of_two"
    TRIPLE_2_1_6 = "triple_2_1_6"
    SMALL_PAIR_N4 = "small_pair_n4"
    SMALL_PAIR_N6 = "small_pair_n6"
    PAIR_2_1_N10_12_18 = "pair_2_1_n10_12_18"

    @property
    def is_exception(self) -> bool:
        return self is not _KIND_NONE

    def witness(self, a: int, b: int) -> dict:
        """The table's evidence for (a, b): a + b = 2^s * 3^t at n = 2, else the pair."""
        if self is _KIND_NONE:
            return {}
        if self in (ExceptionKind.SUM_POWER_OF_TWO, ExceptionKind.SUM_THREE_TIMES_POWER_OF_TWO):
            return {"s": vp(a + b, 2), "t": vp(a + b, 3)}
        return {"pair": [a, b]}


# read per is_exception call: the class attribute lookup costs more
_KIND_NONE = ExceptionKind.NONE

# The paper's table of the triples with no large Zsigmondy prime, as
# (n, members, kind) rows.  A member is an (a, b) pair, except at n = 2,
# where it is the odd part 3^t of a + b = 2^s * 3^t.  (2, 1, 6) sits in
# two rows; the first one names it.
EXCEPTION_TABLE = (
    (2, (1,), ExceptionKind.SUM_POWER_OF_TWO),
    (2, (3,), ExceptionKind.SUM_THREE_TIMES_POWER_OF_TWO),
    (4, ((2, 1), (3, 1)), ExceptionKind.SMALL_PAIR_N4),
    (6, ((2, 1),), ExceptionKind.TRIPLE_2_1_6),
    (6, ((2, 1), (3, 1), (3, 2), (5, 4)), ExceptionKind.SMALL_PAIR_N6),
    (10, ((2, 1),), ExceptionKind.PAIR_2_1_N10_12_18),
    (12, ((2, 1),), ExceptionKind.PAIR_2_1_N10_12_18),
    (18, ((2, 1),), ExceptionKind.PAIR_2_1_N10_12_18),
)
# read per lookup, before any row is scanned
_TABLE_INDICES = frozenset(n for n, _, _ in EXCEPTION_TABLE)
_TABLE_MEMBERS = frozenset((n, m) for n, members, _ in EXCEPTION_TABLE for m in members)


class FastDecision(NamedTuple):
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


class ZsigReport(NamedTuple):
    triple: Triple
    zsig_primes: tuple[tuple[int, int], ...]
    large_zsig_primes: tuple[int, ...]
    has_large: bool
    exception: ExceptionKind
    phi_factors: Factorization
    fast: FastDecision
    large_multiplier: int = 1

    @property
    def table_agrees(self) -> bool:
        """Whether the exception table predicted the M = 1 verdict fast.has_large."""
        return _table_agrees(self.exception, self.fast.has_large)


def _table_agrees(exception: ExceptionKind, has_large: bool) -> bool:
    # the one definition of agreement, for reports and for scan rows
    return exception.is_exception != has_large


def _order_equals(q: int, a: int, b: int, n: int) -> bool:
    """Whether the order of a * b^(-1) mod q is exactly n, by powmod."""
    x = a * pow(b, q - 2, q) % q
    if pow(x, n, q) != 1:
        return False
    for r, _ in _index_records[n][4]:
        if pow(x, n // r, q) == 1:
            return False
    return True


def _phi_divisors(n: int) -> Iterator[int]:
    """P(lcm(2, n)) and then 1 + k * lcm(2, n) without end: ascending, and
    holding every prime the cyclotomic value at index n can have.  For
    n >= 2 that is P(n) and the order-n progression; at n = 1 it is 2 and
    the odd numbers.  Its composites never divide in _trial_divide."""
    step = math.lcm(2, n)
    first = largest_prime_divisor(step)
    return itertools.chain((first,), itertools.count(1 + step, step))


def _has_m_large(fast: FastDecision, n: int, multiplier: int) -> bool:
    """Whether a prime squared in a**n - b**n or beyond multiplier * n + 1
    exists, from the fast decision's residual alone.

    Every prime of the residual has order n, so _phi_divisors(n) holds
    it; its first term P(n) does not divide.  Trial division by those up
    to multiplier * n + 1 finds the small primes; a large one exists
    exactly when one of those goes in twice or what is left exceeds the
    bound.  At multiplier 1 this is fast.has_large.

    The test stays exact, so its cost grows with the multiplier: it tries
    1 + k * lcm(2, n) up to min(multiplier * n + 1, sqrt(residual)), also
    when the factoring is complete, since analyze checks the factored
    list against it.
    """
    bound = multiplier * n + 1
    small = itertools.takewhile(bound.__ge__, _phi_divisors(n))
    found, rem = _trial_divide(fast.residual, small)
    # what is left is 1, a prime, or a product of primes beyond the bound
    return rem > bound or any(e > 1 for e in found.values())


def classify_prime_divisor(p: int, t: Triple) -> PrimeDivisorClass:
    """Which of the three divisor cases p falls into for this triple.

    p must actually divide the cyclotomic value (checked modularly).  The
    largest-prime case additionally verifies its multiplicity-one claim
    through the closed-form valuation.
    """
    if not is_prime(p):
        raise ValueError("p must be prime")
    if _eval_homogeneous(t.n, t.a, t.b) % p:
        raise ValueError("p does not divide the cyclotomic value")
    return _classify_prime_divisor(p, t)


def _classify_prime_divisor(p: int, t: Triple) -> PrimeDivisorClass:
    # classify_prime_divisor for a prime p known to divide the value, as
    # the primes of a report's validated Factorization do
    a, b, n = t
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
    a, b, n = t
    if n < 2:
        raise ValueError("the decision needs n >= 2")
    record = _index_records[n]
    p = record[3]
    value = _eval_homogeneous(n, a, b, record)
    removed_exp = 0
    residual = value
    while residual % p == 0:
        residual //= p
        removed_exp += 1
    return tuple.__new__(
        FastDecision,
        (residual > n + 1, value, p if removed_exp else None, removed_exp, residual, n + 1),
    )


def sufficiency_check(t: Triple) -> bool:
    """Strict inequality (n+1) * P(n) < C that forces a large Zsigmondy
    prime to exist.  One-directional: failure decides nothing."""
    if t.n < 3:
        raise ValueError("the sufficiency bound needs n >= 3")
    value = _eval_homogeneous(t.n, t.a, t.b)
    return (t.n + 1) * largest_prime_divisor(t.n) < value


def classify_exception(t: Triple) -> ExceptionKind:
    """Pure table lookup: the kind of the first EXCEPTION_TABLE row that
    holds the triple, NONE when no row does.

    Entirely syntactic (the only arithmetic is the odd part of a + b at
    n = 2), so comparing it against computed existence is a genuine
    cross-check of the table, not a circular one.
    """
    a, b, n = t
    if n not in _TABLE_INDICES:
        if n < 2:
            raise ValueError("the exception table starts at n = 2")
        return _KIND_NONE
    member = (a + b) >> vp(a + b, 2) if n == 2 else (a, b)
    if (n, member) in _TABLE_MEMBERS:
        for m, members, kind in EXCEPTION_TABLE:
            if m == n and member in members:
                return kind
    return _KIND_NONE


def analyze(
    t: Triple, effort: Effort | None = None, multiplier: int = 1
) -> ZsigReport:
    """Full per-triple report: decide first, then factor to list primes.

    The verdicts come from the factorization-free decision, exact whether
    or not the budget lets the value split: the report keeps it as fast,
    and has_large is _has_m_large at the report's multiplier.  Factoring
    the same cyclotomic value over _phi_divisors(n) adds the prime lists;
    when a and b are both p-th powers, the value is factored as its
    cyclotomic._power_pieces instead, each over its own _phi_divisors,
    and a piece Phi_m(s, t) above the trial limit squared that meets
    Schinzel's condition (1962) as its two Aurifeuillian factors L and
    M = Phi_m(s, t) // L, L its gcd with one side of Brent's split
    (cyclotomic._aurifeuillian_pieces; Brent 1993), each over
    _phi_divisors(m).  All pieces share one rho
    budget, and the order-n filter runs on (a, b, n).
    zsig_primes holds the primes of order exactly n with their exponents.
    For an order-n prime the exponent in a**n - b**n equals its exponent
    in the cyclotomic value, because no other divisor level can contain
    it; the report records that shared exponent.  large_zsig_primes holds
    those squared in a**n - b**n or beyond multiplier * n + 1.  The lists
    are partial when phi_factors.complete is False; when complete, they
    are asserted to multiply to the residual and to agree with has_large.
    The table's kind is judged against fast.has_large, the M = 1 verdict
    it speaks of; a disagreement is data, not an error: the scanner
    collects such triples as mismatches.
    """
    if multiplier < 1:
        raise ValueError("multiplier must be a positive integer")
    a, b, n = t.a, t.b, t.n
    fast = has_large_zsigmondy_fast(t)
    exception = classify_exception(t)
    split = _power_pieces(n, a, b)
    values = [fast.phi_value] if len(split) == 1 else [_eval_homogeneous(*p) for p in split]
    # trial division alone completes a value up to limit**2, so only a
    # larger one can save rho steps by splitting
    limit = _trial_limit(effort)
    pieces = [
        (part, _phi_divisors(m))
        for v, (m, s, u) in zip(values, split)
        for part in (_aurifeuillian_pieces(m, s, u, v) if v > limit * limit else [v])
    ]
    fac = _factor(fast.phi_value, effort, pieces)
    zsig = tuple((q, e) for q, e in fac.factors if _order_equals(q, a, b, n))
    large = tuple(q for q, e in zsig if e >= 2 or q > multiplier * n + 1)
    has_large = _has_m_large(fast, n, multiplier)
    if fac.complete:
        if math.prod(q**e for q, e in zsig) != fast.residual:
            raise AssertionError(f"order-{n} primes do not multiply to {t}'s residual")
        if bool(large) != has_large:
            raise AssertionError(
                f"factored and factorization-free decisions disagree on {t}"
            )
        for q, _ in zsig:
            if q % n != 1:
                raise AssertionError(f"order-{n} prime {q} violates its invariants")
    return ZsigReport(
        triple=t,
        zsig_primes=zsig,
        large_zsig_primes=large,
        has_large=has_large,
        exception=exception,
        phi_factors=fac,
        fast=fast,
        large_multiplier=multiplier,
    )

"""Cyclotomic polynomials with exact integer coefficients, and their
two-variable homogeneous values.

The homogeneous value of index n at (a, b) is b**phi(n) times the
one-variable polynomial evaluated at a/b, always an integer.  Three
independent evaluators are provided so they can check each other, each
through its own identity:

- eval_homogeneous: the divisor product
  Phi_n(a, b) = prod over d | rad(n) of (a**(n/d) - b**(n/d))**mu(d) at
  odd n, and over d | rad(m) of (a**(n/2d) + b**(n/2d))**mu(d), half the
  terms, at even n = 2**k * m, m odd, since Phi_2m(x) = Phi_m(-x) for odd
  m > 1 and Phi_2(x) = x + 1; the exponents e are split by the sign of
  mu(d) into plus and minus, and read from arith's per-index record, so
  Phi_n = prod over plus of (x**e + c) / prod over minus of (x**e + c),
  with c = -1 at odd n and c = +1 at even n, in x or at x = a/b;
  callers that have validated once use the unchecked _eval_homogeneous;
  cyclotomic_coeffs takes the same product over the same record in x;
- eval_mobius: the same product taken from the definition, walking every
  divisor of n and its Moebius value on each call, with no cache;
- eval_recursive: index reduction, Phi_{n}(a, b) = Phi_{rad n}(a**s, b**s)
  with s = n / rad(n), and Phi_{mp}(a, b) = Phi_m(a**p, b**p) / Phi_m(a, b)
  for a prime p not dividing m.

Horner evaluation of the coefficient vector, in the tests, is not
independent of eval_homogeneous, since both read one record through one
identity.

For factoring, _power_pieces splits a value at a perfect-power pair and
_aurifeuillian_pieces splits one into its Aurifeuillian factors L * M:
at n = n' * m, L is the gcd of the value with one side of Brent's split
of Phi_{n'}(a**m, b**m), which the value divides, and M = value // L.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .arith import _index_records, _iroot, _primes_up_to, _Validated
from .arith import divisors, euler_phi, mobius, vp


class Triple(
    _Validated, NamedTuple("_TripleFields", [("a", int), ("b", int), ("n", int)])
):
    """A validated input (a, b, n): coprime, ordered, positive.  A tuple
    record; the constructor, _make, _replace, copy and unpickling all
    validate, and the public evaluators validate by constructing one."""

    __slots__ = ()

    def __new__(cls, a: int, b: int, n: int) -> Triple:
        if b < 1:
            raise ValueError("b must be at least 1")
        if a <= b:
            raise ValueError("a must exceed b")
        if math.gcd(a, b) != 1:
            raise ValueError("a and b must be coprime")
        if n < 1:
            raise ValueError("n must be at least 1")
        return tuple.__new__(cls, (a, b, n))


class IntPoly(_Validated, NamedTuple("_IntPolyFields", [("coeffs", tuple[int, ...])])):
    """Dense integer polynomial; coeffs[k] multiplies x**k, leading last."""

    __slots__ = ()

    def __new__(cls, coeffs: tuple[int, ...]) -> IntPoly:
        if not coeffs:
            raise ValueError("empty coefficient vector")
        if len(coeffs) > 1 and coeffs[-1] == 0:
            raise ValueError("leading coefficient must be nonzero")
        return tuple.__new__(cls, (coeffs,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def _mul_binomial(poly: list[int], k: int, c: int) -> list[int]:
    # poly * (x**k + c)
    out = [0] * (len(poly) + k)
    for i, coef in enumerate(poly):
        out[i + k] += coef
        out[i] += c * coef
    return out


def _div_binomial(poly: list[int], k: int, c: int) -> list[int]:
    # poly // (x**k + c), exact; the low-order remainder terms are checked
    deg = len(poly) - 1
    q = [0] * (deg - k + 1)
    for i in range(deg - k, -1, -1):
        above = q[i + k] if i + k < len(q) else 0
        q[i] = poly[i + k] - c * above
    for j in range(min(k, len(poly))):
        expected = c * q[j] if j < len(q) else 0
        if poly[j] != expected:
            raise AssertionError("binomial division left a remainder")
    return q


def cyclotomic_coeffs(n: int) -> IntPoly:
    """Exact coefficient vector of the n-th cyclotomic polynomial, the
    divisor product over n's record.  Every exponent is a multiple of
    their gcd s, so the product is taken in y = x**s and then spread out
    by s, which keeps large non-squarefree n cheap.  All arithmetic is
    exact; every binomial division checks its remainder.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    odd, plus, minus, _, _ = _index_records[n]
    c = -1 if odd else 1
    s = math.gcd(*plus, *minus)
    work = [1]
    for e in plus:
        work = _mul_binomial(work, e // s, c)
    for e in minus:
        work = _div_binomial(work, e // s, c)
    out = [0] * ((len(work) - 1) * s + 1)
    out[::s] = work
    return IntPoly(tuple(out))


def eval_homogeneous(n: int, a: int, b: int) -> int:
    """Homogeneous cyclotomic value at (a, b) as the divisor product over
    the Moebius exponent split in n's record, with one exact division at the
    end: of a**e - b**e, e = n/d, d | rad(n) at odd n, and of a**e + b**e,
    e = n/2d, d | rad(m), half as many terms, at even n = 2**k * m, m odd."""
    Triple(a, b, n)
    return _eval_homogeneous(n, a, b)


def _eval_homogeneous(n: int, a: int, b: int, record: tuple | None = None) -> int:
    # eval_homogeneous without validation, for arguments already checked;
    # a caller that holds n's record passes it
    odd, plus, minus, _, _ = record or _index_records[n]
    if odd:
        # every exponent of an odd index is odd: a**e - b**e = a**e + (-b)**e
        b = -b
    num = den = 1
    for e in plus:
        num *= a**e + b**e
    for e in minus:
        den *= a**e + b**e
    q, r = divmod(num, den)
    if r != 0:
        raise ArithmeticError("divisor product did not divide exactly")
    return q


def _power_pieces(n: int, a: int, b: int) -> list[tuple[int, int, int]]:
    """(m, s, t) triples whose values Phi_m(s, t) multiply to Phi_n(a, b),
    by Phi_n(s**p, t**p) = Phi_np(s, t) * Phi_n(s, t) for a prime p not
    dividing n, and Phi_np(s, t) for p | n, applied while a and b are
    both p-th powers; [(n, a, b)] when they share no prime power."""
    for p in _primes_up_to(a.bit_length()):
        t, exact = _iroot(b, p)
        if exact:
            s, exact = _iroot(a, p)
            if exact:
                s, t = int(s), int(t)
                rest = [] if n % p == 0 else _power_pieces(n, s, t)
                return _power_pieces(n * p, s, t) + rest
    return [(n, a, b)]


def _aurifeuillian_pieces(n: int, a: int, b: int, value: int) -> list[int]:
    """Phi_n(a, b) = value as its Aurifeuillian factors L and M, less a
    factor equal to 1, when Schinzel's condition holds (1962): with k the
    squarefree part of a*b, k = 1 (mod 4) and n/k odd, or k = 2, 3 (mod 4)
    and n/2k odd; [value] otherwise.  With n' = k or 2k and n = n' * m,
    L is the gcd of the value with one side of Brent's split of
    Phi_{n'}(a**m, b**m), which the value divides, and M = value // L,
    so L * M = value by construction.  The split comes from Brent's
    identities in the aurifeuillian module, imported only here, so that a
    command that meets no such value does not load it."""
    x = a * b
    # k holds primes of n only; the square test below rejects an a*b
    # with another prime to an odd power
    k = math.prod(p for p, _ in _index_records[n][4] if vp(x, p) % 2)
    base = k if k % 4 == 1 else 2 * k
    if k == 1 or n % base or n // base % 2 == 0:
        return [value]
    w = math.isqrt(x // k)
    if k * w * w != x:
        return [value]
    from .aurifeuillian import factors

    low, high = factors(k, base, n // base, a, b, w, value)
    return [v for v in (low, high) if v != 1]


def eval_mobius(n: int, a: int, b: int) -> int:
    """Same value via the divisor product of (a**d - b**d) terms raised to
    the Moebius sign, kept as one numerator and one denominator with a
    single exact division at the end."""
    Triple(a, b, n)
    num = 1
    den = 1
    for d in divisors(n):
        mu = mobius(d)
        if mu == 0:
            continue
        e = n // d
        term = a**e - b**e
        if mu == 1:
            num *= term
        else:
            den *= term
    q, r = divmod(num, den)
    if r != 0:
        raise ArithmeticError("divisor product did not divide exactly")
    return q


def eval_recursive(n: int, a: int, b: int) -> int:
    """Same value by index reduction: replace (a, b) by prime-power powers
    until the index is squarefree, then split off one prime at a time via
    the quotient of values at (a**p, b**p) and (a, b)."""
    Triple(a, b, n)
    return _eval_reduced(n, a, b)


def _eval_reduced(n: int, a: int, b: int) -> int:
    if n == 1:
        return a - b
    factors = _index_records[n][4]
    rad = math.prod(p for p, _ in factors)
    if rad != n:
        stretch = n // rad
        return _eval_reduced(rad, a**stretch, b**stretch)
    p = factors[-1][0]
    m = n // p
    q, r = divmod(_eval_reduced(m, a**p, b**p), _eval_reduced(m, a, b))
    if r != 0:
        raise ArithmeticError("index reduction quotient was not exact")
    return q


def product_identity_check(n: int, a: int, b: int) -> bool:
    """True iff the divisor-indexed values multiply to a**n - b**n."""
    Triple(a, b, n)
    prod = 1
    for d in divisors(n):
        prod *= _eval_homogeneous(d, a, b)
    return prod == a**n - b**n


def bounds_check(n: int, a: int, b: int) -> bool:
    """Strict two-sided bound: (a-b)**phi < value < (a+b)**phi, n >= 3."""
    Triple(a, b, n)
    if n < 3:
        raise ValueError("the strict bounds need n >= 3")
    value = _eval_homogeneous(n, a, b)
    deg = euler_phi(n)
    return (a - b) ** deg < value < (a + b) ** deg

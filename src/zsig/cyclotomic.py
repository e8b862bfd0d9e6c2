"""Cyclotomic polynomials with exact integer coefficients, and their
two-variable homogeneous values.

The homogeneous value of index n at (a, b) is b**phi(n) times the
one-variable polynomial evaluated at a/b, always an integer.
eval_homogeneous takes it as the divisor product
Phi_n(a, b) = prod over d | rad(n) of (a**(n/d) - b**(n/d))**mu(d) at odd
n, and over d | rad(m) of (a**(n/2d) + b**(n/2d))**mu(d), half the terms,
at even n = 2**k * m, m odd, since Phi_2m(x) = Phi_m(-x) for odd m > 1
and Phi_2(x) = x + 1.  The exponents e are split by the sign of mu(d)
into plus and minus, and read from arith's per-index record, so
Phi_n = prod over plus of (x**e + c) / prod over minus of (x**e + c),
with c = -1 at odd n and c = +1 at even n, in x or at x = a/b; callers
that have validated once use the unchecked _eval_homogeneous, and
cyclotomic_coeffs takes the same product over the same record in x.  The
references it is checked against share none of its arithmetic and live
in tests/oracles.py.

For factoring, _power_pieces splits a value at a perfect-power pair and
_aurifeuillian_pieces splits one into its Aurifeuillian factors L * M:
at n = n' * m, L is the gcd of the value with one side of Brent's split
of Phi_{n'}(a**m, b**m), which the value divides, and M = value // L.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .arith import _index_records, _iroot, _primes_up_to, _Validated, vp


class Triple(
    _Validated, NamedTuple("_TripleFields", [("a", int), ("b", int), ("n", int)])
):
    """A validated input (a, b, n): coprime, ordered, positive.  A tuple
    record; the constructor, _make, _replace, copy and unpickling all
    validate, and eval_homogeneous validates by constructing one."""

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


def cyclotomic_coeffs(n: int) -> tuple[int, ...]:
    """Exact coefficients of the n-th cyclotomic polynomial as a tuple,
    that of x**k at index k, so its degree phi(n) is the length less one:
    the divisor product over n's record.  Every exponent is a multiple of
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
    return tuple(out)


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


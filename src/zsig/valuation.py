"""Closed-form p-adic valuation of a homogeneous cyclotomic value.

The closed form is driven entirely by the multiplicative order of
a * b^(-1) modulo p.  It deliberately never evaluates the cyclotomic
value itself, so tests against direct factorization are a genuine
cross-check.
"""

from __future__ import annotations

from .arith import factorize, is_prime, vp
from .cyclotomic import Triple


def multiplicative_order(p: int, a: int, b: int) -> int:
    """Least k with p dividing a**k - b**k, for p coprime to a and b.

    Computed as the order of a * b^(p-2) mod p: factor p - 1 completely,
    then shrink the exponent one prime at a time.
    """
    if not is_prime(p):
        raise ValueError("p must be prime")
    if a % p == 0 or b % p == 0:
        raise ValueError("p divides a*b, order undefined")
    x = a * pow(b, p - 2, p) % p
    k = p - 1
    for q, _ in factorize(p - 1).factors:
        while k % q == 0 and pow(x, k // q, p) == 1:
            k //= q
    return k


def vp_cyclotomic(p: int, a: int, b: int, n: int) -> int:
    """Valuation of the homogeneous cyclotomic value at (a, b), index n,
    from the closed form; the value itself is never computed.

    With k the order of a * b^(-1) mod p: the valuation is v_p(a**k - b**k)
    when n == k, exactly 1 when n is k times a positive power of p, and 0
    otherwise.  p = 2 with odd a, b runs the same formula (k is 1 there)
    except at the one exceptional pair of lifting the exponent, n = 2,
    where it is v_2(a + b).  When exactly one of a, b is even every value
    is odd, so the p = 2 case extends totally with 0 (a documented
    extension of the odd-odd closed form).
    """
    Triple(a, b, n)
    if not is_prime(p):
        raise ValueError("p must be prime")
    if p == 2 and a * b % 2 == 0:
        return 0
    if a % p == 0 or b % p == 0:
        raise ValueError("odd p must not divide a*b")
    if p == 2 and n == 2:
        return vp(a + b, 2)
    k = multiplicative_order(p, a, b)
    if n == k:
        return vp(a**k - b**k, p)
    if n % k == 0:
        cof = n // k
        while cof % p == 0:
            cof //= p
        if cof == 1:
            return 1
    return 0

"""Aurifeuillian factors of homogeneous cyclotomic values, by Brent's
identities (On computing factors of cyclotomic polynomials, Math. Comp.
61, 1993).

For squarefree k > 1, with n' = k at k = 1 (mod 4) and n' = 2k otherwise,
Phi_{n'}(x) = C(x)**2 - k*x*D(x)**2 for integer polynomials C and D, so
at a*b = k*w**2 the value Phi_{n'}(a, b) splits as (C - k*w*D)(C + k*w*D).
cyclotomic._aurifeuillian_pieces decides by Schinzel's condition (1962)
whether a value splits, and imports this module only then.
"""

from __future__ import annotations

import math

from .arith import _index_factors, divisors, euler_phi, mobius


def _jacobi(k: int, j: int) -> int:
    # the Jacobi symbol (k | j) for odd j > 0
    k %= j
    sign = 1
    while k:
        while k % 2 == 0:
            k //= 2
            if j % 8 in (3, 5):
                sign = -sign
        k, j = j, k
        if k % 4 == 3 and j % 4 == 3:
            sign = -sign
        k %= j
    return sign if j == 1 else 0


def _ramanujan_sum(m: int, j: int) -> int:
    # c_m(j), the sum of the j-th powers of the primitive m-th roots of unity
    g = math.gcd(m, j)
    return mobius(m // g) * euler_phi(m) // euler_phi(m // g)


def _exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r != 0:
        raise ArithmeticError("Aurifeuillian division was not exact")
    return q


def coefficients(k: int, base: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(gamma, delta), the coefficients of C = sum gamma_i x**(d-i) and
    D = sum delta_i x**(d-1-i), d = phi(n')/2, for squarefree k > 1 and
    its base index n' = base.  Newton's identities over the power sums
    q_j of the roots: (k | j) at odd j, and at even j the Ramanujan sum
    c_k(j) when n' = k, or c_4k(j)/2 when n' = 2k.  Every division is
    exact and checked."""
    d = euler_phi(base) // 2
    q = [
        _jacobi(k, j) if j % 2
        else _ramanujan_sum(k, j) if base == k
        else _ramanujan_sum(4 * k, j) // 2
        for j in range(2 * d + 1)
    ]
    gamma, delta = [1], [1]
    for m in range(1, d + 1):
        total = sum(k * q[2 * (m - l) - 1] * delta[l] for l in range(m))
        total -= sum(q[2 * (m - l)] * gamma[l] for l in range(m))
        gamma.append(_exact_div(total, 2 * m))
        if m < d:
            total = sum(q[2 * (m - l) + 1] * gamma[l] for l in range(m + 1))
            total -= sum(q[2 * (m - l)] * delta[l] for l in range(m))
            delta.append(_exact_div(total, 2 * m + 1))
    return tuple(gamma), tuple(delta)


def _binary_form(coeffs: tuple[int, ...], x: int, y: int) -> int:
    # sum of coeffs[i] * x**(deg - i) * y**i, by Horner's rule
    acc, power = 0, 1
    for c in coeffs:
        acc = acc * x + c * power
        power *= y
    return acc


def factors(k: int, base: int, m: int, a: int, b: int, w: int) -> tuple[int, int]:
    """(L, M) with L * M = Phi_n(a, b), for a*b = k*w**2 with k squarefree,
    n' = base its base index and n = n' * m, m odd.  With P the primes of
    m not dividing n' and s = m/P, Phi_n(a, b) is Phi_{n'P}(a**s, b**s),
    the product of Phi_{n'}(a**se, b**se) to the power mu(P/e) over
    e | P.  Each of those is C**2 - k*W**2*D**2 at (a*b)**se = k*W**2, so
    it splits as (C - k*W*D) * (C + k*W*D), the two swapped where
    (k | e) = -1, and L and M are the products of their sides; every
    division is exact and checked."""
    p_part = math.prod(p for p, _ in _index_factors(m) if base % p)
    s = m // p_part
    gamma, delta = coefficients(k, base)
    num, den = [1, 1], [1, 1]
    for e in divisors(p_part):
        se = s * e
        c = _binary_form(gamma, a**se, b**se)
        # the sign (k | e) swaps the two factors
        kwd = _jacobi(k, e) * k ** ((se + 1) // 2) * w**se * _binary_form(delta, a**se, b**se)
        acc = num if mobius(p_part // e) == 1 else den
        acc[0] *= c - kwd
        acc[1] *= c + kwd
    return _exact_div(num[0], den[0]), _exact_div(num[1], den[1])

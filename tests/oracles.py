"""Independent reference computations for the test suite.

Everything here is written from definitions, on purpose: polynomial long
division over the integers, direct order search, and factor-the-difference
brute force.  Slow and obviously correct is the point; none of it shares
code with the package under test.
"""

from __future__ import annotations

import random
from functools import lru_cache

_SMALL = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41]

# the least strong pseudoprime to all of _SMALL (OEIS A014233), so the
# Miller-Rabin test over them is exact exactly below it
EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def is_prime_oracle(n: int) -> bool:
    """Primality by Miller-Rabin over the 13 bases of _SMALL: exact for
    n < EXACT_BELOW, and ValueError at or above it."""
    if n >= EXACT_BELOW:
        raise ValueError(f"{n} is beyond the oracle's exact range")
    if n < 2:
        return False
    for p in _SMALL:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_oracle(n: int) -> int:
    # Floyd-style cycle detection, distinct from the package's Brent walk.
    if n % 2 == 0:
        return 2
    rng = random.Random(n)
    while True:
        c = rng.randrange(1, n - 1)
        x = y = rng.randrange(2, n)
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = _gcd(abs(x - y), n)
        if d != n:
            return d


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def perfect_power_pairs(a_max: int) -> list[tuple[int, int]]:
    """Coprime a > b with a <= a_max where a and b are both perfect powers
    (1 counts), whether or not they share an exponent."""
    powers = sorted({r**k for r in range(1, a_max + 1) for k in range(2, a_max.bit_length() + 1)
                     if r**k <= a_max})
    return [(a, b) for a in powers for b in powers if b < a and _gcd(a, b) == 1]


def factor_oracle(x: int) -> dict[int, int]:
    """Full factorization of 1 <= x < EXACT_BELOW as {prime: exponent};
    exact only in that range, so ValueError at or above it."""
    assert x >= 1
    if x >= EXACT_BELOW:
        raise ValueError(f"{x} is beyond the oracle's exact range")
    out: dict[int, int] = {}
    for p in range(2, 65536):
        if p * p > x:
            break
        while x % p == 0:
            out[p] = out.get(p, 0) + 1
            x //= p
    stack = [x] if x > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime_oracle(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _rho_oracle(m)
        stack.append(d)
        stack.append(m // d)
    return out


def vp_oracle(x: int, p: int) -> int:
    e = 0
    while x % p == 0:
        x //= p
        e += 1
    return e


@lru_cache(maxsize=None)
def naive_cyclotomic(n: int) -> tuple[int, ...]:
    """Coefficients (ascending) via the divisor-chain quotient.

    Start from x^n - 1 and divide out the polynomial for every proper
    divisor, using exact long division that asserts a zero remainder.
    """
    assert n >= 1
    if n == 1:
        return (-1, 1)
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1
    for d in range(1, n):
        if n % d == 0:
            num = _polydiv_exact(num, list(naive_cyclotomic(d)))
    return tuple(num)


def _polydiv_exact(num: list[int], den: list[int]) -> list[int]:
    num = list(num)
    dd = len(den) - 1
    assert den[dd] == 1
    q = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        coef = num[i]
        if coef == 0:
            continue
        q[i - dd] = coef
        for j, c in enumerate(den):
            num[i - dd + j] -= coef * c
    assert all(c == 0 for c in num), "division left a remainder"
    return q


def hom_value(n: int, a: int, b: int) -> int:
    """b^deg * Phi_n(a/b), computed from the naive coefficients."""
    coeffs = naive_cyclotomic(n)
    deg = len(coeffs) - 1
    return sum(c * a**i * b ** (deg - i) for i, c in enumerate(coeffs))


def order_brute(p: int, a: int, b: int) -> int:
    """Least k with a^k == b^k mod p, by direct scan."""
    assert p >= 2 and a % p and b % p
    for k in range(1, p):
        if pow(a, k, p) == pow(b, k, p):
            return k
    raise AssertionError("order must divide p - 1")


def brute_zsigmondy(a: int, b: int, n: int):
    """Definition-level prime lists for the pair a > b at exponent n.

    Factors a^n - b^n outright, then keeps the primes that divide no
    earlier difference a^m - b^m.  Returns (zsig, large) where zsig is a
    sorted list of (prime, exponent in a^n - b^n) and large is the sorted
    sublist of primes with exponent >= 2 or prime > n + 1.
    """
    assert a > b >= 1 and _gcd(a, b) == 1 and n >= 1
    fac = factor_oracle(a**n - b**n)
    zsig = []
    for p in sorted(fac):
        if any((a**m - b**m) % p == 0 for m in range(1, n)):
            continue
        zsig.append((p, fac[p]))
    large = [p for p, e in zsig if e >= 2 or p > n + 1]
    return zsig, large


def brent_rho_reference(n: int, budget: int | None) -> tuple[int | None, int]:
    """The package's Brent rho as it was before its phase-1 budget check
    moved ahead of the walk: it runs the r map steps first and only then
    sees the budget is spent.  Kept to pin the (factor, steps) pairs."""
    used = 0
    for c in range(1, 64):
        y = 2
        m = 512
        g = q = r = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            used += r
            if budget is not None and used > budget:
                return None, used
            k = 0
            while k < r and g == 1:
                ys = y
                steps = min(m, r - k)
                for _ in range(steps):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                used += steps
                g = _gcd(q, n)
                k += m
                if budget is not None and used > budget:
                    return None, used
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                used += 1
                g = _gcd(abs(x - ys), n)
                if budget is not None and used > budget:
                    return None, used
        if g != n:
            return g, used
    return None, used

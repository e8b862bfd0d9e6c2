"""Exact integer primitives: primality testing, factorization, and the
elementary number-theoretic functions everything else is built on.

All values are unbounded Python integers and every result is exact.
gmpy2 accelerates the modular arithmetic inside the Miller-Rabin rounds
and the Pollard rho loop when available; a pure-Python fallback keeps the
module usable without it.
"""

from __future__ import annotations

import bisect
import itertools
import math
from typing import NamedTuple

try:
    from gmpy2 import mpz
    from gmpy2 import gcd as _gmp_gcd
    from gmpy2 import iroot as _iroot
    from gmpy2 import powmod as _powmod
except ImportError:  # pragma: no cover - exercised only without gmpy2
    mpz = int
    _gmp_gcd = math.gcd
    _powmod = pow

    def _iroot(x, k):
        if k == 2:
            r = math.isqrt(x)
            return r, r * r == x
        lo, hi = 0, 1 << (x.bit_length() // k + 2)
        while lo < hi - 1:
            mid = (lo + hi) // 2
            if mid**k <= x:
                lo = mid
            else:
                hi = mid
        return lo, lo**k == x


def gcd(x: int, y: int) -> int:
    """Greatest common divisor of two nonnegative integers; gcd(0,0) is 0."""
    if x < 0 or y < 0:
        raise ValueError("gcd expects nonnegative integers")
    return math.gcd(x, y)


# Bases for which Miller-Rabin is a proven deterministic primality test
# below the limit (Sorenson & Webster, first 13 primes).
_MR_BASES_13 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_DETERMINISTIC_LIMIT = 3_317_044_064_679_887_385_961_981

# Above the limit the test is probabilistic with this fixed witness
# schedule: the first forty primes.  A composite passing all forty rounds
# has never been exhibited; still, results above the limit are "probable
# prime" in the technical sense and documented as such.
_MR_BASES_40 = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137,
    139, 149, 151, 157, 163, 167, 173,
)

_SMALL_PRIME_SET = frozenset(_MR_BASES_40)


def is_prime(x: int) -> bool:
    """Deterministic Miller-Rabin below MR_DETERMINISTIC_LIMIT, small
    inputs included: the thirteen bases are proven for every x below it.
    Above it, the fixed forty-base witness schedule (see module comments).
    """
    if x < 2:
        return False
    if x in _SMALL_PRIME_SET:
        return True
    if x % 2 == 0 or x % 3 == 0 or x % 5 == 0:
        return False
    bases = _MR_BASES_13 if x < MR_DETERMINISTIC_LIMIT else _MR_BASES_40
    n = mpz(x)
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        y = _powmod(a, d, n)
        if y == 1 or y == n - 1:
            continue
        for _ in range(s - 1):
            y = y * y % n
            if y == n - 1:
                break
        else:
            return False
    return True


_sieve_flags = bytearray()
_sieve_primes: list[int] = []

# trial division stops here, and so does the sieve; beyond it rho does
# the splitting
_SIEVE_CAP = 1 << 24


def _primes_up_to(bound: int) -> list[int]:
    # grow-once cached sieve shared by trial division callers
    global _sieve_flags, _sieve_primes
    bound = min(bound, _SIEVE_CAP)
    if len(_sieve_flags) <= bound:
        size = min(max(bound + 1, 2 * len(_sieve_flags)), _SIEVE_CAP + 1)
        flags = bytearray([1]) * size
        flags[0] = flags[1] = 0
        for i in range(2, math.isqrt(size - 1) + 1):
            if flags[i]:
                flags[i * i :: i] = bytearray(len(range(i * i, size, i)))
        _sieve_flags = flags
        _sieve_primes = list(itertools.compress(range(size), flags))
    if _sieve_primes and _sieve_primes[-1] <= bound:
        return _sieve_primes
    cut = bisect.bisect_right(_sieve_primes, bound)
    return _sieve_primes[:cut]


class _Validated:
    """Mixin for tuple records whose __new__ validates: _make, and so
    _replace, goes through the constructor instead of tuple.__new__."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class Effort(
    _Validated,
    NamedTuple(
        "_EffortFields",
        [("trial_division_bound", int), ("rho_step_budget", int | None)],
    )
):
    """Budget for factorize: trial division first, then Pollard rho.

    Trial division always reaches 7 and stops at 2**24 even when
    trial_division_bound is larger; _factor makes that cut, whatever its
    divisors, and rho splits what is left.  Trial division also stops at
    the square root of what is left, so the sieve is built no further
    than sqrt(x).  A cyclotomic value is divided only by the integers
    that can hold its primes (zsigmondy._phi_divisors), so no sieve is
    built for it.  rho_step_budget counts iterations of the rho map
    across the whole recursive factorization of one value, shared by the
    algebraic pieces it may arrive as (zsigmondy.analyze splits the
    value at a perfect-power pair, and each piece above the trial limit
    squared into its Aurifeuillian factors where Schinzel's condition
    holds: Schinzel 1962, Brent 1993); None means unbounded.  A tuple
    record; the constructor, _make, _replace, copy and unpickling (a
    pool worker's copy too) all validate.
    """

    __slots__ = ()

    def __new__(
        cls, trial_division_bound: int = 1_000_000, rho_step_budget: int | None = None
    ) -> Effort:
        if trial_division_bound < 0:
            raise ValueError("trial bound must be nonnegative")
        if rho_step_budget is not None and rho_step_budget < 0:
            raise ValueError("rho budget must be nonnegative")
        return tuple.__new__(cls, (trial_division_bound, rho_step_budget))


class Factorization(
    _Validated,
    NamedTuple(
        "_FactorizationFields",
        [("value", int), ("factors", tuple[tuple[int, int], ...]), ("cofactor", int)],
    )
):
    """Multiset of prime powers with an explicit unfactored remainder.

    factors holds (prime, exponent) pairs with primes strictly increasing.
    cofactor is 1 when the factorization is complete; otherwise it is the
    composite part the budget could not split, so that the invariant
    value == cofactor * product(p**e) always holds.  A tuple record; the
    constructor, _make, _replace, copy and unpickling all run
    __post_init__, which checks that invariant.
    """

    __slots__ = ()

    def __new__(
        cls, value: int, factors: tuple[tuple[int, int], ...], cofactor: int = 1
    ) -> Factorization:
        self = tuple.__new__(cls, (value, factors, cofactor))
        self.__post_init__()
        return self

    def __post_init__(self) -> None:
        if self.value < 1:
            raise ValueError("value must be positive")
        prod = self.cofactor
        last = 1
        for p, e in self.factors:
            if p <= last:
                raise ValueError("primes must be strictly increasing")
            if e < 1:
                raise ValueError("exponents must be positive")
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            last = p
            prod *= p**e
        if prod != self.value:
            raise ValueError("factors and cofactor do not multiply to value")
        if self.cofactor != 1 and is_prime(self.cofactor):
            raise ValueError("a prime cofactor belongs in factors")

    @property
    def complete(self) -> bool:
        return self.cofactor == 1


def _brent_rho(n: int, budget: int | None) -> tuple[int | None, int]:
    """Brent-cycle Pollard rho with a deterministic parameter schedule.

    Returns (factor, steps_used); factor is None when the budget ran out.
    n must be odd, composite, and not a perfect power of a single prime
    found elsewhere; correctness does not depend on that, progress does.
    Both phases take four map steps per loop pass, phase 2 reducing four
    differences x - y at once; budgets are checked between batches only,
    so (factor, steps_used) is the one-step loop's.
    """
    n = mpz(n)
    used = 0
    for c in range(1, 64):
        y = mpz(2)
        m = 512
        g = q = r = 1
        x = ys = y
        while g == 1:
            x = y
            if budget is not None and used + r > budget:
                return None, used + r
            for _ in range(r >> 2):
                y = (y * y + c) % n
                y = (y * y + c) % n
                y = (y * y + c) % n
                y = (y * y + c) % n
            for _ in range(r & 3):
                y = (y * y + c) % n
            used += r
            k = 0
            while k < r and g == 1:
                ys = y
                steps = min(m, r - k)
                for _ in range(steps >> 2):
                    y1 = (y * y + c) % n
                    y2 = (y1 * y1 + c) % n
                    y3 = (y2 * y2 + c) % n
                    y = (y3 * y3 + c) % n
                    q = q * (x - y1) * (x - y2) * (x - y3) * (x - y) % n
                for _ in range(steps & 3):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                used += steps
                g = _gmp_gcd(q, n)
                k += m
                if budget is not None and used > budget:
                    return None, used
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                used += 1
                g = _gmp_gcd(x - ys, n)
                if budget is not None and used > budget:
                    return None, used
        if g != n:
            return int(g), used
        # cycle degenerated for this c; retry with the next polynomial
    return None, used


def _split_perfect_power(x: int) -> tuple[int, int]:
    """Some k > 1 with x = r**k if one exists; returns (x, 1) otherwise.

    Only prime exponents need checking; the caller recurses on r anyway.
    """
    z = mpz(x)
    for k in _primes_up_to(x.bit_length()):
        r, exact = _iroot(z, k)
        if exact:
            return int(r), k
    return x, 1


def _trial_limit(effort: Effort | None) -> int:
    """How far trial division goes under effort: at least 7, at most
    the cap."""
    bound = (effort or Effort()).trial_division_bound
    return min(max(bound, 7), _SIEVE_CAP)


def factorize(x: int, effort: Effort | None = None) -> Factorization:
    """Factor x by trial division up to the effort bound, then Pollard rho.

    Always terminates: when the rho budget is exhausted the remaining
    composite is reported in the cofactor field and complete is False.
    Incompleteness is data here, not an error.
    """
    if x < 1:
        raise ValueError("factorize expects a positive integer")
    # trial division breaks past sqrt(x) anyway, so sieve no further
    return _factor(x, effort, [(x, _primes_up_to(min(_trial_limit(effort), math.isqrt(x))))])


def _trial_divide(x: int, divisors) -> tuple[dict[int, int], int]:
    """Divide x by each divisor in turn, as often as it goes in; returns
    ({divisor: exponent}, what is left).  Stops once a divisor's square
    exceeds what is left.

    The divisors must ascend and include every prime of x below the last
    one.  A composite among them then never goes in, since its primes
    that divide x were divided out before it, so callers may pass a
    progression that holds all the primes x can have.  What is left at a
    stop is 1 or a prime.
    """
    found: dict[int, int] = {}
    rem = x
    for p in divisors:
        if p * p > rem:
            break
        if rem % p == 0:
            e = 0
            while rem % p == 0:
                e += 1
                rem //= p
            found[p] = e
    return found, rem


def _factor(x: int, effort: Effort | None, pieces) -> Factorization:
    """factorize's body for x given as pieces, (value, divisors) pairs
    whose values multiply to x; factorize passes x as its one piece.
    Each value is _trial_divide'd by its ascending, possibly endless
    divisor source up to the trial limit, then one rho stack splits what
    is left of all of them under one budget.  When each divisor source
    holds every prime of its value up to the limit, a single piece gives
    rho what factorize would give it, so the result is factorize's."""
    limit = _trial_limit(effort)
    found: dict[int, int] = {}
    stack = []
    for value, divisors in pieces:
        part, rem = _trial_divide(value, itertools.takewhile(limit.__ge__, divisors))
        for p, e in part.items():
            found[p] = found.get(p, 0) + e
        if rem > 1:
            stack.append(rem)
    # past sqrt(rem) what is left is 1 or a prime, which this stage
    # records without spending a step
    budget = effort.rho_step_budget if effort else None
    spent = 0
    cofactor = 1
    while stack:
        y = stack.pop()
        if is_prime(y):
            found[y] = found.get(y, 0) + 1
            continue
        root, k = _split_perfect_power(y)
        if k > 1:
            stack.extend([root] * k)
            continue
        g, used = _brent_rho(y, None if budget is None else budget - spent)
        spent += used
        if g is None:
            cofactor *= y
            continue
        stack.append(g)
        stack.append(y // g)
    return Factorization(x, tuple(sorted(found.items())), cofactor)


# indices above this get a record on demand that is not retained
INDEX_RECORD_LIMIT = 4096


class _IndexRecords(dict):
    """n -> (odd, plus, minus, top, factors), everything the library reads
    of a positive index n: its parity, the exponents e of Phi_n's divisor
    product split by the sign of mu(d) (cyclotomic's module docstring
    gives the identity), P(n), its largest prime (None at n = 1), and its
    (prime, exponent) pairs, primes ascending.  At odd n, e = n/d over the
    squarefree d | n; at even n = 2**k * m, m odd, e = n/2d over the
    squarefree d | m.  A plain tuple, since it unpacks faster than a named
    one.

    The one place an index is factored and cached: a missing record is
    built on lookup, and kept for n <= INDEX_RECORD_LIMIT.  factorize
    sieves no further than sqrt(n), which is all trial division needs to
    factor n completely.
    """

    def __missing__(
        self, n: int
    ) -> tuple[bool, tuple[int, ...], tuple[int, ...], int | None, tuple[tuple[int, int], ...]]:
        factors = factorize(n).factors
        odd = n % 2 == 1
        plus, minus = [n if odd else n // 2], []
        for p, _ in factors[not odd:]:
            plus, minus = plus + [e // p for e in minus], minus + [e // p for e in plus]
        record = (odd, tuple(plus), tuple(minus), factors[-1][0] if factors else None, factors)
        if n <= INDEX_RECORD_LIMIT:
            self[n] = record
        return record


_index_records = _IndexRecords()


def vp(x: int, p: int) -> int:
    """p-adic valuation: the largest e with p**e dividing x.  x must be
    nonzero (the valuation of 0 is infinite)."""
    if x == 0:
        raise ValueError("vp(0, p) is infinite")
    if p < 2:
        raise ValueError("p must be at least 2")
    x = abs(x)
    e = 0
    while x % p == 0:
        x //= p
        e += 1
    return e


def euler_phi(n: int) -> int:
    """Euler's totient via the prime factorization of n."""
    if n < 1:
        raise ValueError("euler_phi expects a positive integer")
    result = n
    for p, _ in _index_records[n][4]:
        result -= result // p
    return result


def totient_sieve(limit: int) -> list[int]:
    """phi(0..limit) as a list; phi[0] is 0 by convention."""
    if limit < 0:
        raise ValueError("limit must be nonnegative")
    phi = list(range(limit + 1))
    for i in range(2, limit + 1):
        if phi[i] == i:  # i is prime
            for m in range(i, limit + 1, i):
                phi[m] -= phi[m] // i
    return phi


def mobius(n: int) -> int:
    """Moebius function: 0 on squareful n, else parity of the prime count."""
    if n < 1:
        raise ValueError("mobius expects a positive integer")
    factors = _index_records[n][4]
    if any(e > 1 for _, e in factors):
        return 0
    return -1 if len(factors) % 2 else 1


def largest_prime_divisor(n: int) -> int:
    if n < 2:
        raise ValueError("largest_prime_divisor needs n >= 2")
    return _index_records[n][3]


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    if n < 1:
        raise ValueError("divisors expects a positive integer")
    out = [1]
    for p, e in _index_records[n][4]:
        out = [d * p**i for d in out for i in range(e + 1)]
    return sorted(out)

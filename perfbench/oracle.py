"""Expected outputs for the benchmark workloads, computed from definitions.

Nothing here imports zsig: every expected value is either a published
result or arithmetic this file does itself (cyclotomic values by exact
division of a^n - b^n, multiplicative orders by modular powers, its own
Miller-Rabin).  Each check returns a list of failure messages; an empty
list means the output is correct.
"""

from __future__ import annotations

import csv
import io
import math
import re

# Triples (a, b, n) with n >= 3 that have no large Zsigmondy prime, over
# every coprime a > b >= 1 and 3 <= n <= 60.  The b = 1 members are the
# list in Feit, "On large Zsigmondy primes", Proc. AMS 102 (1988).
NO_LARGE_N_GE_3 = frozenset({
    (2, 1, 4), (2, 1, 6), (2, 1, 10), (2, 1, 12), (2, 1, 18),
    (3, 1, 4), (3, 1, 6), (3, 2, 6), (3, 2, 10), (5, 1, 6), (5, 4, 6),
})

# Rows of the exception table with n >= 3.  (3, 2, 10) and (5, 1, 6) have
# no large prime but fit no row: the two known table counterexamples.
TABLE_N_GE_3 = NO_LARGE_N_GE_3 - {(3, 2, 10), (5, 1, 6)}
TABLE_COUNTEREXAMPLES = frozenset({(3, 2, 10), (5, 1, 6)})

# Triples whose value commit 93297c2 could not fully factor within the
# rho budgets the workloads use: scan's default budget and analyze's
# --rho-budget 1000000.  The rho map there is deterministic, so these sets
# do not vary between runs.  A pass may leave no more of its triples
# incomplete than it has in these sets, so that no change can buy speed
# by cutting a budget.
SCAN_INCOMPLETE_AT_BASELINE = frozenset({(30, 17, 19)})
ANALYZE_INCOMPLETE_AT_BASELINE = frozenset({
    (13, 4, 31), (19, 11, 31), (21, 2, 29), (23, 7, 29), (25, 23, 29),
    (26, 11, 29), (26, 19, 29), (29, 1, 31), (29, 4, 29), (29, 8, 31),
    (29, 12, 31),
})


def incomplete_excess(incomplete: int, triples, baseline) -> int:
    """How many more of `triples` are incomplete than at the baseline."""
    return max(0, incomplete - sum(t in baseline for t in triples))


def coprime_pairs(a_max: int) -> list[tuple[int, int]]:
    return [(a, b) for a in range(2, a_max + 1) for b in range(1, a) if math.gcd(a, b) == 1]


def prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_probable_prime(x: int) -> bool:
    """Strong-pseudoprime test to the first 13 prime bases: a proof below
    3.3e24 (Sorenson and Webster), a probable-prime test above."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if x < 2:
        return False
    for p in bases:
        if x % p == 0:
            return x == p
    d, s = x - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for base in bases:
        y = pow(base, d, x)
        if y in (1, x - 1):
            continue
        for _ in range(s - 1):
            y = y * y % x
            if y == x - 1:
                break
        else:
            return False
    return True


def cyclotomic_values(a: int, b: int, n_max: int) -> list[int]:
    """phi[d] = Phi_d(a, b) for 1 <= d <= n_max, each a^d - b^d divided by
    the values at the proper divisors of d."""
    phi = [0] * (n_max + 1)
    for d in range(1, n_max + 1):
        value = a**d - b**d
        for e in range(1, d // 2 + 1):
            if d % e == 0:
                value, r = divmod(value, phi[e])
                if r:
                    raise ArithmeticError(f"Phi_{e} does not divide a^{d} - b^{d}")
        phi[d] = value
    return phi


def has_order(q: int, a: int, b: int, n: int) -> bool:
    """Whether a * b^-1 has multiplicative order exactly n modulo q."""
    if a % q == 0 or b % q == 0:
        return False
    x = a * pow(b, -1, q) % q
    return pow(x, n, q) == 1 and all(pow(x, n // r, q) != 1 for r in prime_factors(n))


def valuation(x: int, q: int) -> int:
    e = 0
    while x % q == 0:
        x //= q
        e += 1
    return e


def no_large_prime(a: int, b: int, n: int) -> bool:
    """The expected verdict for n >= 2.  At n = 2 the order-2 primes are
    the odd primes of a + b, and none is large exactly when the odd part
    of a + b is 1 or 3 (3 = n + 1 divides a^2 - b^2 once at most)."""
    if n == 2:
        odd = a + b
        while odd % 2 == 0:
            odd //= 2
        return odd in (1, 3)
    return (a, b, n) in NO_LARGE_N_GE_3


def in_table(a: int, b: int, n: int) -> bool:
    if n == 2:
        return no_large_prime(a, b, 2)
    return (a, b, n) in TABLE_N_GE_3


def _allowed_residual(residual: int, n: int) -> bool:
    # Phi_n(a, b) with its order-n primes removed: a power of 2 at n = 2,
    # otherwise 1 or the largest prime of n once (2 once at n = 2^k)
    if n == 2:
        return residual & (residual - 1) == 0
    return residual in (1, prime_factors(n)[-1])


def check_order_primes(a, b, n, phi, primes, complete) -> list[str]:
    """primes: (q, e) pairs a program listed as the order-n primes of
    Phi_n(a, b) = phi with exponent e.  When complete, they must be all."""
    bad = []
    rest = phi
    for q, e in primes:
        if not is_probable_prime(q):
            bad.append(f"{q} is not prime")
        elif phi % q or q % n != 1 % n or not has_order(q, a, b, n):
            bad.append(f"{q} is not a prime of order {n}")
        elif valuation(phi, q) != e:
            bad.append(f"{q} divides the value {valuation(phi, q)} times, not {e}")
        else:
            rest //= q**e
    if not bad and complete and not _allowed_residual(rest, n):
        bad.append(f"order-{n} primes missing: {rest} left after removing them")
    return bad


def check_decide(triples, codes) -> list[tuple[int, str]]:
    """codes[i] = has_large | is_exception << 1 for triples[i]; returns
    (index, message) for each wrong code."""
    bad = []
    for i, (a, b, n) in enumerate(triples):
        want = (not no_large_prime(a, b, n)) | in_table(a, b, n) << 1
        if codes[i] != want:
            bad.append((i, f"({a},{b},{n}): got {codes[i]!r}, expected has_large | is_exception << 1 = {want}"))
    return bad


CSV_HEADER = ["a", "b", "n", "phi_value", "zsig_primes", "large_primes", "exception", "exit-status"]


def _parse_primes(field: str) -> list[tuple[int, int]]:
    out = []
    for item in filter(None, field.split(";")):
        q, _, e = item.partition("^")
        out.append((int(q), int(e or 1)))
    return out


def scan_triples(a_max: int, n_max: int) -> list[tuple[int, int, int]]:
    return [(a, b, n) for a, b in coprime_pairs(a_max) for n in range(2, n_max + 1)]


def check_scan(rc: int, text: str, a_max: int, n_max: int) -> tuple[int, list]:
    """Check `zsig scan --format csv` output.  Returns the number of
    incomplete rows and the failures as (triple, message), where triple is
    None when the whole output is wrong: row set, exit code, mismatches."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != CSV_HEADER:
        return 0, [(None, "missing or wrong CSV header")]
    rows = rows[1:]
    expected = set(scan_triples(a_max, n_max))
    bad: list = []
    seen = set()
    mismatches = set()
    incomplete = 0
    phis: dict[tuple[int, int], list[int]] = {}
    for row in rows:
        try:
            a, b, n, phi = (int(x) for x in row[:4])
            primes = _parse_primes(row[4])
            large = [int(q) for q in filter(None, row[5].split(";"))]
            status = int(row[7])
        except (ValueError, IndexError):
            bad.append((None, f"unparsable row {row}"))
            continue
        t = (a, b, n)
        if t not in expected or t in seen:
            bad.append((None, f"{t}: row not expected once"))
            continue
        seen.add(t)
        if (a, b) not in phis:
            phis[a, b] = cyclotomic_values(a, b, n_max)
        want_phi = phis[a, b][n]
        errs = []
        if phi != want_phi:
            errs.append(f"phi_value {phi}, expected {want_phi}")
        else:
            errs += check_order_primes(a, b, n, phi, primes, status != 2)
        if large != [q for q, e in primes if e >= 2 or q > n + 1]:
            errs.append(f"large primes {large} do not follow from {primes}")
        if (row[6] != "none") != in_table(a, b, n):
            errs.append(f"exception {row[6]!r}, table row expected: {in_table(a, b, n)}")
        if status == 2:
            incomplete += 1
        elif status in (0, 1):
            if (status == 1) != no_large_prime(a, b, n):
                errs.append(f"exit-status {status} contradicts the verdict")
            if (status == 1) != (row[6] != "none"):
                mismatches.add(t)
        else:
            errs.append(f"exit-status {status}")
        bad += [(t, e) for e in errs]
    if seen != expected:
        bad.append((None, f"{len(expected - seen)} triples missing"))
    want_mismatches = TABLE_COUNTEREXAMPLES & expected
    if mismatches != want_mismatches:
        bad.append((None, f"mismatches {sorted(mismatches)}, expected {sorted(want_mismatches)}"))
    want_rc = 1 if want_mismatches else 2 if incomplete else 0
    if rc != want_rc:
        bad.append((None, f"exit code {rc}, expected {want_rc}"))
    return incomplete, bad


_FACTOR = re.compile(r"^(\d+)(?:\^(\d+))?$")
_ORDER_PRIME = re.compile(r"(\d+) \(exponent (\d+)\)")


def check_analyze(a: int, b: int, n: int, rc: int, text: str) -> list[str]:
    """Check `zsig analyze a b n` text output for a prime n."""
    lines = text.splitlines()
    field = {}
    for line in lines:
        key, _, rest = line.partition(" ")
        field.setdefault(key, rest)
    try:
        value = int(field["value"])
        factors, cofactor = [], 1
        for part in field["factors"].split(" * "):
            if part.startswith("[composite "):
                cofactor = int(part[len("[composite "):-1])
            elif part != "1":
                q, e = _FACTOR.match(part).groups()
                factors.append((int(q), int(e or 1)))
        order_line = next(x for x in lines if x.startswith(f"order-{n} primes: "))
        listed = [(int(q), int(e)) for q, e in _ORDER_PRIME.findall(order_line)]
        large_line = next(x for x in lines if x.startswith("large primes "))
        large = [int(q) for q in re.findall(r"\d+", large_line.partition("): ")[2])]
    except (KeyError, AttributeError, StopIteration, ValueError) as err:
        return [f"unparsable analyze output ({err!r})"]
    bad = []
    if rc not in (0, 2):
        bad.append(f"exit code {rc}, expected 0 or 2")
    want = (a**n - b**n) // (a - b)
    if value != want:
        return bad + [f"value {value}, expected {want}"]
    prod = cofactor
    for q, e in factors:
        if not is_probable_prime(q):
            bad.append(f"factor {q} is not prime")
        prod *= q**e
    if prod != value:
        bad.append("factors and cofactor do not multiply to the value")
    if cofactor != 1 and is_probable_prime(cofactor):
        bad.append(f"cofactor {cofactor} is prime")
    if (rc == 2) != (cofactor != 1):
        bad.append(f"exit code {rc} with cofactor {cofactor}")
    bad += check_order_primes(a, b, n, value, listed, cofactor == 1)
    # for prime n every prime of Phi_n(a, b) other than n has order n
    if sorted(listed) != [(q, e) for q, e in factors if q != n]:
        bad.append(f"order-{n} primes {listed} differ from the factors {factors}")
    if large != [q for q, e in listed if e >= 2 or q > n + 1]:
        bad.append(f"large primes {large} do not follow from {listed}")
    if rc == 0 and no_large_prime(a, b, n):
        bad.append("exit code 0 where no large prime exists")
    return bad

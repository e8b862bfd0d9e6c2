import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from zsig import arith
from zsig.arith import (
    Effort,
    Factorization,
    divisors,
    euler_phi,
    factorize,
    gcd,
    is_prime,
    largest_prime_divisor,
    mobius,
    totient_sieve,
    vp,
)
from oracles import (
    EXACT_BELOW,
    brent_rho_reference,
    factor_oracle,
    is_prime_oracle,
    vp_oracle,
)


class TestGcd:
    def test_examples(self):
        assert gcd(12, 18) == 6
        assert gcd(7, 0) == 7
        assert gcd(0, 0) == 0
        assert gcd(1, 999999999) == 1

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            gcd(-4, 6)

    @given(st.integers(0, 10**12), st.integers(0, 10**12))
    def test_divides_both(self, a, b):
        g = gcd(a, b)
        if g == 0:
            assert a == 0 and b == 0
        else:
            assert a % g == 0 and b % g == 0
        assert g == gcd(b, a)


class TestVp:
    def test_examples(self):
        assert vp(63, 3) == 2
        assert vp(8, 2) == 3
        assert vp(242, 2) == 1

    def test_mersenne_21(self):
        # 2^21 - 1 = 7^2 * 127 * 337; the exponent of 7 is 2, which the
        # in-test recomputation below pins down independently.
        x = 2**21 - 1
        assert x == 7 * 7 * 127 * 337
        assert vp(x, 7) == 2
        assert x // 49 == 127 * 337

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            vp(0, 3)
        with pytest.raises(ValueError):
            vp(10, 1)

    def test_composite_base_follows_divisibility(self):
        # The base is not required to be prime; the exponent is whatever
        # power of it divides x.
        assert vp(16, 4) == 2
        assert vp(10, 4) == 0

    @given(st.integers(1, 10**9), st.sampled_from([2, 3, 5, 7, 11]))
    def test_matches_oracle(self, x, p):
        e = vp(x, p)
        assert e == vp_oracle(x, p)
        assert x % p**e == 0 and x % p ** (e + 1) != 0


class TestIsPrime:
    def test_small_range_against_trial_division(self):
        # past 179**2 = 32041: every composite below it has a prime factor
        # in the base table, which Miller-Rabin must reject on its own
        for n in range(-3, 40_000):
            assert is_prime(n) == is_prime_oracle(n)

    def test_oracle_is_exact_only_below_the_first_pseudoprime(self):
        # EXACT_BELOW is a strong pseudoprime to all 13 oracle bases, so the
        # oracle refuses it rather than call it prime; the package, with its
        # 40 bases from there on, splits it
        assert EXACT_BELOW == arith.MR_DETERMINISTIC_LIMIT
        for x in (EXACT_BELOW, EXACT_BELOW + 2, 2**127 - 1):
            with pytest.raises(ValueError):
                is_prime_oracle(x)
            with pytest.raises(ValueError):
                factor_oracle(x)
        assert not is_prime(EXACT_BELOW)
        assert factorize(EXACT_BELOW).factors == ((1287836182261, 1), (2575672364521, 1))
        # just below it the oracle still answers
        for x in (EXACT_BELOW - 1, EXACT_BELOW - 2):
            assert is_prime_oracle(x) is False
            assert factor_oracle(x) == dict(factorize(x).factors)

    def test_carmichael_numbers(self):
        for n in (561, 1105, 1729, 41041, 825265):
            assert not is_prime(n)

    def test_strong_pseudoprimes(self):
        # Composites that fool weak Miller-Rabin base sets.
        assert not is_prime(3215031751)
        assert not is_prime(3825123056546413051)

    def test_large_known_values(self):
        assert is_prime(2**61 - 1)
        assert is_prime(2**89 - 1)
        assert not is_prime(2**67 - 1)  # = 193707721 * 761838257287
        assert is_prime(2**127 - 1)
        assert not is_prime(2**127 + 1)


class TestEulerPhi:
    def test_examples(self):
        assert euler_phi(1) == 1
        assert euler_phi(9) == 6
        assert euler_phi(12) == 4
        assert euler_phi(2**10) == 512

    def test_matches_sieve(self):
        sieve = totient_sieve(5000)
        for n in range(1, 5001):
            assert euler_phi(n) == sieve[n]

    def test_divisor_sum_identity(self):
        sieve = totient_sieve(10**4)
        for n in range(1, 10**4 + 1):
            assert sum(sieve[d] for d in divisors(n)) == n

    @given(st.integers(2, 10**6), st.integers(2, 10**6))
    @settings(deadline=None)
    def test_multiplicative(self, m, n):
        if gcd(m, n) == 1:
            assert euler_phi(m * n) == euler_phi(m) * euler_phi(n)


class TestMobius:
    def test_examples(self):
        assert mobius(1) == 1
        assert mobius(6) == 1
        assert mobius(12) == 0
        assert mobius(30) == -1
        assert mobius(7) == -1

    def test_divisor_sum_vanishes(self):
        for n in range(1, 2001):
            total = sum(mobius(d) for d in divisors(n))
            assert total == (1 if n == 1 else 0)


class TestLargestPrimeDivisor:
    def test_examples(self):
        assert largest_prime_divisor(12) == 3
        assert largest_prime_divisor(7) == 7
        assert largest_prime_divisor(2**10) == 2

    def test_rejects_one(self):
        with pytest.raises(ValueError):
            largest_prime_divisor(1)


class TestFactorize:
    def test_examples(self):
        assert dict(factorize(63).factors) == {3: 2, 7: 1}
        assert dict(factorize(1).factors) == {}
        assert dict(factorize(2**18 - 1).factors) == {3: 3, 7: 1, 19: 1, 73: 1}

    def test_complete_flag(self):
        f = factorize(2**21 - 1)
        assert f.complete
        assert f.cofactor == 1
        assert dict(f.factors) == {7: 2, 127: 1, 337: 1}

    def test_budget_exhaustion_leaves_cofactor(self):
        p, q = 58740000001, 58740000029  # primes near 6e10, far past trial range
        n = p * q
        f = factorize(n, Effort(trial_division_bound=10_000, rho_step_budget=50))
        assert not f.complete
        assert f.cofactor == n
        assert f.factors == ()
        assert f.value == n
        # With the budget lifted the same number splits fully.
        g = factorize(n, Effort(trial_division_bound=10_000, rho_step_budget=None))
        assert g.complete
        assert dict(g.factors) == {p: 1, q: 1}

    def test_mixed_partial(self):
        p, q = 58740000001, 58740000029
        n = 12 * p * q
        f = factorize(n, Effort(trial_division_bound=10_000, rho_step_budget=50))
        assert dict(f.factors) == {2: 2, 3: 1}
        assert f.cofactor == p * q
        assert not f.complete

    def test_trial_bound_past_sieve_cap(self):
        # trial division stops at 2**24 whatever the bound; rho splits the
        # two primes just above it
        p, q = 16777259, 16777289
        f = factorize(p * q, Effort(trial_division_bound=1 << 25))
        assert f.complete
        assert dict(f.factors) == {p: 1, q: 1}
        assert len(arith._sieve_flags) <= arith._SIEVE_CAP + 1

    @given(st.integers(1, 10**12))
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, x):
        f = factorize(x)
        assert f.complete
        prod = f.cofactor
        for p, e in f.factors:
            prod *= p**e
        assert prod == x
        assert dict(f.factors) == factor_oracle(x)

    def test_small_trial_bounds_match_oracle(self):
        # bounds below 7 still try the primes up to 7
        for bound in range(13):
            effort = Effort(bound, None)
            for x in range(1, 3000):
                assert dict(factorize(x, effort).factors) == factor_oracle(x), (x, bound)

    def test_small_trial_bounds_without_rho(self):
        for bound in range(13):
            tried = [p for p in range(2, max(bound, 7) + 1) if is_prime_oracle(p)]
            effort = Effort(bound, 0)
            for x in range(1, 3000):
                f = factorize(x, effort)
                prod = f.cofactor
                for p, e in f.factors:
                    prod *= p**e
                assert prod == x, (x, bound)
                found = dict(f.factors)
                assert all(p in found for p in tried if x % p == 0), (x, bound)

    def test_perfect_powers(self):
        assert dict(factorize(2**64).factors) == {2: 64}
        assert dict(factorize((10**9 + 7) ** 2).factors) == {10**9 + 7: 2}
        assert dict(factorize(6**12).factors) == {2: 12, 3: 12}


class TestBrentRho:
    def test_matches_reference_loop(self):
        # the budget runs out in phase 1 (r map steps with no gcd), in
        # phase 2 (gcd batches of up to 512 steps) or not at all; 143 also
        # backtracks and moves on to a second polynomial
        cases = {35: range(20), 143: range(40), 1000003 * 1000033: range(1030)}
        budgets = set(range(64))
        r = 1
        while r <= 4096:
            # phase 1 at r ends after 3r - 2 steps in all, phase 2 after 4r - 2
            for end in (3 * r - 2, 4 * r - 2):
                budgets.update((end - 1, end, end + 1))
            r *= 2
        # phase 2 at r = 2048 in its 512-step batches
        budgets.update(3 * 2048 - 2 + 512 * k + j for k in range(4) for j in (-1, 0, 1))
        cases[10000141 * 100000007] = sorted(budgets)
        for n, budgets in cases.items():
            _, steps = brent_rho_reference(n, None)
            for budget in [*budgets, steps - 1, steps, None]:
                assert arith._brent_rho(n, budget) == brent_rho_reference(n, budget), (n, budget)

    def test_budget_ends_inside_every_four_step_group(self):
        # the walk takes four map steps per loop pass in both phases; a
        # budget may end at any offset inside a group, of phase 1 at r
        # (from 2r - 2 steps in all) or of phase 2 (from 3r - 2), also in
        # the 512-step batches of phase 2 at r = 2048
        n = 10000141 * 100000007
        budgets = set()
        r = 4
        while r <= 4096:
            for start in (2 * r - 2, 3 * r - 2):
                budgets.update(start + j for j in range(9))
                budgets.update(start + r - j for j in range(1, 5))
            r *= 2
        budgets.update(3 * 2048 - 2 + 512 * k + j for k in range(1, 4) for j in range(-4, 5))
        for budget in sorted(budgets):
            assert arith._brent_rho(n, budget) == brent_rho_reference(n, budget), budget

    def test_each_of_the_four_differences_counts(self):
        # products of neighbouring primes near 10**5, where the collision
        # that splits n falls at each of the four places in a group for
        # some n; leaving one difference out of the product moves a split
        primes = [p for p in range(100003, 100300) if is_prime_oracle(p)]
        for p, q in zip(primes[::2], primes[1::2]):
            n = p * q
            assert arith._brent_rho(n, None) == brent_rho_reference(n, None), (p, q)

    def test_ninety_bit_semiprime(self):
        # the four differences multiplied before one reduction reach five
        # times the bit length of n
        p, q = 16777259, 1180591620717411303449
        assert is_prime_oracle(p) and is_prime_oracle(q)
        n = p * q
        assert n.bit_length() == 95
        _, steps = brent_rho_reference(n, None)
        for budget in (steps // 2, steps - 1, steps, None):
            assert arith._brent_rho(n, budget) == brent_rho_reference(n, budget), budget
        assert arith._brent_rho(n, None)[0] in (p, q)


class TestIndexFactors:
    def test_trial_division_stops_at_sqrt(self, monkeypatch):
        # 22 has the prime factor 11, yet building its record sieves only
        # the primes to 7 that trial division always tries
        monkeypatch.setattr(arith, "_sieve_flags", bytearray())
        monkeypatch.setattr(arith, "_sieve_primes", [])
        assert arith._IndexRecords()[22][4] == ((2, 1), (11, 1))
        assert len(arith._sieve_flags) <= 8

    def test_records_match_the_oracle(self):
        # every field of a record against the independent factorizer, on
        # both sides of the retention limit; only n <= the limit is kept
        limit = arith.INDEX_RECORD_LIMIT
        indices = [*range(1, 301), *range(limit - 5, limit + 6), 3 * limit]
        records = arith._IndexRecords()
        for n in indices:
            odd, plus, minus, top, factors = records[n]
            oracle = tuple(sorted(factor_oracle(n).items()))
            assert factors == oracle
            assert top == (oracle[-1][0] if oracle else None)
            assert odd == (n % 2 == 1)
            # e = n/d at odd n, n/2d at even n, over the squarefree d of
            # n's odd part, split by the sign of mu(d)
            half = n if odd else n // 2
            odd_primes = [p for p, _ in oracle if p != 2]
            split = {1: [], -1: []}
            for k in range(len(odd_primes) + 1):
                for chosen in itertools.combinations(odd_primes, k):
                    split[(-1) ** k].append(half // math.prod(chosen))
            assert sorted(plus) == sorted(split[1]), n
            assert sorted(minus) == sorted(split[-1]), n
        assert sorted(records) == [n for n in indices if n <= limit]

    def test_one_record_is_the_only_index_cache(self):
        # cyclotomic, zsigmondy and aurifeuillian read arith's record
        # itself, only arith defines its limit, and no module of the
        # package keeps an lru_cache
        from zsig import aurifeuillian, cli, cyclotomic, valuation, zsigmondy

        assert cyclotomic._index_records is arith._index_records
        assert zsigmondy._index_records is arith._index_records
        assert aurifeuillian._index_records is arith._index_records
        mods = (arith, aurifeuillian, cli, cyclotomic, valuation, zsigmondy)
        assert [m for m in mods if hasattr(m, "INDEX_RECORD_LIMIT")] == [arith]
        for mod in mods:
            assert not [v for v in vars(mod).values() if hasattr(v, "cache_info")]


class TestFactorizationInvariants:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            Factorization(value=21, factors=((7, 1), (3, 1)))

    def test_rejects_composite_entry(self):
        with pytest.raises(ValueError):
            Factorization(value=9, factors=((9, 1),))

    def test_rejects_wrong_product(self):
        with pytest.raises(ValueError):
            Factorization(value=10, factors=((2, 1), (3, 1)))

    def test_rejects_prime_cofactor(self):
        with pytest.raises(ValueError):
            Factorization(value=14, factors=((2, 1),), cofactor=7)


class TestEffort:
    def test_validation(self):
        with pytest.raises(ValueError):
            Effort(trial_division_bound=-1)
        with pytest.raises(ValueError):
            Effort(trial_division_bound=100, rho_step_budget=-5)

    def test_defaults(self):
        e = Effort()
        assert e.trial_division_bound == 1_000_000
        assert e.rho_step_budget is None


class TestDivisors:
    def test_examples(self):
        assert divisors(1) == [1]
        assert divisors(12) == [1, 2, 3, 4, 6, 12]
        assert divisors(49) == [1, 7, 49]

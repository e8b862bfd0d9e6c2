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
from oracles import factor_oracle, is_prime_oracle, vp_oracle


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
        assert factorize(63).as_dict() == {3: 2, 7: 1}
        assert factorize(1).as_dict() == {}
        assert factorize(2**18 - 1).as_dict() == {3: 3, 7: 1, 19: 1, 73: 1}

    def test_complete_flag(self):
        f = factorize(2**21 - 1)
        assert f.complete
        assert f.cofactor == 1
        assert f.as_dict() == {7: 2, 127: 1, 337: 1}

    def test_exponent_of(self):
        f = factorize(720)
        assert f.exponent_of(2) == 4
        assert f.exponent_of(3) == 2
        assert f.exponent_of(11) == 0

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
        assert g.as_dict() == {p: 1, q: 1}

    def test_mixed_partial(self):
        p, q = 58740000001, 58740000029
        n = 12 * p * q
        f = factorize(n, Effort(trial_division_bound=10_000, rho_step_budget=50))
        assert f.as_dict() == {2: 2, 3: 1}
        assert f.cofactor == p * q
        assert not f.complete

    def test_trial_bound_past_sieve_cap(self):
        # trial division stops at 2**24 whatever the bound; rho splits the
        # two primes just above it
        p, q = 16777259, 16777289
        f = factorize(p * q, Effort(trial_division_bound=1 << 25))
        assert f.complete
        assert f.as_dict() == {p: 1, q: 1}
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
        assert f.as_dict() == factor_oracle(x)

    def test_small_trial_bounds_match_oracle(self):
        # bounds below 7 still try the primes up to 7
        for bound in range(13):
            effort = Effort(bound, None)
            for x in range(1, 3000):
                assert factorize(x, effort).as_dict() == factor_oracle(x), (x, bound)

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
                found = f.as_dict()
                assert all(p in found for p in tried if x % p == 0), (x, bound)

    def test_perfect_powers(self):
        assert factorize(2**64).as_dict() == {2: 64}
        assert factorize((10**9 + 7) ** 2).as_dict() == {10**9 + 7: 2}
        assert factorize(6**12).as_dict() == {2: 12, 3: 12}


class TestIndexFactors:
    def test_trial_division_stops_at_sqrt(self, monkeypatch):
        # 22 has the prime factor 11, yet factoring it as an index sieves
        # only the primes to 7 that trial division always tries
        monkeypatch.setattr(arith, "_sieve_flags", bytearray())
        monkeypatch.setattr(arith, "_sieve_primes", [])
        assert arith._index_factors.__wrapped__(22) == ((2, 1), (11, 1))
        assert len(arith._sieve_flags) <= 8


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

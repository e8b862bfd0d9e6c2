from math import gcd as _gcd

import pytest

from zsig.arith import divisors, vp
from zsig.cyclotomic import eval_homogeneous
from zsig.valuation import (
    LtePreconditionError,
    lte_valuation,
    multiplicative_order,
    vp_cyclotomic,
)
from oracles import order_brute

PRIMES_TO_50 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


class TestMultiplicativeOrder:
    def test_examples(self):
        assert multiplicative_order(7, 2, 1) == 3
        assert multiplicative_order(3, 2, 1) == 2
        assert multiplicative_order(19, 2, 1) == 18
        assert multiplicative_order(5, 4, 3) == 4

    def test_against_brute_scan(self):
        for p in PRIMES_TO_50:
            for a in range(2, 12):
                for b in range(1, a):
                    if _gcd(a, b) != 1 or a % p == 0 or b % p == 0:
                        continue
                    assert multiplicative_order(p, a, b) == order_brute(p, a, b)

    def test_order_divides_group_size(self):
        for p in (101, 251, 997):
            for a in range(2, 8):
                for b in range(1, a):
                    if _gcd(a, b) != 1:
                        continue
                    k = multiplicative_order(p, a, b)
                    assert (p - 1) % k == 0
                    assert pow(a, k, p) == pow(b, k, p)

    def test_rejects_divisible_base(self):
        with pytest.raises(ValueError):
            multiplicative_order(3, 6, 1)
        with pytest.raises(ValueError):
            multiplicative_order(5, 7, 5)


class TestLte:
    def test_examples(self):
        assert lte_valuation(3, 5, 2, 6) == vp(5**6 - 2**6, 3)
        assert lte_valuation(2, 7, 1, 4) == vp(7**4 - 1, 2)
        assert lte_valuation(2, 5, 3, 5) == vp(5**5 - 3**5, 2)
        assert lte_valuation(7, 10, 3, 14) == vp(10**14 - 3**14, 7)

    def test_precondition_gates(self):
        with pytest.raises(LtePreconditionError):
            lte_valuation(3, 5, 3, 4)  # p divides y
        with pytest.raises(LtePreconditionError):
            lte_valuation(3, 5, 4, 2)  # p does not divide x - y
        with pytest.raises(LtePreconditionError):
            lte_valuation(5, 7, 7, 3)  # x == y
        with pytest.raises(LtePreconditionError):
            lte_valuation(3, 5, 2, 0)  # exponent must be positive
        with pytest.raises(ValueError):
            lte_valuation(4, 5, 1, 3)  # modulus must be prime

    def test_full_sweep_matches_direct_valuation(self):
        for p in PRIMES_TO_50:
            for x in range(2, 31):
                for y in range(1, x):
                    if (x - y) % p != 0 or x % p == 0 or y % p == 0:
                        continue
                    for m in range(1, 41):
                        assert lte_valuation(p, x, y, m) == vp(x**m - y**m, p)


class TestVpCyclotomic:
    def test_examples(self):
        assert vp_cyclotomic(7, 2, 1, 3) == 1    # the order-3 value is 7 itself
        assert vp_cyclotomic(7, 2, 1, 21) == 1   # 2359 = 7 * 337
        assert vp_cyclotomic(7, 2, 1, 5) == 0
        assert vp_cyclotomic(2, 3, 1, 1) == 1
        assert vp_cyclotomic(2, 3, 1, 2) == 2
        assert vp_cyclotomic(2, 7, 1, 2) == 3
        assert vp_cyclotomic(2, 3, 1, 4) == 1
        assert vp_cyclotomic(2, 3, 1, 8) == 1    # 82 = 2 * 41
        assert vp_cyclotomic(2, 3, 1, 6) == 0

    def test_two_with_even_product_is_zero(self):
        for (a, b) in ((4, 3), (8, 1), (9, 2), (5, 2)):
            for n in range(1, 25):
                assert vp_cyclotomic(2, a, b, n) == 0
                assert eval_homogeneous(n, a, b) % 2 == 1

    def test_odd_prime_rejects_divisible_base(self):
        with pytest.raises(ValueError):
            vp_cyclotomic(3, 6, 1, 4)
        with pytest.raises(ValueError):
            vp_cyclotomic(5, 8, 5, 4)

    def test_matches_direct_exponent(self):
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29):
            for a in range(2, 9):
                for b in range(1, a):
                    if _gcd(a, b) != 1 or (p != 2 and (a % p == 0 or b % p == 0)):
                        continue
                    for n in range(1, 25):
                        assert vp_cyclotomic(p, a, b, n) == vp(
                            eval_homogeneous(n, a, b), p
                        )

    def test_telescoping_sum(self):
        # Exponents over the divisor chain must add up to the exponent in
        # the full difference a^n - b^n.
        for p in (2, 3, 5, 7, 11, 13):
            for a in range(2, 9):
                for b in range(1, a):
                    if _gcd(a, b) != 1 or (p != 2 and (a % p == 0 or b % p == 0)):
                        continue
                    for n in range(1, 25):
                        total = sum(
                            vp_cyclotomic(p, a, b, d) for d in divisors(n)
                        )
                        assert total == vp(a**n - b**n, p)

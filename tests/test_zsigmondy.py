import dataclasses
from math import gcd as _gcd

import pytest

from zsig.arith import Effort, vp
from zsig.cyclotomic import Triple, eval_homogeneous
from zsig.zsigmondy import (
    DivisorCase,
    ExceptionKind,
    IncompleteFactorizationError,
    analyze,
    classify_exception,
    classify_prime_divisor,
    has_large_zsigmondy_fast,
    large_zsigmondy_primes,
    sufficiency_check,
    zsigmondy_primes,
)
from oracles import brute_zsigmondy


def _coprime_pairs(a_max):
    for a in range(2, a_max + 1):
        for b in range(1, a):
            if _gcd(a, b) == 1:
                yield a, b


class TestZsigmondyPrimes:
    def test_examples(self):
        assert zsigmondy_primes(Triple(2, 1, 6)) == []
        assert zsigmondy_primes(Triple(2, 1, 4)) == [(5, 1)]
        assert zsigmondy_primes(Triple(2, 1, 18)) == [(19, 1)]
        assert zsigmondy_primes(Triple(5, 3, 2)) == []

    def test_n1_allowed(self):
        assert zsigmondy_primes(Triple(3, 1, 1)) == [(2, 1)]
        assert zsigmondy_primes(Triple(2, 1, 1)) == []

    def test_incomplete_budget_raises_with_partial_data(self):
        t = Triple(13, 4, 31)
        tiny = Effort(trial_division_bound=1_000, rho_step_budget=100)
        with pytest.raises(IncompleteFactorizationError) as exc:
            zsigmondy_primes(t, tiny)
        err = exc.value
        assert not err.factorization.complete
        assert err.factorization.cofactor > 1
        assert isinstance(err.partial_primes, tuple)


class TestBruteForceEquivalence:
    """Definition-level cross-check: factor a^n - b^n outright and compare.

    This is the one place the package's whole derivation chain (cyclotomic
    value, order test, exponent bookkeeping) is checked against nothing
    but the definition.
    """

    def test_matches_definition(self):
        mismatched_table = []
        for a, b in _coprime_pairs(10):
            for n in range(2, 25):
                t = Triple(a, b, n)
                zsig = zsigmondy_primes(t)
                large = large_zsigmondy_primes(t)
                ozsig, olarge = brute_zsigmondy(a, b, n)
                assert zsig == ozsig, (a, b, n)
                assert large == olarge, (a, b, n)
                # every order-n prime found by brute force divides the
                # cyclotomic value
                value = eval_homogeneous(n, a, b)
                for q, _ in ozsig:
                    assert value % q == 0
                # non-large order-n primes sit exactly at n + 1 with
                # exponent 1
                for q, e in zsig:
                    if q not in large:
                        assert q == n + 1 and e == 1
                rep = analyze(t)
                if not rep.table_agrees:
                    mismatched_table.append((a, b, n))
                # every prime divisor of the value must land in exactly
                # one classification case
                assert rep.phi_factors is not None
                for p, _ in rep.phi_factors.factors:
                    classify_prime_divisor(p, t)
        # the two triples the exception table does not cover; see the
        # scanner tests and README for the full story
        assert mismatched_table == [(3, 2, 10), (5, 1, 6)]


class TestLargeZsigmondyPrimes:
    def test_examples(self):
        assert large_zsigmondy_primes(Triple(2, 1, 5)) == [31]
        assert large_zsigmondy_primes(Triple(2, 1, 4)) == []
        assert large_zsigmondy_primes(Triple(7, 2, 2)) == [3]

    def test_squared_divisor_qualifies(self):
        # (7,2,2): 3 <= n + 1 but 9 | 45 makes it large anyway
        t = Triple(7, 2, 2)
        assert zsigmondy_primes(t) == [(3, 2)]
        assert vp(7**2 - 2**2, 3) == 2

    def test_multiplier_raises_threshold(self):
        t = Triple(4, 3, 2)
        assert large_zsigmondy_primes(t, multiplier=1) == [7]  # 7 > 3
        assert large_zsigmondy_primes(t, multiplier=2) == [7]  # 7 > 5
        assert large_zsigmondy_primes(t, multiplier=3) == []   # 7 = 3*2+1
        with pytest.raises(ValueError):
            large_zsigmondy_primes(t, multiplier=0)

    def test_multiplier_keeps_squared_primes(self):
        # exponent >= 2 qualifies regardless of the threshold
        t = Triple(7, 2, 2)
        assert large_zsigmondy_primes(t, multiplier=100) == [3]


class TestClassifyPrimeDivisor:
    def test_examples(self):
        c = classify_prime_divisor(2, Triple(3, 1, 4))
        assert c.case is DivisorCase.TWO_POWER
        assert c.beta == 2
        c = classify_prime_divisor(5, Triple(3, 1, 4))
        assert c.case is DivisorCase.ZSIGMONDY
        assert c.k == 4
        c = classify_prime_divisor(3, Triple(2, 1, 18))
        assert c.case is DivisorCase.LARGEST_PRIME
        assert c.k == 2
        assert c.beta == 2

    def test_rejects_non_divisor(self):
        with pytest.raises(ValueError):
            classify_prime_divisor(11, Triple(3, 1, 4))

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            classify_prime_divisor(10, Triple(3, 1, 4))

    def test_rejects_two_at_index_one(self):
        # order of the ratio mod 2 is not defined in a useful way there
        with pytest.raises(ValueError):
            classify_prime_divisor(2, Triple(3, 1, 1))

    def test_exhaustive_over_small_range(self):
        for a, b in _coprime_pairs(8):
            for n in range(2, 17):
                t = Triple(a, b, n)
                rep = analyze(t)
                assert rep.phi_factors is not None
                for p, _ in rep.phi_factors.factors:
                    c = classify_prime_divisor(p, t)
                    if c.case is DivisorCase.ZSIGMONDY:
                        assert c.k == n
                        assert p % n == 1
                    elif c.case is DivisorCase.TWO_POWER:
                        assert p == 2
                    else:
                        assert c.case is DivisorCase.LARGEST_PRIME
                        assert n == c.k * p**c.beta
                        assert c.beta >= 1


class TestFastDecision:
    def test_examples(self):
        assert not has_large_zsigmondy_fast(Triple(2, 1, 12)).has_large
        assert has_large_zsigmondy_fast(Triple(3, 2, 12)).has_large
        assert not has_large_zsigmondy_fast(Triple(5, 1, 2)).has_large

    def test_witness_fields(self):
        d = has_large_zsigmondy_fast(Triple(5, 1, 2))
        assert d.phi_value == 6
        assert d.removed_prime == 2
        assert d.removed_exponent == 1
        assert d.residual == 3
        assert d.threshold == 3

        d = has_large_zsigmondy_fast(Triple(2, 1, 12))
        assert d.phi_value == 13
        assert d.removed_prime is None
        assert d.residual == 13
        assert d.threshold == 13

    def test_rejects_n1(self):
        with pytest.raises(ValueError):
            has_large_zsigmondy_fast(Triple(2, 1, 1))


class TestSufficiency:
    def test_examples(self):
        assert sufficiency_check(Triple(2, 1, 7))
        assert not sufficiency_check(Triple(2, 1, 18))
        assert not sufficiency_check(Triple(2, 1, 6))

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            sufficiency_check(Triple(2, 1, 2))

    def test_implication_not_equivalence(self):
        # (2,1,3): value 7 > 4 gives a large prime, yet the coarse
        # inequality 4 * 3 < 7 fails; sufficiency is one-directional.
        t = Triple(2, 1, 3)
        assert not sufficiency_check(t)
        assert large_zsigmondy_primes(t) == [7]

    def test_implies_large_on_small_range(self):
        for a, b in _coprime_pairs(10):
            for n in range(3, 25):
                t = Triple(a, b, n)
                if sufficiency_check(t):
                    assert has_large_zsigmondy_fast(t).has_large


class TestDecisionSweep:
    """The factorization-free decision over whole ranges, against the
    exception table and against Feit's b = 1 list (On large Zsigmondy
    primes, Proc. AMS 102, 1988)."""

    # the table's rows with n >= 3
    TABLE = {
        (2, 1, 4), (3, 1, 4),
        (2, 1, 6), (3, 1, 6), (3, 2, 6), (5, 4, 6),
        (2, 1, 10), (2, 1, 12), (2, 1, 18),
    }
    # no large prime, yet in no row of the table
    OUTSIDE_TABLE = {(3, 2, 10), (5, 1, 6)}

    @staticmethod
    def _no_large(triples):
        return {
            (t.a, t.b, t.n)
            for t in triples
            if not has_large_zsigmondy_fast(t).has_large
        }

    def test_coprime_pairs(self):
        triples = [
            Triple(a, b, n) for a, b in _coprime_pairs(40) for n in range(3, 61)
        ]
        assert self._no_large(triples) == self.TABLE | self.OUTSIDE_TABLE
        predicted = {
            (t.a, t.b, t.n) for t in triples if classify_exception(t).is_exception
        }
        assert predicted == self.TABLE

    def test_one_removal_of_the_largest_prime(self):
        # the lemma behind the single removal loop: P(n) divides the value
        # at most once for n >= 3, and at n = 2 the residual is the odd
        # part of a + b
        for a, b in _coprime_pairs(40):
            for n in range(2, 61):
                d = has_large_zsigmondy_fast(Triple(a, b, n))
                removed = d.removed_prime**d.removed_exponent if d.removed_prime else 1
                assert d.phi_value == d.residual * removed
                if n >= 3:
                    assert d.removed_exponent <= 1
                else:
                    assert d.residual == (a + b) >> vp(a + b, 2)

    def test_feit_b_equals_one(self):
        triples = [Triple(a, 1, n) for a in range(2, 401) for n in range(3, 61)]
        feit = {(2, 4), (2, 6), (2, 10), (2, 12), (2, 18), (3, 4), (3, 6), (5, 6)}
        assert self._no_large(triples) == {(a, 1, n) for a, n in feit}


class TestClassifyException:
    def test_examples(self):
        c = classify_exception(Triple(5, 4, 6))
        assert c.kind is ExceptionKind.SMALL_PAIR_N6
        assert c.pair == (5, 4)
        c = classify_exception(Triple(7, 2, 2))
        assert c.kind is ExceptionKind.NONE
        assert not c.is_exception
        c = classify_exception(Triple(2, 1, 10))
        assert c.kind is ExceptionKind.PAIR_2_1_N10_12_18

    def test_n2_sum_of_two_powers(self):
        c = classify_exception(Triple(5, 3, 2))
        assert c.kind is ExceptionKind.SUM_POWER_OF_TWO
        assert (c.s, c.t) == (3, 0)
        c = classify_exception(Triple(2, 1, 2))
        assert c.kind is ExceptionKind.SUM_THREE_TIMES_POWER_OF_TWO
        assert (c.s, c.t) == (0, 1)
        c = classify_exception(Triple(11, 1, 2))
        assert c.kind is ExceptionKind.SUM_THREE_TIMES_POWER_OF_TWO
        assert (c.s, c.t) == (2, 1)
        c = classify_exception(Triple(7, 2, 2))
        assert c.kind is ExceptionKind.NONE  # 9 = 3^2 has t = 2

    def test_262116_precedence(self):
        # (2,1,6) sits in two rows of the table; the classic no-prime-at-
        # all case wins over the small-pair row.
        c = classify_exception(Triple(2, 1, 6))
        assert c.kind is ExceptionKind.TRIPLE_2_1_6

    def test_n4_and_n6_pairs(self):
        assert classify_exception(Triple(3, 1, 4)).kind is ExceptionKind.SMALL_PAIR_N4
        assert classify_exception(Triple(2, 1, 4)).kind is ExceptionKind.SMALL_PAIR_N4
        assert classify_exception(Triple(4, 1, 4)).kind is ExceptionKind.NONE
        assert classify_exception(Triple(3, 2, 6)).kind is ExceptionKind.SMALL_PAIR_N6
        assert classify_exception(Triple(5, 2, 6)).kind is ExceptionKind.NONE

    def test_rejects_n1(self):
        with pytest.raises(ValueError):
            classify_exception(Triple(3, 1, 1))

    def test_none_result_is_shared_and_frozen(self):
        # every triple the table does not list gets the same frozen result
        c = classify_exception(Triple(7, 2, 2))
        assert classify_exception(Triple(4, 1, 4)) is c
        assert classify_exception(Triple(11, 3, 31)) is c
        assert c.kind is ExceptionKind.NONE and c.witness() == {}
        with pytest.raises(dataclasses.FrozenInstanceError):
            c.kind = ExceptionKind.SMALL_PAIR_N4

    def test_witness_shapes(self):
        w = classify_exception(Triple(5, 3, 2)).witness()
        assert w == {"s": 3, "t": 0}
        w = classify_exception(Triple(5, 4, 6)).witness()
        assert w == {"pair": [5, 4]}


class TestAnalyze:
    def test_example_2_1_6(self):
        rep = analyze(Triple(2, 1, 6))
        assert not rep.has_zsigmondy
        assert not rep.has_large
        assert rep.exception.kind is ExceptionKind.TRIPLE_2_1_6
        assert rep.table_agrees
        assert rep.phi_value == 3

    def test_example_3_1_6(self):
        rep = analyze(Triple(3, 1, 6))
        assert rep.has_zsigmondy
        assert rep.zsig_primes == ((7, 1),)
        assert not rep.has_large
        assert rep.exception.kind is ExceptionKind.SMALL_PAIR_N6
        assert rep.table_agrees

    def test_example_4_3_2(self):
        rep = analyze(Triple(4, 3, 2))
        assert rep.has_large
        assert rep.large_zsig_primes == (7,)
        assert rep.exception.kind is ExceptionKind.NONE
        assert rep.table_agrees

    def test_table_disagreements_are_reported_not_raised(self):
        # Both triples fall through every row of the table yet have no
        # large prime: the single order-n prime sits exactly at n + 1
        # with exponent 1.
        for a, b, n in ((5, 1, 6), (3, 2, 10)):
            rep = analyze(Triple(a, b, n))
            assert rep.zsig_primes == ((n + 1, 1),)
            assert not rep.has_large
            assert rep.exception.kind is ExceptionKind.NONE
            assert not rep.table_agrees

    def test_rejects_n1(self):
        with pytest.raises(ValueError):
            analyze(Triple(2, 1, 1))

    def test_rejects_nonpositive_multiplier(self):
        with pytest.raises(ValueError, match="multiplier must be a positive integer"):
            analyze(Triple(4, 3, 2), multiplier=0)

    def test_incomplete_carries_fast_answer(self):
        t = Triple(13, 4, 31)
        tiny = Effort(trial_division_bound=1_000, rho_step_budget=100)
        rep = analyze(t, tiny)
        assert not rep.factorization_complete
        assert rep.phi_factors.cofactor > 1
        assert rep.fast.has_large
        assert rep.has_large  # taken from the fast decision
        assert rep.phi_value == eval_homogeneous(31, 13, 4)

    def test_multiplier_changes_large_notion(self):
        rep = analyze(Triple(4, 3, 2), multiplier=3)
        assert rep.large_multiplier == 3
        assert rep.large_zsig_primes == ()
        assert not rep.has_large
        assert rep.fast.has_large  # plain-threshold decision unchanged

    def test_evaluates_phi_once(self, monkeypatch):
        calls = []

        def counted(n, a, b):
            calls.append((n, a, b))
            return eval_homogeneous(n, a, b)

        monkeypatch.setattr("zsig.zsigmondy.eval_homogeneous", counted)
        analyze(Triple(3, 2, 10))
        assert calls == [(10, 3, 2)]

    def test_fast_agrees_with_list_on_small_range(self):
        for a, b in _coprime_pairs(9):
            for n in range(2, 21):
                rep = analyze(Triple(a, b, n))
                assert rep.fast.has_large == bool(rep.large_zsig_primes)

from collections import Counter
from math import gcd as _gcd

import pytest

from zsig import arith, cyclotomic, zsigmondy
from zsig.arith import INDEX_RECORD_LIMIT, Effort, factorize, vp
from zsig.cyclotomic import (
    Triple,
    _eval_homogeneous,
    cyclotomic_coeffs,
    eval_homogeneous,
    eval_mobius,
)
from zsig.valuation import multiplicative_order
from zsig.zsigmondy import (
    EXCEPTION_TABLE,
    DivisorCase,
    ExceptionKind,
    FastDecision,
    analyze,
    classify_exception,
    classify_prime_divisor,
    has_large_zsigmondy_fast,
    sufficiency_check,
    _phi_divisors,
)
from oracles import brute_zsigmondy, perfect_power_pairs


def _coprime_pairs(a_max):
    for a in range(2, a_max + 1):
        for b in range(1, a):
            if _gcd(a, b) == 1:
                yield a, b


class TestZsigmondyPrimes:
    def test_examples(self):
        assert analyze(Triple(2, 1, 6)).zsig_primes == ()
        assert analyze(Triple(2, 1, 4)).zsig_primes == ((5, 1),)
        assert analyze(Triple(2, 1, 18)).zsig_primes == ((19, 1),)
        assert analyze(Triple(5, 3, 2)).zsig_primes == ()


class TestPhiTrialDivision:
    def test_matches_generic_factorize(self):
        # P(lcm(2, n)) and then 1 + k * lcm(2, n) give factorize's factors
        # and cofactor whatever the trial bound and rho budget, also at
        # n = 1 and where P(n) = 11, 13 lies beyond a small trial limit
        efforts = [Effort(tb, rb) for tb in [*range(13), 2000] for rb in (0, 50, None)]
        for a, b in _coprime_pairs(7):
            for n in (1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13, 15, 16, 21, 22, 25, 26, 32):
                value = eval_homogeneous(n, a, b)
                for effort in efforts:
                    fac = arith._factor(value, effort, [(value, _phi_divisors(n))])
                    assert fac == factorize(value, effort), (a, b, n, effort)

    def test_analyze_builds_no_value_sieve(self, monkeypatch):
        # the generic path would sieve to the 10**6 trial bound; only the
        # perfect-power check and p - 1 = 28 ask the sieve for primes now
        monkeypatch.setattr(arith, "_sieve_flags", bytearray())
        monkeypatch.setattr(arith, "_sieve_primes", [])
        rep = analyze(Triple(3, 2, 29), Effort())
        assert rep.factorization_complete
        assert multiplicative_order(29, 30, 1) == 1
        assert len(arith._sieve_flags) <= 1024


class TestPowerPieces:
    def test_pieces_match_unsplit_factoring(self):
        # analyze factors Phi_n(s**p, t**p) as its pieces; wherever the
        # unsplit value factors completely under the same effort, so do
        # the pieces, into the same factors, and some only the pieces do
        effort = Effort(2000, 100_000)
        split_only = 0
        for a, b in perfect_power_pairs(30):
            for n in range(2, 41):
                rep = analyze(Triple(a, b, n), effort)
                value = rep.phi_value
                unsplit = arith._factor(value, effort, [(value, _phi_divisors(n))])
                if unsplit.complete:
                    assert rep.phi_factors == unsplit, (a, b, n)
                else:
                    split_only += rep.factorization_complete
        assert split_only > 0

    def test_one_budget_across_pieces(self, monkeypatch):
        # Phi_31(81, 1) = Phi_124(3, 1) * Phi_62(3, 1) * Phi_31(3, 1), and
        # rho works on all three pieces: each call gets what the earlier
        # calls left of the value's one budget, not a budget of its own
        calls = []
        real = arith._brent_rho

        def recorded(y, budget):
            g, used = real(y, budget)
            calls.append((y, budget, used))
            return g, used

        monkeypatch.setattr(arith, "_brent_rho", recorded)
        rep = analyze(Triple(81, 1, 31), Effort(7, 1000))
        assert not rep.factorization_complete
        spent = 0
        for _, budget, used in calls:
            assert budget == 1000 - spent
            spent += used
        assert spent > 1000  # the last call ran the shared budget out
        pieces = [_eval_homogeneous(*p) for p in cyclotomic._power_pieces(31, 81, 1)]
        assert len(pieces) == 3
        worked = {i for y, _, _ in calls for i, v in enumerate(pieces) if v % y == 0}
        assert worked == {0, 1, 2}


class TestAurifeuillianSplit:
    def test_completes_without_rho(self):
        # 29 * 4 and 29 * 9 have squarefree part 29 = 1 (mod 4), and 29/29
        # is odd: the value splits as L * M, of 20 and 22 digits at
        # (29, 4, 29), which trial division completes with no rho step
        for a, b in ((29, 4), (29, 9)):
            rep = analyze(Triple(a, b, 29), Effort(10**6, 0))
            assert rep.factorization_complete, (a, b)
            assert rep.has_large

    def test_splits_only_above_trial_limit_squared(self, monkeypatch):
        # Phi_5(5, 1) = 781 = 11 * 71 meets the condition (k = 5); trial
        # division to 7 leaves it to rho, so it splits, while trial
        # division to 100 completes it (781 <= 100**2) and it does not
        calls = []

        def pieces(n, a, b, value):
            calls.append((n, a, b))
            return cyclotomic._aurifeuillian_pieces(n, a, b, value)

        monkeypatch.setattr(zsigmondy, "_aurifeuillian_pieces", pieces)
        small = analyze(Triple(5, 1, 5), Effort(7, 0))
        assert calls == [(5, 5, 1)]
        assert small.factorization_complete
        calls.clear()
        whole = analyze(Triple(5, 1, 5), Effort(100, 0))
        assert calls == []
        assert whole.factorization_complete
        assert whole.zsig_primes == small.zsig_primes


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
                rep = analyze(t)
                assert rep.factorization_complete, (a, b, n)
                zsig = list(rep.zsig_primes)
                large = list(rep.large_zsig_primes)
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
        assert analyze(Triple(2, 1, 5)).large_zsig_primes == (31,)
        assert analyze(Triple(2, 1, 4)).large_zsig_primes == ()
        assert analyze(Triple(7, 2, 2)).large_zsig_primes == (3,)

    def test_squared_divisor_qualifies(self):
        # (7,2,2): 3 <= n + 1 but 9 | 45 makes it large anyway
        t = Triple(7, 2, 2)
        assert analyze(t).zsig_primes == ((3, 2),)
        assert vp(7**2 - 2**2, 3) == 2

    def test_multiplier_raises_threshold(self):
        t = Triple(4, 3, 2)
        assert analyze(t, multiplier=1).large_zsig_primes == (7,)  # 7 > 3
        assert analyze(t, multiplier=2).large_zsig_primes == (7,)  # 7 > 5
        assert analyze(t, multiplier=3).large_zsig_primes == ()    # 7 = 3*2+1

    def test_multiplier_keeps_squared_primes(self):
        # exponent >= 2 qualifies regardless of the threshold
        t = Triple(7, 2, 2)
        assert analyze(t, multiplier=100).large_zsig_primes == (3,)


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

    def test_validates_once(self, monkeypatch):
        # the Triple's construction is the one validation
        calls = []
        new = Triple.__new__

        def counted(cls, a, b, n):
            calls.append((a, b, n))
            return new(cls, a, b, n)

        monkeypatch.setattr(Triple, "__new__", counted)
        has_large_zsigmondy_fast(Triple(3, 2, 10))
        assert calls == [(3, 2, 10)]

    def test_immutable(self):
        d = has_large_zsigmondy_fast(Triple(3, 2, 10))
        with pytest.raises(AttributeError):
            d.has_large = True
        with pytest.raises(AttributeError):
            d.extra = 1


def _largest_prime(n):
    # P(n) by trial division
    top, q, p = 1, n, 2
    while q > 1:
        if q % p:
            p += 1
        else:
            top, q = p, q // p
    return top


class TestDecisionReference:
    """The decision field by field against a reference built here from
    eval_mobius and trial division."""

    @staticmethod
    def _reference(a, b, n):
        value = eval_mobius(n, a, b)
        p = _largest_prime(n)
        residual, removed = value, 0
        while residual % p == 0:
            residual, removed = residual // p, removed + 1
        return {
            "has_large": residual > n + 1,
            "phi_value": value,
            "removed_prime": p if removed else None,
            "removed_exponent": removed,
            "residual": residual,
            "threshold": n + 1,
        }

    def test_matches_reference(self):
        for a, b in _coprime_pairs(30):
            for n in range(2, 61):
                d = has_large_zsigmondy_fast(Triple(a, b, n))
                assert type(d) is FastDecision
                assert d._asdict() == self._reference(a, b, n)

    def test_top_prime_lookup_is_bounded(self):
        # P(n) comes from arith's per-index record, kept up to the
        # limit; indices above it are decided alike
        limit = INDEX_RECORD_LIMIT
        for n in (limit - 1, limit, limit + 1, limit + 4, 3 * limit):
            d = has_large_zsigmondy_fast(Triple(3, 2, n))
            assert d == tuple(self._reference(3, 2, n).values())
        assert {limit - 1, limit} <= arith._index_records.keys()
        assert max(arith._index_records) <= limit
        # zsigmondy's only module-level dict is arith's record, imported
        caches = [
            v for k, v in vars(zsigmondy).items()
            if isinstance(v, dict) and not k.startswith("__")
        ]
        assert len(caches) == 1 and caches[0] is arith._index_records

    def test_rejects_n1_once_warm(self):
        # n = 1 has a record (P(1) is None) once the evaluator or the
        # coefficient build has read it; the decision still refuses n = 1
        # before reading any record
        eval_homogeneous(1, 2, 1)
        cyclotomic_coeffs(1)
        assert arith._index_records[1] == (True, (1,), (), None, ())
        has_large_zsigmondy_fast(Triple(2, 1, 2))
        for _ in range(2):
            with pytest.raises(ValueError, match="the decision needs n >= 2"):
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
        assert analyze(t).large_zsig_primes == (7,)

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
        # the table's b = 1 rows from n = 3 are Feit's list but (5, 1, 6)
        rows = {
            (a, n)
            for n, members, _ in EXCEPTION_TABLE
            if n >= 3
            for a, b in members
            if b == 1
        }
        assert rows == feit - {(5, 6)}


class TestClassifyException:
    @staticmethod
    def _expected(a, b, n):
        """(kind, witness) from the odd part of a + b and
        TestDecisionSweep.TABLE, without reading EXCEPTION_TABLE."""
        if n == 2:
            s = ((a + b) & -(a + b)).bit_length() - 1
            odd = (a + b) >> s
            if odd == 1:
                return ExceptionKind.SUM_POWER_OF_TWO, {"s": s, "t": 0}
            if odd == 3:
                return ExceptionKind.SUM_THREE_TIMES_POWER_OF_TWO, {"s": s, "t": 1}
            return ExceptionKind.NONE, {}
        if (a, b, n) not in TestDecisionSweep.TABLE:
            return ExceptionKind.NONE, {}
        if (a, b, n) == (2, 1, 6):
            kind = ExceptionKind.TRIPLE_2_1_6
        elif n == 4:
            kind = ExceptionKind.SMALL_PAIR_N4
        elif n == 6:
            kind = ExceptionKind.SMALL_PAIR_N6
        else:
            kind = ExceptionKind.PAIR_2_1_N10_12_18
        return kind, {"pair": [a, b]}

    def test_examples(self):
        c = classify_exception(Triple(5, 4, 6))
        assert c.kind is ExceptionKind.SMALL_PAIR_N6
        assert c.pair == (5, 4)
        c = classify_exception(Triple(7, 2, 2))
        assert c.kind is ExceptionKind.NONE
        assert not c.is_exception
        c = classify_exception(Triple(2, 1, 10))
        assert c.kind is ExceptionKind.PAIR_2_1_N10_12_18
        # and every coprime a <= 120, 2 <= n <= 60
        for a, b in _coprime_pairs(120):
            for n in range(2, 61):
                c = classify_exception(Triple(a, b, n))
                assert (c.kind, c.witness()) == self._expected(a, b, n), (a, b, n)

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
        # the literal's shape: every kind but NONE names a row, and
        # (2,1,6) is the only triple in two rows
        kinds = [kind for _, _, kind in EXCEPTION_TABLE]
        assert set(kinds) == set(ExceptionKind) - {ExceptionKind.NONE}
        listed = Counter((n, m) for n, members, _ in EXCEPTION_TABLE for m in members)
        assert [key for key, count in listed.items() if count > 1] == [(6, (2, 1))]

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
        with pytest.raises(AttributeError):
            c.kind = ExceptionKind.SMALL_PAIR_N4
        assert c.kind is ExceptionKind.NONE

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

    def test_incomplete_multiplier_verdict(self):
        # Phi_5(4, 3) = 781 = 11 * 71 is left whole, yet no prime beyond
        # 14 * 5 + 1 divides it
        rep = analyze(Triple(4, 3, 5), Effort(7, 0), multiplier=14)
        assert not rep.factorization_complete
        assert rep.phi_factors.cofactor == 781
        assert not rep.has_large
        assert rep.fast.has_large

    def test_incomplete_multiplier_matches_complete(self):
        for a, b in _coprime_pairs(9):
            for n in range(2, 21):
                t = Triple(a, b, n)
                for m in (1, 2, 3, 5):
                    cut = analyze(t, Effort(0, 0), m)
                    assert cut.has_large == analyze(t, Effort(), m).has_large, (t, m)

    def test_multiplier_changes_large_notion(self):
        rep = analyze(Triple(4, 3, 2), multiplier=3)
        assert rep.large_multiplier == 3
        assert rep.large_zsig_primes == ()
        assert not rep.has_large
        assert rep.fast.has_large  # plain-threshold decision unchanged

    def test_evaluates_phi_once(self, monkeypatch):
        calls = []

        def counted(n, a, b, record=None):
            calls.append((n, a, b))
            return _eval_homogeneous(n, a, b, record)

        monkeypatch.setattr("zsig.zsigmondy._eval_homogeneous", counted)
        analyze(Triple(3, 2, 10))
        assert calls == [(10, 3, 2)]
        calls.clear()
        has_large_zsigmondy_fast(Triple(3, 2, 10))
        assert calls == [(10, 3, 2)]

    def test_factoring_is_checked_against_the_decision(self, monkeypatch):
        # Phi_5(2, 1) = 31 factors completely; an order test that rejects
        # 31 leaves order-5 primes that no longer multiply to the residual
        real = zsigmondy._order_equals

        def rejects_31(q, a, b, n):
            return q != 31 and real(q, a, b, n)

        monkeypatch.setattr(zsigmondy, "_order_equals", rejects_31)
        with pytest.raises(AssertionError, match="do not multiply to"):
            analyze(Triple(2, 1, 5))

    def test_fast_agrees_with_list_on_small_range(self):
        for a, b in _coprime_pairs(9):
            for n in range(2, 21):
                rep = analyze(Triple(a, b, n))
                assert rep.fast.has_large == bool(rep.large_zsig_primes)

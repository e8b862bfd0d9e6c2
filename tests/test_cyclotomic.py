import ast
import copy
import pickle
from math import gcd as _gcd, prod
from pathlib import Path

import pytest

from zsig import arith, aurifeuillian, cli, cyclotomic
from zsig.arith import INDEX_RECORD_LIMIT, euler_phi
from zsig.cyclotomic import Triple, cyclotomic_coeffs, eval_homogeneous
from oracles import (
    factor_oracle, hom_value, mobius_value, naive_cyclotomic, perfect_power_pairs, totients,
)


def _inflate(coeffs, p):
    """Substitute x -> x^p into an ascending coefficient vector."""
    out = [0] * ((len(coeffs) - 1) * p + 1)
    for i, c in enumerate(coeffs):
        out[i * p] = c
    return out


def _polymul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


class TestCoefficients:
    def test_examples(self):
        assert cyclotomic_coeffs(1) == (-1, 1)
        assert cyclotomic_coeffs(6) == (1, -1, 1)
        assert cyclotomic_coeffs(12) == (1, 0, -1, 0, 1)

    def test_first_nontrivial_coefficient(self):
        # n = 105 is the smallest index with a coefficient outside {-1,0,1}.
        poly = cyclotomic_coeffs(105)
        assert len(poly) - 1 == 48
        assert poly[7] == -2
        for n in range(1, 105):
            assert all(abs(x) <= 1 for x in cyclotomic_coeffs(n))

    def test_matches_naive_construction(self):
        for n in range(1, 151):
            assert cyclotomic_coeffs(n) == naive_cyclotomic(n)
        for n in (210, 255, 256, 385, 420):
            assert cyclotomic_coeffs(n) == naive_cyclotomic(n)

    def test_degree_and_monic(self):
        sieve = totients(2000)
        for n in range(1, 2001):
            poly = cyclotomic_coeffs(n)
            assert len(poly) - 1 == sieve[n]
            assert poly[-1] == 1

    def test_beyond_cache_limit(self):
        poly = cyclotomic_coeffs(4372)  # 2^2 * 1093, above the record limit
        assert len(poly) - 1 == euler_phi(4372)
        assert poly[-1] == 1
        # above the limit the product is built in y = x**s and spread out;
        # the index-n vector is the rad(n) vector in x**(n / rad(n))
        for n, rad in ((4100, 410), (8190, 2730), (2310**2, 2310)):
            assert n > INDEX_RECORD_LIMIT
            lifted = _inflate(list(cyclotomic_coeffs(rad)), n // rad)
            assert list(cyclotomic_coeffs(n)) == lifted

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            cyclotomic_coeffs(0)
        with pytest.raises(ValueError):
            cyclotomic_coeffs(-3)

    def test_index_multiplication_identities(self):
        # For p | n the index-pn vector is the index-n vector in x^p;
        # for p not dividing n that substitution instead factors as the
        # product of the index-pn and index-n vectors.
        for p in (2, 3, 5, 7, 11, 13):
            for n in range(1, 61):
                lifted = _inflate(list(cyclotomic_coeffs(n)), p)
                if n % p == 0:
                    assert list(cyclotomic_coeffs(p * n)) == lifted
                else:
                    prod = _polymul(
                        list(cyclotomic_coeffs(p * n)),
                        list(cyclotomic_coeffs(n)),
                    )
                    assert prod == lifted


class TestTriple:
    def test_accepts_valid(self):
        t = Triple(4, 3, 2)
        assert (t.a, t.b, t.n) == (4, 3, 2)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            Triple(3, 3, 5)  # a must exceed b
        with pytest.raises(ValueError):
            Triple(2, 0, 5)
        with pytest.raises(ValueError):
            Triple(6, 3, 5)  # shares a factor
        with pytest.raises(ValueError):
            Triple(2, 1, 0)
        with pytest.raises(ValueError):
            Triple(-4, 1, 3)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ((2, 0, 0), "b must be at least 1"),
            ((3, 3, 0), "a must exceed b"),
            ((6, 3, 0), "a and b must be coprime"),
            ((2, 1, 0), "n must be at least 1"),
        ],
    )
    def test_messages_in_order(self, bad, message):
        # each input breaks its own rule and every later one, so the
        # message says which rule is checked first
        a, b, n = bad
        for make in (lambda: Triple(a, b, n), lambda: eval_homogeneous(n, a, b)):
            with pytest.raises(ValueError) as err:
                make()
            assert str(err.value) == message

    @pytest.mark.parametrize(
        "argv", [["analyze", "6", "3", "5"], ["eval", "5", "6", "3"]]
    )
    def test_cli_rejects_with_the_message(self, capsys, argv):
        assert cli.main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "invalid input: a and b must be coprime\n"

    @pytest.mark.parametrize("bad", [(0, 0, 0), (4, 2, 3), (2, 3, 1)])
    def test_every_construction_path_validates(self, bad):
        # a record forged past __new__, to show copy and pickle re-check it
        forged = tuple.__new__(Triple, bad)
        paths = [
            lambda: Triple(*bad),
            lambda: Triple._make(bad),
            lambda: Triple(5, 1, 3)._replace(a=bad[0], b=bad[1], n=bad[2]),
            lambda: pickle.loads(pickle.dumps(forged)),
            lambda: copy.copy(forged),
        ]
        for make in paths:
            with pytest.raises(ValueError):
                make()

    def test_valid_paths_round_trip(self):
        t = Triple(3, 2, 10)
        assert Triple._make((3, 2, 10)) == t
        assert t._replace(b=1) == Triple(3, 1, 10)
        assert pickle.loads(pickle.dumps(t)) == t
        assert copy.copy(t) == t

    def test_immutable(self):
        t = Triple(3, 2, 10)
        with pytest.raises(AttributeError):
            t.a = 5
        with pytest.raises(AttributeError):
            t.extra = 1

    def test_repr(self):
        assert repr(Triple(3, 2, 10)) == "Triple(a=3, b=2, n=10)"


class TestEvaluation:
    def test_examples(self):
        assert eval_homogeneous(1, 4, 3) == 1
        assert eval_homogeneous(2, 4, 3) == 7
        assert eval_homogeneous(1, 2, 1) == 1
        assert eval_homogeneous(6, 2, 1) == 3
        assert eval_homogeneous(10, 2, 1) == 11
        assert eval_homogeneous(12, 2, 1) == 13
        assert eval_homogeneous(18, 2, 1) == 57
        assert eval_homogeneous(4, 3, 1) == 10
        assert eval_homogeneous(6, 5, 4) == 21
        assert eval_homogeneous(12, 3, 2) == 61
        assert eval_homogeneous(21, 2, 1) == 2359

    def test_matches_naive_oracle(self):
        for a in range(2, 9):
            for b in range(1, a):
                if _gcd(a, b) != 1:
                    continue
                for n in range(1, 31):
                    assert eval_homogeneous(n, a, b) == hom_value(n, a, b)

    def test_evaluators_agree(self):
        for a in range(2, 9):
            for b in range(1, a):
                if _gcd(a, b) != 1:
                    continue
                for n in range(1, 41):
                    assert eval_homogeneous(n, a, b) == mobius_value(n, a, b)

    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError):
            eval_homogeneous(5, 6, 3)

    def test_oracles_reject_a_planted_record(self, monkeypatch):
        # n = 15 recorded as if prime: eval_homogeneous follows the record,
        # and the oracles, which read none of it, give the true value
        planted = arith._IndexRecords({15: (True, (15,), (1,), 15, ((15, 1),))})
        monkeypatch.setattr(arith, "_index_records", planted)
        monkeypatch.setattr(cyclotomic, "_index_records", planted)
        assert eval_homogeneous(15, 3, 2) == 14_316_139
        assert hom_value(15, 3, 2) == mobius_value(15, 3, 2) == 3_571

    def test_oracles_import_nothing_from_zsig(self):
        tree = ast.parse(Path(__file__).with_name("oracles.py").read_text())
        names = [
            alias.name if isinstance(node, ast.Import) else node.module or ""
            for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        ]
        assert "random" in names and not [n for n in names if n.split(".")[0] == "zsig"]


def _horner_homogeneous(coeffs, a, b):
    """b**deg * f(a/b) for an ascending coefficient vector, by Horner."""
    acc = coeffs[-1]
    bpow = 1
    for c in reversed(coeffs[:-1]):
        bpow *= b
        acc = acc * a + c * bpow
    return acc


class TestDivisorProduct:
    def test_matches_horner_on_coefficients(self):
        for a in range(2, 31):
            for b in range(1, a):
                if _gcd(a, b) != 1:
                    continue
                for n in range(1, 61):
                    expected = _horner_homogeneous(cyclotomic_coeffs(n), a, b)
                    assert eval_homogeneous(n, a, b) == expected

    def test_non_squarefree_and_uncached_indices(self):
        # 4100 = 2^2 * 5^2 * 41 lies above the cache limit
        assert 4100 > INDEX_RECORD_LIMIT
        for n in (8, 54, 64, 72, 4100):
            for a, b in ((2, 1), (3, 2), (7, 1), (11, 6)):
                assert eval_homogeneous(n, a, b) == hom_value(n, a, b)

    def test_split_cache_stops_at_limit(self):
        # one per-index record holds the exponent splits, bounded for even
        # and odd indices alike; cyclotomic's only module-level dict is
        # that record, imported from arith
        above = {4100, 4101, 4102, 8190}
        for n in above:
            assert eval_homogeneous(n, 3, 2) == mobius_value(n, 3, 2)
        cyclotomic_coeffs(4372)
        eval_homogeneous(INDEX_RECORD_LIMIT, 3, 2)
        eval_homogeneous(INDEX_RECORD_LIMIT - 1, 3, 2)
        assert not above & cyclotomic._index_records.keys()
        assert {INDEX_RECORD_LIMIT, INDEX_RECORD_LIMIT - 1} <= cyclotomic._index_records.keys()
        assert max(cyclotomic._index_records) <= INDEX_RECORD_LIMIT
        caches = [
            k for k, v in vars(cyclotomic).items()
            if isinstance(v, dict) and not k.startswith("__")
        ]
        assert caches == ["_index_records"]

    def test_coefficients_read_every_index_record(self, monkeypatch):
        # the coefficient build reads n's own record at every index, odd
        # or even, squarefree or not
        monkeypatch.setattr(cyclotomic, "_index_records", arith._IndexRecords())
        for n in range(1, 301):
            cyclotomic_coeffs(n)
        assert sorted(cyclotomic._index_records) == list(range(1, 301))

    @pytest.mark.parametrize("n, split", [(9, ((9,), (2,))), (10, ((5,), (2,)))])
    def test_inexact_division_raises(self, monkeypatch, n, split):
        # a wrong split is caught by the exact division, in either form,
        # by the evaluator and by the coefficient build alike
        odd, _, _, top, factors = cyclotomic._index_records[n]
        record = (odd, *split, top, factors)
        monkeypatch.setattr(cyclotomic, "_index_records", arith._IndexRecords({n: record}))
        with pytest.raises(ArithmeticError, match="divisor product did not divide exactly"):
            eval_homogeneous(n, 3, 2)
        with pytest.raises(AssertionError, match="binomial division left a remainder"):
            cyclotomic_coeffs(n)


class TestEvenIndexForm:
    """At even n = 2**k * m, m odd, the divisor product runs over the
    squarefree d | m with terms a**(n/2d) + b**(n/2d); the oracles that
    keep the a**e - b**e form, and the naive coefficients, check it."""

    def test_matches_other_evaluators(self):
        # holds n = 2, the powers of two, 2 * p**k and 4 * odd
        for n in range(1, 257):
            for a in range(2, 11):
                for b in range(1, a):
                    if _gcd(a, b) != 1:
                        continue
                    assert cyclotomic._eval_homogeneous(n, a, b) == hom_value(n, a, b)

    def test_uncached_indices(self):
        assert min(4100, 4102, 8190) > INDEX_RECORD_LIMIT
        for n in (4100, 4102, 8190):
            for a, b in ((2, 1), (3, 2), (7, 4)):
                assert cyclotomic._eval_homogeneous(n, a, b) == mobius_value(n, a, b)

    def test_even_coefficients_match_naive(self):
        for n in range(2, 301, 2):
            assert cyclotomic_coeffs(n) == naive_cyclotomic(n)


class TestValidation:
    # one input of each invalid kind, in the order the checks run
    BAD = [(2, 0, 5), (3, 3, 5), (6, 3, 5), (2, 1, 0)]

    def test_evaluators_share_triple_messages(self):
        messages = set()
        for a, b, n in self.BAD:
            with pytest.raises(ValueError) as expected:
                Triple(a, b, n)
            messages.add(str(expected.value))
            with pytest.raises(ValueError) as raised:
                eval_homogeneous(n, a, b)
            assert str(raised.value) == str(expected.value)
        assert len(messages) == len(self.BAD)


def _divisor_product(n, a, b):
    # the values at every d | n, which multiply to a**n - b**n
    return prod(eval_homogeneous(d, a, b) for d in range(1, n + 1) if n % d == 0)


class TestProductIdentity:
    def test_examples(self):
        assert _divisor_product(6, 2, 1) == 63
        assert _divisor_product(12, 3, 2) == 3**12 - 2**12
        assert _divisor_product(1, 5, 2) == 3

    def test_small_sweep(self):
        for a in range(2, 7):
            for b in range(1, a):
                if _gcd(a, b) != 1:
                    continue
                for n in range(1, 25):
                    assert _divisor_product(n, a, b) == a**n - b**n


class TestPowerPieces:
    def test_examples(self):
        assert cyclotomic._power_pieces(19, 25, 4) == [(38, 5, 2), (19, 5, 2)]
        # 16 = 4**2 = 2**4, and 2 | 2n after the first split
        assert cyclotomic._power_pieces(29, 16, 1) == [(116, 2, 1), (58, 2, 1), (29, 2, 1)]
        assert cyclotomic._power_pieces(6, 27, 8) == [(18, 3, 2)]
        # no common exponent: 9 = 3**2 and 8 = 2**3
        assert cyclotomic._power_pieces(5, 9, 8) == [(5, 9, 8)]
        assert cyclotomic._power_pieces(7, 30, 1) == [(7, 30, 1)]

    def test_pieces_multiply_to_the_value(self):
        # Phi_n(s**p, t**p) = Phi_np(s, t) * Phi_n(s, t) for p not dividing
        # n, and Phi_np(s, t) for p | n, checked against the naive oracle
        pairs = perfect_power_pairs(30)
        assert len(pairs) == 17 and (9, 8) in pairs and (27, 16) in pairs
        for a, b in pairs:
            for n in range(2, 41):
                pieces = cyclotomic._power_pieces(n, a, b)
                prod = 1
                for m, s, t in pieces:
                    prod *= cyclotomic._eval_homogeneous(m, s, t)
                assert prod == hom_value(n, a, b), (a, b, n, pieces)


def _schinzel(a, b, n):
    """Whether Phi_n(a, b) has Aurifeuillian factors, by Schinzel's
    condition on k, the squarefree part of a*b, found by factoring."""
    k = 1
    for p, e in factor_oracle(a * b).items():
        k *= p ** (e % 2)
    if k == 1:
        return False
    base = k if k % 4 == 1 else 2 * k
    return n % base == 0 and n // base % 2 == 1


class TestAurifeuillianSplit:
    def test_polynomial_identity(self):
        # Phi_{n'}(x) = C(x)**2 - k*x*D(x)**2 for every squarefree k < 200
        checked = 0
        for k in range(2, 200):
            if any(k % (p * p) == 0 for p in range(2, 15)):
                continue
            base = k if k % 4 == 1 else 2 * k
            gamma, delta = aurifeuillian.coefficients(k, base)
            d = len(gamma) - 1
            c = [0] * (2 * d + 1)
            for i, gi in enumerate(gamma):
                for j, gj in enumerate(gamma):
                    c[2 * d - i - j] += gi * gj
            for i, di in enumerate(delta):
                for j, dj in enumerate(delta):
                    c[2 * d - 1 - i - j] -= k * di * dj
            assert tuple(c) == naive_cyclotomic(base), k
            checked += 1
        assert checked == 121

    def test_pieces_multiply_to_the_value(self):
        schinzel = ones = 0
        for a in range(2, 41):
            for b in range(1, a):
                if _gcd(a, b) != 1:
                    continue
                for n in range(2, 91):
                    if not _schinzel(a, b, n):
                        continue
                    value = hom_value(n, a, b)
                    pieces = cyclotomic._aurifeuillian_pieces(n, a, b, value)
                    assert all(v > 1 for v in pieces), (a, b, n, pieces)
                    assert prod(pieces) == value, (a, b, n, pieces)
                    ones += len(pieces) == 1
                    schinzel += 1
        assert schinzel == 558
        # a factor equal to 1 is dropped, at (2,1,4) and (3,2,12) among others
        assert ones == 5
        assert cyclotomic._aurifeuillian_pieces(4, 2, 1, 5) == [5]
        assert cyclotomic._aurifeuillian_pieces(12, 3, 2, 61) == [61]

    def test_pieces_keep_their_order(self):
        # analyze factors the pieces' remainders on one rho stack under one
        # budget, so L before M is part of an incomplete report
        cases = {
            (5, 1, 15): [1741, 181],
            (3, 1, 18): [19, 37],
            (2, 1, 20): [41, 5],
            (16, 13, 39): [324873334049941, 105707360404621],
        }
        for (a, b, n), pieces in cases.items():
            value = cyclotomic._eval_homogeneous(n, a, b)
            assert cyclotomic._aurifeuillian_pieces(n, a, b, value) == pieces, (a, b, n)

    def test_never_fires_off_the_condition(self):
        for a in range(2, 41):
            for b in range(1, a):
                if _gcd(a, b) != 1:
                    continue
                for n in range(2, 91):
                    if not _schinzel(a, b, n):
                        value = cyclotomic._eval_homogeneous(n, a, b)
                        assert cyclotomic._aurifeuillian_pieces(n, a, b, value) == [value]


def _strictly_bounded(n, a, b):
    # (a - b)**phi < Phi_n(a, b) < (a + b)**phi, phi the naive degree
    phi = len(naive_cyclotomic(n)) - 1
    return (a - b) ** phi < eval_homogeneous(n, a, b) < (a + b) ** phi


class TestBounds:
    def test_examples(self):
        assert _strictly_bounded(6, 2, 1)
        assert _strictly_bounded(3, 10, 1)
        assert _strictly_bounded(5, 2, 1)

    def test_rejects_small_index(self):
        # below n = 3 the value is a bound: Phi_1 = a - b, Phi_2 = a + b
        assert not _strictly_bounded(1, 2, 1)
        assert not _strictly_bounded(2, 3, 1)

    def test_sweep(self):
        for a in range(2, 13):
            for b in range(1, a):
                if _gcd(a, b) != 1:
                    continue
                for n in range(3, 31):
                    assert _strictly_bounded(n, a, b)

    def test_strictness_content(self):
        # The inequality chain is strict on both sides; spot-check numbers.
        a, b, n = 5, 2, 7
        v = eval_homogeneous(n, a, b)
        d = euler_phi(n)
        assert (a - b) ** d < v < (a + b) ** d


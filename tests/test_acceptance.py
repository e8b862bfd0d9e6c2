"""Acceptance gate: one test per shipping criterion, exact arithmetic only.

Each test prints a single ACCEPTANCE line (visible with pytest -s or in the
failure output) and asserts the criterion as stated, at full scale and zero
tolerance.  Two parts of criterion 1 are known not to hold; those asserts
are kept faithful rather than weakened, so this file is expected to show
exactly one red test on a correct build.  The README's "known divergences"
section carries the analysis.
"""

import json
from collections import Counter
from math import gcd as _gcd
from pathlib import Path

import pytest

from zsig.arith import totient_sieve
from zsig.cli import ScanConfig, _scan_exit_code, main, run_scan
from zsig.cyclotomic import (
    Triple,
    bounds_check,
    eval_homogeneous,
    eval_mobius,
    eval_recursive,
    product_identity_check,
)
from zsig.valuation import vp_cyclotomic
from zsig.arith import divisors, vp
from zsig.zsigmondy import has_large_zsigmondy_fast, sufficiency_check

A_MAX, N_MAX = 30, 36
TIME_LIMIT = 300.0


def _coprime_pairs(a_max):
    for a in range(2, a_max + 1):
        for b in range(1, a):
            if _gcd(a, b) == 1:
                yield a, b


def _odd_part(x):
    while x % 2 == 0:
        x //= 2
    return x


@pytest.fixture(scope="module")
def reference_scan():
    """The criterion-1 scan, shared by every criterion that reads rows."""
    config = ScanConfig(a_max=A_MAX, n_max=N_MAX)
    report, rows = run_scan(config)
    return report, rows


def _expected_exception_set():
    expected = set()
    for a, b in _coprime_pairs(A_MAX):
        if _odd_part(a + b) in (1, 3):
            expected.add((a, b, 2))
    expected |= {(2, 1, 4), (3, 1, 4)}
    expected |= {(2, 1, 6), (3, 1, 6), (3, 2, 6), (5, 4, 6)}
    expected |= {(2, 1, 10), (2, 1, 12), (2, 1, 18)}
    return {(a, b, n) for (a, b, n) in expected if a <= A_MAX and n <= N_MAX}


@pytest.mark.slow
def test_criterion_1_reference_range_scan(reference_scan):
    report, rows = reference_scan
    problems = []

    found = {(e["a"], e["b"], e["n"]) for e in report["exceptions"]}
    expected = _expected_exception_set()
    if found != expected:
        problems.append(
            f"exception set differs: extra={sorted(found - expected)} "
            f"missing={sorted(expected - found)}"
        )

    mismatches = [(m["a"], m["b"], m["n"]) for m in report["mismatches"]]
    if mismatches:
        problems.append(
            f"{len(mismatches)} table mismatches (triples with no large "
            f"prime that fit no exception row): {mismatches}"
        )

    n_inc = report["summary"]["incomplete_count"]
    budget = report["config"]["rho_step_budget"]
    if n_inc:
        per_n = Counter(e["n"] for e in report["incomplete"])
        by_n = ", ".join(f"n = {n}: {c}" for n, c in sorted(per_n.items()))
        problems.append(
            f"{n_inc} triples left with an unfactored composite at the "
            f"default budget of {budget} rho steps per value ({by_n})"
        )

    exit_code = _scan_exit_code(report)
    if exit_code != 0:
        problems.append(f"scan exit code {exit_code}, criterion wants 0")

    elapsed = report["summary"]["elapsed_seconds"]
    if elapsed > TIME_LIMIT:
        problems.append(f"scan took {elapsed}s > {TIME_LIMIT}s")

    status = "FAIL" if problems else "PASS"
    print(
        f"\nACCEPTANCE criterion 1 [{status}]: scan a<={A_MAX} n<={N_MAX}, "
        f"{report['summary']['triples_scanned']} triples in {elapsed}s; "
        + ("; ".join(problems) if problems else "all checks hold")
    )
    assert not problems, (
        "criterion 1 does not hold as stated:\n  - "
        + "\n  - ".join(problems)
        + "\nThe exception-set portion above is the part that can hold; "
        "the mismatch triples are genuine counterexamples to the table "
        "and the incomplete triples are genuinely hard factorizations "
        f"(beyond {budget} rho steps each).  See README, known divergences."
    )


def test_criterion_2_boundary_values(capsys):
    cases = [
        ((4, 3, 1), 10),
        ((6, 5, 4), 21),
        ((10, 2, 1), 11),
        ((12, 2, 1), 13),
        ((18, 2, 1), 57),
    ]
    for (n, a, b), want in cases:
        code = main(["eval", str(n), str(a), str(b)])
        out = capsys.readouterr().out.strip()
        assert code == 0 and out == str(want), (n, a, b, out, want)
    print(
        "\nACCEPTANCE criterion 2 [PASS]: 5 boundary values exact "
        "via the eval command"
    )


def test_criterion_3_valuation_oracle_suite():
    import time

    primes = [p for p in range(2, 100) if all(p % d for d in range(2, p))]
    started = time.monotonic()
    checked = 0
    for a, b in _coprime_pairs(15):
        for n in range(1, 61):
            value = eval_homogeneous(n, a, b)
            for p in primes:
                if p != 2 and (a % p == 0 or b % p == 0):
                    continue
                assert vp_cyclotomic(p, a, b, n) == vp(value, p), (p, a, b, n)
                checked += 1
    elapsed = time.monotonic() - started
    print(
        f"\nACCEPTANCE criterion 3 [PASS]: {checked} closed-form "
        f"valuations equal the direct exponent, {elapsed:.1f}s "
        f"(limit 120s)"
    )
    assert elapsed < 120.0


def test_criterion_4_evaluator_agreement():
    pairs = 0
    for a, b in _coprime_pairs(20):
        pairs += 1
        vals = {}
        power_a, power_b = 1, 1
        for n in range(1, 121):
            power_a *= a
            power_b *= b
            v = eval_homogeneous(n, a, b)
            vals[n] = v
            assert eval_mobius(n, a, b) == v, (a, b, n)
            assert eval_recursive(n, a, b) == v, (a, b, n)
            prod = 1
            for d in divisors(n):
                prod *= vals[d]
            assert prod == power_a - power_b, (a, b, n)
            assert product_identity_check(n, a, b), (a, b, n)
    print(
        f"\nACCEPTANCE criterion 4 [PASS]: three evaluators and the "
        f"divisor-product identity agree on {pairs} pairs x 120 exponents"
    )


def test_criterion_5_inequality_suites():
    # strict two-sided bounds on every reference-range triple with n >= 3
    for a, b in _coprime_pairs(A_MAX):
        for n in range(3, N_MAX + 1):
            assert bounds_check(n, a, b), (a, b, n)

    # totient lower bound, integer form: 4 * phi(n)^2 >= n up to a million
    sieve = totient_sieve(10**6)
    for n in range(1, 10**6 + 1):
        assert 4 * sieve[n] * sieve[n] >= n, n

    # sufficiency implies existence, and only one direction holds
    for a, b in _coprime_pairs(12):
        for n in range(3, 31):
            t = Triple(a, b, n)
            if sufficiency_check(t):
                assert has_large_zsigmondy_fast(t).has_large, (a, b, n)
    boundary = Triple(2, 1, 18)
    assert not sufficiency_check(boundary)
    assert eval_homogeneous(18, 2, 1) == 19 * 3  # exactly the threshold
    witness = Triple(2, 1, 3)
    assert not sufficiency_check(witness)
    assert has_large_zsigmondy_fast(witness).has_large
    print(
        "\nACCEPTANCE criterion 5 [PASS]: strict value bounds on the "
        "reference range, totient bound to 10^6, sufficiency implication "
        "with boundary (2,1,18) and non-equivalence witness (2,1,3)"
    )


@pytest.mark.slow
def test_criterion_6_classic_exceptions(reference_scan):
    _, rows = reference_scan
    no_zsig = {
        (r.a, r.b, r.n) for r in rows if not r.has_zsigmondy
    }
    expected = {(2, 1, 6)} | {
        (a, b, 2)
        for a, b in _coprime_pairs(A_MAX)
        if _odd_part(a + b) == 1
    }
    assert no_zsig == expected, (
        sorted(no_zsig - expected),
        sorted(expected - no_zsig),
    )
    print(
        f"\nACCEPTANCE criterion 6 [PASS]: order-n primes absent exactly "
        f"on (2,1,6) and the {len(expected) - 1} power-of-two sums at n=2"
    )


@pytest.mark.slow
def test_criterion_7_fast_decision_equivalence(reference_scan):
    _, rows = reference_scan
    complete = [r for r in rows if r.complete]
    partial = [r for r in rows if not r.complete]
    for r in complete:
        assert r.fast_has_large == bool(r.large), (
            r.a, r.b, r.n,
        )
    # where the factorization did not finish, the unfactored residual is a
    # product of order-n primes each exceeding n + 1, so the fast decision
    # must say yes there
    for r in partial:
        assert r.fast_has_large, (r.a, r.b, r.n)
        assert r.residual > r.n + 1
    print(
        f"\nACCEPTANCE criterion 7 [PASS]: factorization-free decision "
        f"matches the factored list on all {len(complete)} completed "
        f"triples ({len(partial)} incomplete ones checked for consistency; "
        f"their shortfall is criterion 1's finding, not a disagreement)"
    )


@pytest.mark.slow
def test_reference_scan_matches_its_record(reference_scan):
    # README's figures are read from reference_scan.json; the scan must
    # still produce it, apart from the run's own time and worker count
    report, _ = reference_scan
    path = Path(__file__).resolve().parent.parent / "reference_scan.json"
    record = json.loads(path.read_text())
    fresh = json.loads(json.dumps(report))
    for doc in (record, fresh):
        del doc["summary"]["elapsed_seconds"]
        del doc["config"]["parallelism"]
    assert fresh == record

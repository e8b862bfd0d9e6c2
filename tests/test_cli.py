import gc
import inspect
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from zsig import arith, cli, zsigmondy
from zsig.cli import build_parser, main, run_scan
from zsig.cyclotomic import Triple
from zsig.zsigmondy import ExceptionKind, analyze, classify_prime_divisor

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main([str(x) for x in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCoeffs:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "coeffs", "6")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "1 -1 1"
        assert "degree 2" in lines[1]

    def test_text_order_twelve(self, capsys):
        code, out, _ = run(capsys, "coeffs", "12")
        assert code == 0
        assert out.splitlines() == ["1 0 -1 0 1", "# degree 4  phi 4"]

    def test_json(self, capsys):
        code, out, _ = run(capsys, "coeffs", "105", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 105
        assert payload["degree"] == 48
        assert payload["coeffs"][7] == -2
        assert payload["euler_phi"] == 48

    def test_rejects_zero(self, capsys):
        code, out, err = run(capsys, "coeffs", "0")
        assert code == 3
        assert out == ""
        assert err == "invalid input: n must be a positive integer\n"

    def test_rejects_garbage(self, capsys):
        code, _, _ = run(capsys, "coeffs", "six")
        assert code == 3


class TestEval:
    @pytest.mark.parametrize(
        "n,a,b,value",
        [
            (4, 3, 1, 10),
            (6, 5, 4, 21),
            (10, 2, 1, 11),
            (12, 2, 1, 13),
            (18, 2, 1, 57),
            (1, 2, 1, 1),
            (2, 4, 3, 7),
        ],
    )
    def test_values(self, capsys, n, a, b, value):
        code, out, _ = run(capsys, "eval", n, a, b)
        assert code == 0
        assert out.strip() == str(value)

    def test_prints_bare_value(self, capsys):
        code, out, _ = run(capsys, "eval", "12", "3", "2")
        assert code == 0
        assert out.strip() == "61"

    def test_rejects_non_coprime(self, capsys):
        code, _, _ = run(capsys, "eval", "5", "6", "3")
        assert code == 3

    def test_rejects_b_geq_a(self, capsys):
        code, _, _ = run(capsys, "eval", "5", "3", "3")
        assert code == 3


class TestAnalyze:
    def test_large_prime_exit_zero(self, capsys):
        code, out, _ = run(capsys, "analyze", "4", "3", "2")
        assert code == 0
        assert "7" in out

    def test_module_entry_point(self, capsys):
        # python -m zsig runs __main__.py, which must print what main does
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.run(
            [sys.executable, "-m", "zsig", "analyze", "4", "3", "2"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        code, out, _ = run(capsys, "analyze", "4", "3", "2")
        assert proc.returncode == code == 0
        assert proc.stdout == out

    def test_exception_exit_one(self, capsys):
        code, out, _ = run(capsys, "analyze", "2", "1", "6")
        assert code == 1
        assert "exception" in out

    def test_bad_triple_exit_three(self, capsys):
        code, _, _ = run(capsys, "analyze", "2", "2", "3")
        assert code == 3

    def test_n_one_rejected(self, capsys):
        code, _, _ = run(capsys, "analyze", "2", "1", "1")
        assert code == 3

    def test_mismatch_line_rendered(self, capsys):
        code, out, _ = run(capsys, "analyze", "5", "1", "6")
        assert code == 1  # no large prime
        assert "MISMATCH" in out

    def test_mismatch_absent_for_agreeing_triple(self, capsys):
        _, out, _ = run(capsys, "analyze", "3", "1", "6")
        assert "MISMATCH" not in out

    def test_incomplete_exit_two(self, capsys):
        code, out, _ = run(
            capsys,
            "analyze", "13", "4", "31",
            "--trial-bound", "1000", "--rho-budget", "100",
        )
        assert code == 2
        assert "incomplete" in out

    def test_multiplier_flag(self, capsys):
        code, out, _ = run(capsys, "analyze", "4", "3", "2", "--M", "3")
        assert code == 1  # 7 is not beyond 3*2+1
        assert "MISMATCH" not in out

    def test_table_is_judged_at_m_one(self, capsys):
        # the table speaks of M = 1, where 7 > 2 + 1 is large, so a larger
        # --M leaves its agreement as it is
        code, out, _ = run(capsys, "analyze", "4", "3", "2", "--M", "3", "--format", "json")
        assert code == 1
        payload = json.loads(out)
        assert (payload["has_large"], payload["fast"]["has_large"]) == (False, True)
        assert payload["table_agrees"] is True

    def test_mismatch_line_rendered_at_any_multiplier(self, capsys):
        # (5,1,6) disagrees with the table at M = 1, and --M does not hide it
        code, out, _ = run(capsys, "analyze", "5", "1", "6", "--M", "2")
        assert code == 1
        assert out.splitlines()[-1] == (
            "MISMATCH: the exception table predicts a large prime"
            " but computation shows otherwise"
        )

    def test_text_classifies_validated_primes(self, monkeypatch):
        # each listed prime's line is classify_prime_divisor's answer, and
        # rendering tests no prime and evaluates no value again, since the
        # report's Factorization validated its primes; (30,1,29) also
        # lists 29 = P(29), whose case goes through the valuation
        t = Triple(30, 1, 29)
        rep = analyze(t)
        expected = []
        for p, _ in rep.phi_factors.factors:
            c = classify_prime_divisor(p, t)
            expected.append(f"  {p}: {c.case.value} (order {c.k}, beta {c.beta})")
        assert "  29: largest_prime (order 1, beta 1)" in expected
        calls = []

        def counted(fn):
            return lambda *args: calls.append(args) or fn(*args)

        monkeypatch.setattr(zsigmondy, "is_prime", counted(zsigmondy.is_prime))
        monkeypatch.setattr(zsigmondy, "_eval_homogeneous", counted(zsigmondy._eval_homogeneous))
        text = cli._render_analyze_text(rep)
        assert [line for line in text.splitlines() if line.startswith("  ")] == expected
        assert calls == []

    def test_incomplete_multiplier_verdict(self, capsys):
        # 781 = 11 * 71 stays unsplit, yet no prime beyond 14 * 5 + 1 exists
        code, out, _ = run(
            capsys,
            "analyze", "4", "3", "5", "--M", "14",
            "--trial-bound", "7", "--rho-budget", "0", "--format", "json",
        )
        assert code == 2
        payload = json.loads(out)
        assert payload["cofactor"] == 781
        assert payload["has_large"] is False

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "analyze", "3", "1", "6", "--format", "json")
        assert code == 1
        payload = json.loads(out)
        assert list(payload) == [
            "a", "b", "n", "phi_value", "zsig", "large", "exception_kind",
            "witness", "is_exception", "has_zsigmondy", "has_large",
            "complete", "table_agrees", "factors", "cofactor", "fast",
            "large_multiplier",
        ]
        assert payload["phi_value"] == 7
        assert payload["zsig"] == [[7, 1]]
        assert payload["large"] == []
        assert payload["exception_kind"] == "small_pair_n6"
        assert payload["table_agrees"] is True
        assert payload["factors"] == [[7, 1]]
        assert payload["fast"]["has_large"] is False
        assert list(payload["fast"]) == [
            "has_large", "removed_prime", "removed_exponent", "residual", "threshold",
        ]

    @pytest.mark.parametrize(
        "flag,message",
        [
            ("--trial-bound", "trial bound must be nonnegative"),
            ("--rho-budget", "rho budget must be nonnegative"),
        ],
    )
    def test_negative_budget_exit_three(self, capsys, flag, message):
        code, out, err = run(capsys, "analyze", "3", "1", "5", flag, "-1")
        assert code == 3
        assert out == ""
        assert err == f"invalid input: {message}\n"

    def test_library_default_effort_is_the_cli_default(self):
        # analyze called without an effort gives up where zsig analyze does
        args = build_parser().parse_args(["analyze", "4", "3", "2"])
        default = inspect.signature(analyze).parameters["effort"].default
        assert default == arith.Effort(args.trial_bound, args.rho_budget)

    def test_nonpositive_multiplier_exit_three(self, capsys):
        code, out, err = run(capsys, "analyze", "4", "3", "2", "--M", "0")
        assert code == 3
        assert out == ""
        assert err == "invalid input: M must be a positive integer\n"

    @pytest.mark.parametrize(
        "triple,fast",
        [
            ((5, 1, 2), {"has_large": False, "removed_prime": 2,
                         "removed_exponent": 1, "residual": 3, "threshold": 3}),
            ((3, 2, 10), {"has_large": False, "removed_prime": 5,
                          "removed_exponent": 1, "residual": 11, "threshold": 11}),
            ((30, 1, 29), {"has_large": True, "removed_prime": 29,
                           "removed_exponent": 1,
                           "residual": 8160568057655529131985731272294887039239,
                           "threshold": 30}),
        ],
    )
    def test_json_fast_object(self, capsys, triple, fast):
        _, out, _ = run(capsys, "analyze", *triple, "--format", "json")
        assert json.loads(out)["fast"] == fast

    def test_incomplete_json_carries_partial(self, capsys):
        code, out, _ = run(
            capsys,
            "analyze", "13", "4", "31",
            "--trial-bound", "1000", "--rho-budget", "100",
            "--format", "json",
        )
        assert code == 2
        payload = json.loads(out)
        assert payload["complete"] is False
        assert payload["cofactor"] > 1
        assert payload["fast"]["has_large"] is True


class TestScan:
    def test_clean_range_exit_zero(self, capsys):
        code, out, _ = run(capsys, "scan", "--a-max", "4", "--n-max", "9")
        assert code == 0
        report = json.loads(out)
        assert set(report) == {
            "config", "summary", "exceptions", "mismatches", "incomplete",
        }
        assert report["summary"]["triples_scanned"] == 40  # 5 pairs * 8 exponents
        assert report["summary"]["mismatch_count"] == 0
        assert report["summary"]["incomplete_count"] == 0
        found = {(e["a"], e["b"], e["n"]) for e in report["exceptions"]}
        assert found == {
            (2, 1, 2), (3, 1, 2),
            (2, 1, 4), (3, 1, 4),
            (2, 1, 6), (3, 1, 6), (3, 2, 6),
        }

    def test_mismatch_range_exit_one(self, capsys):
        code, out, _ = run(capsys, "scan", "--a-max", "5", "--n-max", "10")
        assert code == 1
        report = json.loads(out)
        got = [(m["a"], m["b"], m["n"]) for m in report["mismatches"]]
        assert got == [(3, 2, 10), (5, 1, 6)]
        for m in report["mismatches"]:
            assert m["table_predicts_large"] is True
            assert m["computed_has_large"] is False

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, "scan", "--a-max", "4", "--n-max", "8")
        _, out2, _ = run(capsys, "scan", "--a-max", "4", "--n-max", "8")
        r1, r2 = json.loads(out1), json.loads(out2)
        r1["summary"].pop("elapsed_seconds")
        r2["summary"].pop("elapsed_seconds")
        assert r1 == r2

    def test_parallel_matches_serial(self, capsys):
        _, out1, _ = run(capsys, "scan", "--a-max", "5", "--n-max", "8", "--jobs", "1")
        _, out2, _ = run(capsys, "scan", "--a-max", "5", "--n-max", "8", "--jobs", "2")
        r1, r2 = json.loads(out1), json.loads(out2)
        r1["summary"].pop("elapsed_seconds")
        r2["summary"].pop("elapsed_seconds")
        r1["config"].pop("parallelism")
        r2["config"].pop("parallelism")
        assert r1 == r2

    def test_parallel_csv_matches_serial(self, capsys):
        # the CSV lists every row, so this pins the order of pooled rows
        argv = ["scan", "--a-max", "7", "--n-max", "12", "--format", "csv"]
        serial = run(capsys, *argv, "--jobs", "1")
        pooled = run(capsys, *argv, "--jobs", "2")
        assert serial[1].count("\n") == 1 + 17 * 11  # header, 17 pairs * 11 exponents
        assert pooled == serial

    def test_pool_gets_no_more_workers_than_pairs(self, capsys, monkeypatch):
        # a fork pool starts all its workers at the first submit, so --jobs
        # is capped by the number of (a, b) pairs, and one pair runs
        # without a pool; the fake maps in-process and starts nothing
        import concurrent.futures

        created = []

        class FakePool:
            def __init__(self, max_workers):
                created.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return None

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        argv = ["scan", "--n-max", "5"]
        serial = json.loads(run(capsys, *argv, "--a-max", "2", "--jobs", "1")[1])
        one_pair = json.loads(run(capsys, *argv, "--a-max", "2", "--jobs", "8")[1])
        assert created == []
        five_pairs = json.loads(run(capsys, *argv, "--a-max", "4", "--jobs", "8")[1])
        assert created == [5]
        assert one_pair["config"]["parallelism"] == five_pairs["config"]["parallelism"] == 8
        for report in (serial, one_pair):
            report["summary"].pop("elapsed_seconds")
            report["config"].pop("parallelism")
        assert one_pair == serial

    def test_jobs_go_out_largest_a_first(self, monkeypatch):
        # the costliest pairs go out first, so that a pool does not end on
        # one worker's long tail; the rows still come back in (a, b, n) order
        handed = []
        real = cli._scan_pair

        def recorded(job):
            handed.append(job[:2])
            return real(job)

        monkeypatch.setattr(cli, "_scan_pair", recorded)
        _, rows = run_scan(9, 7)
        pairs = cli.coprime_pairs(9)
        assert handed == pairs[::-1]
        assert handed[:3] == [(9, 8), (9, 7), (9, 5)]
        keys = [(r.a, r.b, r.n) for r in rows]
        assert keys == [(a, b, n) for a, b in pairs for n in range(2, 8)]

    def test_row_memory(self):
        # the scan's parent holds every row and pool workers fork from that
        # heap; the bound sits between tuple rows (about 360-370 bytes each
        # on this range) and 15-key dict rows (about 820)
        tracemalloc.start()
        try:
            _, rows = run_scan(12, 12)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
            count = len(rows)
            del rows
            gc.collect()
            held -= tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert count == 495  # 45 pairs * 11 exponents
        assert held < 630 * count

    def test_rows_share_the_exception_case(self):
        # a row holds the table's ExceptionKind member, the one object
        # every row of that kind shares, and no witness of its own
        _, rows = run_scan(12, 12)
        plain = [r for r in rows if not r.exception.is_exception]
        assert len(plain) == 478
        assert all(r.exception is ExceptionKind.NONE for r in plain)
        listed = [r.exception for r in rows if r.exception.is_exception]
        assert [type(e) for e in listed] == [ExceptionKind] * 17

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "scan", "--a-max", "4", "--n-max", "6", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "a,b,n,phi_value,zsig_primes,large_primes,exception,exit-status"
        rows = {tuple(line.split(",")[:3]): line.split(",") for line in lines[1:]}
        r = rows[("2", "1", "4")]
        assert r[3] == "5"
        assert r[4] == "5"
        assert r[5] == ""
        assert r[6] == "small_pair_n4"
        assert r[7] == "1"
        r = rows[("4", "3", "2")]
        assert r[3] == "7"
        assert r[4] == "7"
        assert r[5] == "7"
        assert r[6] == "none"
        assert r[7] == "0"

    def test_csv_exponent_rendering(self, capsys):
        code, out, _ = run(
            capsys, "scan", "--a-max", "7", "--n-max", "2", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        row = next(l for l in lines if l.startswith("7,2,2,"))
        cols = row.split(",")
        assert cols[3] == "9"
        assert cols[4] == "3^2"
        assert cols[5] == "3"
        assert cols[6] == "none"
        assert cols[7] == "0"

    def test_text_format(self, capsys):
        code, out, _ = run(
            capsys, "scan", "--a-max", "3", "--n-max", "6", "--format", "text"
        )
        assert code == 0
        assert "scanned" in out
        assert "mismatches 0" in out

    def test_text_lists_mismatches(self, capsys):
        code, out, _ = run(
            capsys, "scan", "--a-max", "5", "--n-max", "10", "--format", "text"
        )
        assert code == 1
        lines = out.splitlines()
        block = lines.index("mismatches (table prediction vs computed):")
        assert lines[block + 1 : block + 3] == [
            "  (3,2,10) table=True computed=False",
            "  (5,1,6) table=True computed=False",
        ]

    def test_text_lists_incomplete(self, capsys):
        code, out, _ = run(
            capsys,
            "scan", "--a-max", "5", "--n-max", "5",
            "--trial-bound", "10", "--rho-budget", "1", "--format", "text",
        )
        assert code == 2
        lines = out.splitlines()
        block = lines.index("incomplete factorizations:")
        assert "  (4,3,5)" in lines[block + 1 :]

    def test_csv_marks_incomplete_rows(self, capsys):
        code, out, _ = run(
            capsys,
            "scan", "--a-max", "5", "--n-max", "5",
            "--trial-bound", "10", "--rho-budget", "1", "--format", "csv",
        )
        assert code == 2
        row = next(l for l in out.splitlines() if l.startswith("4,3,5,781,"))
        assert row.split(",")[-1] == "2"

    def test_format_ignores_the_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("ZSIG_FORMAT", "csv")
        code, out, err = run(capsys, "scan", "--a-max", "3", "--n-max", "4")
        assert code == 0
        assert list(json.loads(out)["config"]) == [
            "a_max", "n_max", "trial_division_bound", "rho_step_budget", "parallelism",
        ]
        assert err == ""
        code, out, err = run(capsys, "analyze", "4", "3", "2")
        assert code == 0
        assert out.startswith("triple a=4 b=3 n=2\n")
        assert err == ""

    def test_zero_rho_budget_means_no_rho_step(self, capsys):
        # as in analyze: trial division below 10 leaves 781 = 11 * 71 whole
        argv = ["--trial-bound", "10", "--rho-budget", "0"]
        code, out, _ = run(
            capsys, "scan", "--a-max", "5", "--n-max", "5", *argv, "--format", "csv"
        )
        assert code == 2
        assert "4,3,5,781,,,none,2" in out.splitlines()
        assert run(capsys, "analyze", "4", "3", "5", *argv)[0] == 2

    def test_rejects_tiny_range(self, capsys):
        for argv in (["--a-max", "1", "--n-max", "5"], ["--a-max", "5", "--n-max", "1"]):
            code, out, err = run(capsys, "scan", *argv)
            assert code == 3
            assert out == ""
            assert err == "invalid input: a_max and n_max must be at least 2\n"

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--trial-bound", "-1", "trial bound must be nonnegative"),
            ("--rho-budget", "-1", "rho budget must be nonnegative"),
            ("--jobs", "0", "parallelism must be at least 1"),
        ],
    )
    def test_rejects_bad_settings(self, capsys, flag, value, message):
        code, out, err = run(
            capsys, "scan", "--a-max", "3", "--n-max", "4", flag, value
        )
        assert code == 3
        assert out == ""
        assert err == f"invalid input: {message}\n"

    def test_incomplete_exit_two(self, capsys):
        # (4,3,5) evaluates to 781 = 11 * 71: invisible to trial
        # division below 10 and to a single rho step, and no mismatch
        # triple lives in this range, so the incomplete status surfaces.
        # (5,4,5)'s 2101 = 11 * 191 splits as its Aurifeuillian factors.
        code, out, _ = run(
            capsys,
            "scan", "--a-max", "5", "--n-max", "5",
            "--trial-bound", "10", "--rho-budget", "1",
        )
        assert code == 2
        report = json.loads(out)
        assert report["summary"]["mismatch_count"] == 0
        assert report["summary"]["incomplete_count"] > 0
        assert {"a": 4, "b": 3, "n": 5} in report["incomplete"]

    def test_lists_match_analyze(self, capsys):
        # the range holds exceptions, the mismatches (3,2,10) and (5,1,6) and
        # the incomplete (4,3,5); each list entry is what analyze says of
        # its triple, in (a, b, n) order
        code, out, _ = run(
            capsys,
            "scan", "--a-max", "5", "--n-max", "10",
            "--trial-bound", "10", "--rho-budget", "1",
        )
        assert code == 1
        report = json.loads(out)
        exceptions, mismatches, incomplete = [], [], []
        for a, b in cli.coprime_pairs(5):
            for n in range(2, 11):
                rep = analyze(Triple(a, b, n), arith.Effort(10, 1))
                exc = rep.exception
                key = {"a": a, "b": b, "n": n}
                if exc.is_exception:
                    exceptions.append(
                        {**key, "case": exc.value, "witness": exc.witness(a, b)}
                    )
                if (not exc.is_exception) != rep.has_large:
                    mismatches.append(
                        {
                            **key,
                            "table_predicts_large": not exc.is_exception,
                            "computed_has_large": rep.has_large,
                        }
                    )
                if not rep.phi_factors.complete:
                    incomplete.append(key)
        assert report["exceptions"] == exceptions
        assert report["mismatches"] == mismatches
        assert report["incomplete"] == incomplete
        assert [(m["a"], m["b"], m["n"]) for m in mismatches] == [(3, 2, 10), (5, 1, 6)]
        assert {"a": 4, "b": 3, "n": 5} in incomplete
        summary = report["summary"]
        assert (
            summary["triples_scanned"],
            summary["exception_count"],
            summary["mismatch_count"],
            summary["incomplete_count"],
        ) == (81, len(exceptions), 2, len(incomplete))

    def test_mismatch_outranks_incomplete(self, capsys):
        # when both conditions occur the exit code reports the mismatch,
        # which is the finding that matters
        code, out, _ = run(
            capsys,
            "scan", "--a-max", "13", "--n-max", "31",
            "--trial-bound", "100", "--rho-budget", "10",
        )
        assert code == 1
        report = json.loads(out)
        assert report["summary"]["mismatch_count"] >= 2
        assert report["summary"]["incomplete_count"] > 0


class TestParser:
    def test_no_subcommand(self, capsys):
        code, _, _ = run(capsys)
        assert code == 3

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 3

    def test_unknown_flag(self, capsys):
        code, _, _ = run(capsys, "coeffs", "6", "--frobnicate")
        assert code == 3

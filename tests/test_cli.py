import json

import pytest

from zsig.cli import main


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
        assert out.splitlines()[0] == "1 0 -1 0 1"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "coeffs", "105", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 105
        assert payload["degree"] == 48
        assert payload["coeffs"][7] == -2
        assert payload["euler_phi"] == 48

    def test_rejects_zero(self, capsys):
        code, _, err = run(capsys, "coeffs", "0")
        assert code == 3

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

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "analyze", "3", "1", "6", "--format", "json")
        assert code == 1
        payload = json.loads(out)
        assert payload["phi_value"] == 7
        assert payload["zsig"] == [[7, 1]]
        assert payload["large"] == []
        assert payload["exception_kind"] == "small_pair_n6"
        assert payload["table_agrees"] is True
        assert payload["factors"] == [[7, 1]]
        assert payload["fast"]["has_large"] is False

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

    def test_nonpositive_multiplier_exit_three(self, capsys):
        code, out, err = run(capsys, "analyze", "4", "3", "2", "--M", "0")
        assert code == 3
        assert out == ""
        assert err == "invalid input: M must be a positive integer\n"

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
        assert "  (5,4,5)" in lines[block + 1 :]

    def test_csv_marks_incomplete_rows(self, capsys):
        code, out, _ = run(
            capsys,
            "scan", "--a-max", "5", "--n-max", "5",
            "--trial-bound", "10", "--rho-budget", "1", "--format", "csv",
        )
        assert code == 2
        row = next(l for l in out.splitlines() if l.startswith("5,4,5,2101,"))
        assert row.split(",")[-1] == "2"

    def test_env_var_default(self, capsys, monkeypatch):
        monkeypatch.setenv("ZSIG_FORMAT", "csv")
        code, out, _ = run(capsys, "scan", "--a-max", "3", "--n-max", "4")
        assert code == 0
        assert out.startswith("a,b,n,")

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("ZSIG_FORMAT", "csv")
        code, out, _ = run(
            capsys, "scan", "--a-max", "3", "--n-max", "4", "--format", "json"
        )
        assert code == 0
        json.loads(out)

    def test_invalid_env_warns_and_falls_back(self, capsys, monkeypatch):
        monkeypatch.setenv("ZSIG_FORMAT", "yaml")
        code, out, err = run(capsys, "scan", "--a-max", "3", "--n-max", "4")
        assert code == 0
        json.loads(out)
        assert "ZSIG_FORMAT" in err

    def test_rejects_tiny_range(self, capsys):
        code, _, _ = run(capsys, "scan", "--a-max", "1", "--n-max", "5")
        assert code == 3

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
        # (5,4,5) evaluates to 2101 = 11 * 191: invisible to trial
        # division below 10 and to a single rho step, and no mismatch
        # triple lives in this range, so the incomplete status surfaces.
        code, out, _ = run(
            capsys,
            "scan", "--a-max", "5", "--n-max", "5",
            "--trial-bound", "10", "--rho-budget", "1",
        )
        assert code == 2
        report = json.loads(out)
        assert report["summary"]["mismatch_count"] == 0
        assert report["summary"]["incomplete_count"] > 0
        assert {"a": 5, "b": 4, "n": 5} in report["incomplete"]

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

"""Command line front end.

Subcommands: coeffs (coefficient dump), eval (one homogeneous value),
analyze (full single-triple report), scan (exhaustive range verification
against the exception table).

Exit codes are uniform: 0 success or verified, 1 exception or mismatch,
2 incomplete factorization, 3 invalid input.  Progress goes to stderr;
stdout carries only the report.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import sys
import time
from typing import NamedTuple

from .arith import Effort, _Validated, gcd
from .cyclotomic import Triple, cyclotomic_coeffs, eval_homogeneous
from .zsigmondy import ExceptionKind, ZsigReport, analyze
from .zsigmondy import _classify_prime_divisor, _table_agrees

EXIT_OK = 0
EXIT_EXCEPTION = 1
EXIT_INCOMPLETE = 2
EXIT_BAD_INPUT = 3

# Scanner defaults, calibrated on the reference range (a <= 30, n <= 36):
# small trial bound because the interesting factors are never tiny, and a
# rho budget that resolves all but the genuinely hard semiprime residues
# while keeping the full scan within a few minutes on one core.
SCAN_TRIAL_BOUND = 2_000
SCAN_RHO_BUDGET = 3_000_000

# Single-triple analysis can afford far more patience than a range scan.
ANALYZE_TRIAL_BOUND = 1_000_000
ANALYZE_RHO_BUDGET = 40_000_000


class ScanConfig(
    _Validated,
    NamedTuple(
        "_ScanConfigFields",
        [
            ("a_max", int),
            ("n_max", int),
            ("effort", Effort),
            ("parallelism", int),
        ],
    )
):
    __slots__ = ()

    def __new__(
        cls,
        a_max: int,
        n_max: int,
        effort: Effort = Effort(SCAN_TRIAL_BOUND, SCAN_RHO_BUDGET),
        parallelism: int = 1,
    ) -> ScanConfig:
        if a_max < 2 or n_max < 2:
            raise ValueError("a_max and n_max must be at least 2")
        if parallelism < 1:
            raise ValueError("parallelism must be at least 1")
        return tuple.__new__(cls, (a_max, n_max, effort, parallelism))


class ScanRow(NamedTuple):
    """One scanned triple: a CSV line, and the fields the report lists."""

    a: int
    b: int
    n: int
    phi_value: int
    zsig: tuple[tuple[int, int], ...]
    large: tuple[int, ...]
    exception: ExceptionKind
    has_large: bool
    complete: bool

    @property
    def table_agrees(self) -> bool:
        # rows are built at M = 1, where has_large is the table's verdict
        return _table_agrees(self.exception, self.has_large)


def _scan_pair(job: tuple[int, int, int, Effort]) -> list[ScanRow]:
    a, b, n_max, effort = job
    rows = []
    for n in range(2, n_max + 1):
        rep = analyze(Triple(a, b, n), effort)
        rows.append(
            ScanRow(
                a, b, n, rep.fast.phi_value, rep.zsig_primes, rep.large_zsig_primes,
                rep.exception, rep.has_large, rep.phi_factors.complete,
            )
        )
    return rows


def coprime_pairs(a_max: int) -> list[tuple[int, int]]:
    return [
        (a, b)
        for a in range(2, a_max + 1)
        for b in range(1, a)
        if gcd(a, b) == 1
    ]


def run_scan(config: ScanConfig) -> tuple[dict, list[ScanRow]]:
    """Execute a scan; returns (report object, per-triple rows).

    The report object follows the documented schema: config, summary,
    exceptions, mismatches, incomplete.  Rows come in (a, b, n) order
    whatever the worker scheduling, so output is deterministic: jobs go
    out by descending (a, b), costliest first, so a pool ends on cheap
    ones; map and ProcessPoolExecutor.map yield results in job order, and
    the chunks, each ascending by n, are put back in (a, b) order.  Every
    25 pairs a progress line goes to stderr.
    """
    started = time.monotonic()
    pairs = coprime_pairs(config.a_max)
    jobs = [(a, b, config.n_max, config.effort) for (a, b) in reversed(pairs)]
    chunks: list[list[ScanRow]] = []
    # a fork pool starts every worker at once, so it gets no more than there are jobs
    workers = min(config.parallelism, len(jobs))
    with contextlib.ExitStack() as stack:
        mapper = map
        if workers > 1:
            # imported here, so that commands that never fork skip multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            pool = ProcessPoolExecutor(max_workers=workers)
            mapper = stack.enter_context(pool).map
        for i, chunk in enumerate(mapper(_scan_pair, jobs), 1):
            chunks.append(chunk)
            if i % 25 == 0:
                print(f"{i}/{len(jobs)} pairs done", file=sys.stderr, flush=True)
    rows = [row for chunk in reversed(chunks) for row in chunk]
    exceptions: list[dict] = []
    mismatches: list[dict] = []
    incomplete: list[dict] = []
    for r in rows:
        exc = r.exception
        key = {"a": r.a, "b": r.b, "n": r.n}
        if exc.is_exception:
            exceptions.append({**key, "case": exc.value, "witness": exc.witness(r.a, r.b)})
        if not r.table_agrees:
            mismatches.append(
                {
                    **key,
                    "table_predicts_large": not exc.is_exception,
                    "computed_has_large": r.has_large,
                }
            )
        if not r.complete:
            incomplete.append(key)
    report = {
        "config": {
            "a_max": config.a_max,
            "n_max": config.n_max,
            "trial_division_bound": config.effort.trial_division_bound,
            "rho_step_budget": config.effort.rho_step_budget,
            "parallelism": config.parallelism,
            # the report is printed only as JSON
            "output_format": "json",
        },
        "summary": {
            "triples_scanned": len(rows),
            "exception_count": len(exceptions),
            "mismatch_count": len(mismatches),
            "incomplete_count": len(incomplete),
            "elapsed_seconds": round(time.monotonic() - started, 3),
        },
        "exceptions": exceptions,
        "mismatches": mismatches,
        "incomplete": incomplete,
    }
    return report, rows


def _scan_exit_code(report: dict) -> int:
    if report["summary"]["mismatch_count"]:
        return EXIT_EXCEPTION
    if report["summary"]["incomplete_count"]:
        return EXIT_INCOMPLETE
    return EXIT_OK


def _triple_exit_code(complete: bool, has_large: bool) -> int:
    # one triple's status: analyze's exit code and the CSV's exit-status
    if not complete:
        return EXIT_INCOMPLETE
    return EXIT_OK if has_large else EXIT_EXCEPTION


def _render_scan_csv(rows: list[ScanRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        ["a", "b", "n", "phi_value", "zsig_primes", "large_primes", "exception", "exit-status"]
    )
    for r in rows:
        writer.writerow(
            [
                r.a,
                r.b,
                r.n,
                r.phi_value,
                ";".join(f"{q}^{e}" if e > 1 else str(q) for q, e in r.zsig),
                ";".join(str(q) for q in r.large),
                r.exception.value,
                _triple_exit_code(r.complete, r.has_large),
            ]
        )
    return buf.getvalue()


def _render_scan_text(report: dict) -> str:
    s = report["summary"]
    lines = [
        f"scanned {s['triples_scanned']} triples "
        f"(a <= {report['config']['a_max']}, n <= {report['config']['n_max']})",
        f"exceptions {s['exception_count']}, mismatches {s['mismatch_count']}, "
        f"incomplete {s['incomplete_count']}, elapsed {s['elapsed_seconds']}s",
    ]
    if report["exceptions"]:
        lines.append("exceptions:")
        for e in report["exceptions"]:
            lines.append(f"  ({e['a']},{e['b']},{e['n']}) {e['case']} {e['witness']}")
    if report["mismatches"]:
        lines.append("mismatches (table prediction vs computed):")
        for m in report["mismatches"]:
            lines.append(
                f"  ({m['a']},{m['b']},{m['n']}) table={m['table_predicts_large']} "
                f"computed={m['computed_has_large']}"
            )
    if report["incomplete"]:
        lines.append("incomplete factorizations:")
        for m in report["incomplete"]:
            lines.append(f"  ({m['a']},{m['b']},{m['n']})")
    return "\n".join(lines)


def cmd_coeffs(args: argparse.Namespace) -> int:
    try:
        poly = cyclotomic_coeffs(args.n)
    except ValueError as err:
        print(f"invalid input: {err}", file=sys.stderr)
        return EXIT_BAD_INPUT
    if args.format == "json":
        print(
            json.dumps(
                {
                    "n": args.n,
                    "coeffs": list(poly.coeffs),
                    "degree": poly.degree,
                    "euler_phi": poly.degree,
                }
            )
        )
    else:
        print(" ".join(str(c) for c in poly.coeffs))
        print(f"# degree {poly.degree}  phi {poly.degree}")
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    try:
        value = eval_homogeneous(args.n, args.a, args.b)
    except ValueError as err:
        print(f"invalid input: {err}", file=sys.stderr)
        return EXIT_BAD_INPUT
    print(value)
    return EXIT_OK


def _analyze_payload(rep: ZsigReport) -> dict:
    t, exc, fast, fac = rep.triple, rep.exception, rep.fast, rep.phi_factors
    return {
        "a": t.a,
        "b": t.b,
        "n": t.n,
        "phi_value": fast.phi_value,
        "zsig": rep.zsig_primes,
        "large": rep.large_zsig_primes,
        "exception_kind": exc.value,
        "witness": exc.witness(t.a, t.b),
        "is_exception": exc.is_exception,
        "has_zsigmondy": fast.residual > 1,
        "has_large": rep.has_large,
        "fast_has_large": fast.has_large,
        "residual": fast.residual,
        "complete": fac.complete,
        "table_agrees": rep.table_agrees,
        "factors": [[p, e] for p, e in fac.factors],
        "cofactor": fac.cofactor,
        "fast": {k: v for k, v in fast._asdict().items() if k != "phi_value"},
        "large_multiplier": rep.large_multiplier,
    }


def _render_analyze_text(rep: ZsigReport) -> str:
    t = rep.triple
    lines = [f"triple a={t.a} b={t.b} n={t.n}", f"value {rep.fast.phi_value}"]
    fac = rep.phi_factors
    parts = [f"{p}^{e}" if e > 1 else str(p) for p, e in fac.factors]
    if not fac.complete:
        parts.append(f"[composite {fac.cofactor}]")
    lines.append("factors " + (" * ".join(parts) if parts else "1"))
    for p, _ in fac.factors:
        cls = _classify_prime_divisor(p, t)
        lines.append(f"  {p}: {cls.case.value} (order {cls.k}, beta {cls.beta})")
    zs = ", ".join(f"{q} (exponent {e})" for q, e in rep.zsig_primes) or "none"
    lines.append(f"order-{t.n} primes: {zs}")
    threshold = rep.large_multiplier * t.n + 1
    lines.append(
        f"large primes (squared or > {threshold}): "
        + (", ".join(str(q) for q in rep.large_zsig_primes) or "none")
    )
    fd = rep.fast
    removed = (
        f"removed {fd.removed_prime}^{fd.removed_exponent}"
        if fd.removed_prime
        else "removed nothing"
    )
    verdict = "large prime exists" if fd.has_large else "no large prime"
    lines.append(
        f"fast decision: {removed}, residual {fd.residual} vs {fd.threshold}: {verdict}"
    )
    exc = rep.exception
    if exc.is_exception:
        lines.append(f"exception: {exc.value} {exc.witness(t.a, t.b)}")
    else:
        lines.append("exception: none")
    if not fac.complete:
        lines.append("warning: factorization incomplete, prime list partial")
    if not rep.table_agrees:
        lines.append(
            "MISMATCH: the exception table predicts "
            + ("a large prime" if not exc.is_exception else "no large prime")
            + " but computation shows otherwise"
        )
    return "\n".join(lines)


def cmd_analyze(args: argparse.Namespace) -> int:
    try:
        t = Triple(args.a, args.b, args.n)
        if args.n < 2:
            raise ValueError("analysis needs n >= 2")
        if args.M < 1:
            raise ValueError("M must be a positive integer")
        effort = Effort(args.trial_bound, args.rho_budget)
    except ValueError as err:
        print(f"invalid input: {err}", file=sys.stderr)
        return EXIT_BAD_INPUT
    rep = analyze(t, effort, args.M)
    if args.format == "json":
        print(json.dumps(_analyze_payload(rep)))
    else:
        print(_render_analyze_text(rep))
    return _triple_exit_code(rep.phi_factors.complete, rep.has_large)


def cmd_scan(args: argparse.Namespace) -> int:
    try:
        config = ScanConfig(
            a_max=args.a_max,
            n_max=args.n_max,
            effort=Effort(args.trial_bound, args.rho_budget),
            parallelism=args.jobs,
        )
    except ValueError as err:
        print(f"invalid input: {err}", file=sys.stderr)
        return EXIT_BAD_INPUT
    report, rows = run_scan(config)
    if args.format == "json":
        print(json.dumps(report, indent=2))
    elif args.format == "csv":
        sys.stdout.write(_render_scan_csv(rows))
    else:
        print(_render_scan_text(report))
    return _scan_exit_code(report)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_BAD_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="zsig",
        description="Zsigmondy and large Zsigmondy primes of coprime triples",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_coeffs = sub.add_parser("coeffs", help="cyclotomic coefficient vector")
    p_coeffs.add_argument("n", type=int)
    p_coeffs.add_argument("--format", choices=["json", "text"], default="text")
    p_coeffs.set_defaults(func=cmd_coeffs)

    p_eval = sub.add_parser("eval", help="homogeneous cyclotomic value")
    p_eval.add_argument("n", type=int)
    p_eval.add_argument("a", type=int)
    p_eval.add_argument("b", type=int)
    p_eval.set_defaults(func=cmd_eval)

    p_analyze = sub.add_parser("analyze", help="full report for one triple")
    p_analyze.add_argument("a", type=int)
    p_analyze.add_argument("b", type=int)
    p_analyze.add_argument("n", type=int)
    p_analyze.add_argument("--M", type=int, default=1, help="large means squared or > M*n+1")
    p_analyze.add_argument("--format", choices=["json", "text"], default="text")
    p_analyze.add_argument("--trial-bound", type=int, default=ANALYZE_TRIAL_BOUND)
    p_analyze.add_argument("--rho-budget", type=int, default=ANALYZE_RHO_BUDGET)
    p_analyze.set_defaults(func=cmd_analyze)

    p_scan = sub.add_parser("scan", help="exhaustive range verification")
    p_scan.add_argument("--a-max", type=int, required=True)
    p_scan.add_argument("--n-max", type=int, required=True)
    p_scan.add_argument("--format", choices=["json", "csv", "text"], default="json")
    p_scan.add_argument("--jobs", type=int, default=1)
    p_scan.add_argument("--trial-bound", type=int, default=SCAN_TRIAL_BOUND)
    p_scan.add_argument("--rho-budget", type=int, default=SCAN_RHO_BUDGET)
    p_scan.set_defaults(func=cmd_scan)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits on parse errors and -h; surface the code as a
        # return value so embedding (and the tests) can treat main as a
        # plain function
        return int(exc.code or 0)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark:  python3 perfbench/selftest.py

1. The oracle's constants agree with a brute-force search from the
   definition over a small range.
2. Outputs with a planted wrong answer (a flipped verdict, a corrupted
   phi_value, a wrong prime, a wrong exit code, more incomplete triples
   than at the baseline) are rejected.
3. Each workload runs end to end at a tiny size, traced and untraced,
   and reports exactly the metrics BENCHMARK.json names.

Exits 1 and lists the failed checks if any fails.
"""

from __future__ import annotations

import json
import sys

import oracle
import run

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def trial_factor(x: int) -> dict[int, int]:
    out, d = {}, 2
    while d * d <= x:
        while x % d == 0:
            out[d] = out.get(d, 0) + 1
            x //= d
        d += 1
    if x > 1:
        out[x] = out.get(x, 0) + 1
    return out


def brute_no_large(a: int, b: int, n: int) -> bool:
    # large: an order-n prime of a^n - b^n that exceeds n + 1 or is squared
    return not any(oracle.has_order(q, a, b, n) and (q > n + 1 or e >= 2)
                   for q, e in trial_factor(a**n - b**n).items())


def test_oracle_constants() -> None:
    wrong = [(a, b, n) for a, b in oracle.coprime_pairs(7) for n in range(2, 13)
             if brute_no_large(a, b, n) != oracle.no_large_prime(a, b, n)]
    expect(not wrong, f"no-large verdicts match brute force for a <= 7, n <= 12 {wrong}")
    expect(brute_no_large(2, 1, 18), "(2,1,18) has no large prime by brute force")
    phi = oracle.cyclotomic_values(5, 1, 12)
    expect(phi[6] == 21 and phi[12] == 601, "cyclotomic values of (5, 1) at n = 6, 12")


def test_decide_planted() -> None:
    wl = run.Decide(tiny=True)
    zsig = run.import_zsig()
    items = wl.items(0)
    outs = run.run_pass(wl, zsig, items)[1]
    expect(oracle.check_decide(items, outs) == [], "decide: real outputs pass")
    i = items.index((5, 1, 6))
    flipped = list(outs)
    flipped[i] ^= 1
    bad = oracle.check_decide(items, flipped)
    expect([j for j, _ in bad] == [i], "decide: flipped verdict of (5,1,6) is rejected")
    flipped = list(outs)
    flipped[0] ^= 2
    expect(len(oracle.check_decide(items, flipped)) == 1, "decide: flipped table lookup is rejected")


def replace_row(text: str, triple, column: int, value: str) -> str:
    lines = text.splitlines()
    for k, line in enumerate(lines):
        cells = line.split(",")
        if cells[:3] == [str(x) for x in triple]:
            cells[column] = value
            lines[k] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_scan_planted() -> None:
    wl = run.Scan(tiny=True)
    zsig = run.import_zsig()
    rc, text = wl.call(zsig, wl.items(0)[0])
    _, bad = oracle.check_scan(rc, text, wl.a_max, wl.n_max)
    expect(bad == [], f"scan: real output passes {bad[:3]}")
    cases = {
        "corrupted phi_value": (replace_row(text, (5, 2, 7), 3, "1234567"), rc, (5, 2, 7)),
        "missing order-n prime": (replace_row(text, (6, 5, 5), 4, ""), rc, (6, 5, 5)),
        "composite listed as prime": (replace_row(text, (3, 1, 5), 4, "121"), rc, (3, 1, 5)),
        "flipped verdict": (replace_row(text, (4, 1, 3), 7, "1"), rc, (4, 1, 3)),
        "wrong exit code": (text, 0, None),
    }
    for what, (planted, code, triple) in cases.items():
        _, bad = oracle.check_scan(code, planted, wl.a_max, wl.n_max)
        expect(any(t == triple for t, _ in bad), f"scan: {what} is rejected")
    # a row that ends incomplete where the baseline finished it: what a
    # cut rho budget would give
    planted = replace_row(text, (5, 2, 7), 7, "2")
    expect(oracle.check_scan(rc, planted, wl.a_max, wl.n_max)[1] == []
           and wl.check(wl.items(0), [(rc, planted)])[1] == 1,
           "scan: an incomplete row beyond the baseline's is rejected")


def test_analyze_planted() -> None:
    wl = run.AnalyzeHard(tiny=True)
    zsig = run.import_zsig()
    for t in wl.population:
        rc, text = wl.call(zsig, t)
        expect(oracle.check_analyze(*t, rc, text) == [], f"analyze {t}: real output passes")
    t = (4, 3, 31)  # value 311 * 21577 * 687147718331
    rc, text = wl.call(zsig, t)
    value = (4**31 - 3**31) // (4 - 3)
    planted = {
        "corrupted value": text.replace(f"value {value}", f"value {value + 2}"),
        "corrupted factor": text.replace("factors 311 * ", "factors 313 * "),
        "dropped order-n prime": text.replace("primes: 311 (exponent 1), ", "primes: "),
    }
    for what, out in planted.items():
        expect(out != text and oracle.check_analyze(*t, rc, out) != [], f"analyze: {what} is rejected")
    expect(oracle.check_analyze(*t, 1, text) != [], "analyze: wrong exit code is rejected")
    # (5, 2, 29) is complete at the workload's budget; a cut budget leaves
    # it incomplete, which the output alone does not contradict
    t = (5, 2, 29)
    out = run.run_cli(zsig, ["analyze", *map(str, t), "--rho-budget", "10"])
    expect(out[0] == 2 and oracle.check_analyze(*t, *out) == [] and wl.check([t], [out])[1] == 1,
           "analyze: an incomplete triple beyond the baseline's is rejected")


def test_workloads_end_to_end() -> None:
    with open(run.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    expect(e2e == run.END_TO_END and layer == run.PER_LAYER, "BENCHMARK.json names the reported metrics")
    expect([w["name"] for w in bench["workloads"]] == list(run.WORKLOADS), "BENCHMARK.json names the workloads")
    for name in run.WORKLOADS:
        for trace in (False, True):
            result, env, _, msgs = run.run(name, 3, 0, trace, tiny=True)
            want = layer if trace else e2e
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0 and got == want
                   and all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()),
                   f"{name} trace={int(trace)}: tiny run is correct and complete {msgs[:2]}")
    expect(env["backend"] in ("stdlib", "gmpy2") and env["cpu_count"] >= 1, "environment block")


if __name__ == "__main__":
    for test in (test_oracle_constants, test_decide_planted, test_scan_planted,
                 test_analyze_planted, test_workloads_end_to_end):
        test()
    print(f"{len(failures)} failed" if failures else "all checks passed")
    sys.exit(1 if failures else 0)

"""zsig benchmark: one workload per run, one caller in a closed loop.

    python3 perfbench/run.py --workload decide --seed 0 --seconds 30 --trace 0

Each call waits for the previous one.  A run makes its inputs, sets up
several times (fresh import of zsig from ./src, warm-up), then measures
whole passes over the inputs until --seconds have been measured, and
checks every output against oracle.py, which shares no code with zsig.
--trace 1 instead alternates untraced and traced blocks of the same
calls and reports per-layer metrics from spans (see spans.py).  Every
metric is printed by name with its unit; the last line of stdout is the
JSON result.  The exit code is 1 when any output fails its oracle.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter, perf_counter_ns

import oracle
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
# set-ups before each end-to-end pass; spread over the run, so that
# setup_s does not hang on the host's speed of one moment
SETUPS_PER_PASS = 5
WORKERS = 2  # the measuring machine has two cores
ANALYZE_BUDGET = "1000000"
# the tail percentiles use the first calls of a run, up to this many, so
# that memory does not grow with the number of passes
TAIL_SAMPLES = 300_000
# passes per end-to-end run at the least, so that each call has a best time
# to choose from
MIN_PASSES = 2

END_TO_END = {
    "setup_s": "s",
    "triples_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cyclotomic.eval_homogeneous.calls": "count",
    "cyclotomic.eval_homogeneous.self_s": "s",
    "cyclotomic.eval_per_triple": "calls/triple",
    "cyclotomic.cyclotomic_coeffs.calls": "count",
    "cyclotomic.cyclotomic_coeffs.self_s": "s",
    "arith.factorize.index.calls": "count",
    "arith.factorize.index.self_s": "s",
    "arith.factorize.value.calls": "count",
    "arith.factorize.value.self_s": "s",
    "arith.factorize.value.incomplete": "count",
    "arith.largest_prime_divisor.calls": "count",
    "arith.mobius.calls": "count",
    "arith.divisors.calls": "count",
    "arith.is_prime.calls": "count",
    "arith.is_prime.self_s": "s",
    "arith.Factorization.checks": "count",
    "arith.Factorization.self_s": "s",
    "valuation.multiplicative_order.calls": "count",
    "valuation.multiplicative_order.self_s": "s",
    "zsigmondy.has_large_zsigmondy_fast.self_s": "s",
    "zsigmondy.classify_exception.self_s": "s",
    "zsigmondy.analyze.self_s": "s",
    "zsigmondy.classify_prime_divisor.self_s": "s",
    "cli.self_s": "s",
    "cli.pair_cost_max_s": "s",
    "cli.pair_cost_sum_s": "s",
    "cli.pool_efficiency": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.triples": "count",
}


def run_cli(zsig, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = zsig.cli.main(argv)
    return rc, out.getvalue()


class Workload:
    """Inputs, the timed call and the oracle for one workload."""

    name = ""
    TRIPLES_PER_ITEM = 1
    TRACE_BLOCK = 1  # items per alternation of untraced and traced calls
    POOLED = False  # whether the calls run a process pool

    def items(self, seed: int) -> list:
        raise NotImplementedError

    def warm_up(self, zsig) -> None:
        raise NotImplementedError

    def call(self, zsig, item):
        raise NotImplementedError

    def check(self, items, outs) -> tuple[int, int, int, list[str]]:
        """(triples, failed triples, incomplete triples, messages)."""
        raise NotImplementedError

    def trace_items(self, items):
        """The items of the traced run, and the triples that its spans'
        triple ids index."""
        return items, items


class Decide(Workload):
    """The factorization-free decision: has_large_zsigmondy_fast, then
    classify_exception, on every coprime a <= 120, 3 <= n <= 60."""

    name = "decide"
    TRACE_BLOCK = 1000
    # a full pass would make some two million spans: trace a prefix
    TRACE_PREFIX = 25_000

    def __init__(self, tiny: bool = False) -> None:
        self.a_max, self.n_max = (12, 20) if tiny else (120, 60)

    def items(self, seed):
        triples = [(a, b, n) for a, b in oracle.coprime_pairs(self.a_max)
                   for n in range(3, self.n_max + 1)]
        random.Random(seed).shuffle(triples)
        return triples

    def warm_up(self, zsig):
        for n in range(3, self.n_max + 1):
            self.call(zsig, (2, 1, n))

    def call(self, zsig, item):
        t = zsig.cyclotomic.Triple(*item)
        has_large = zsig.zsigmondy.has_large_zsigmondy_fast(t).has_large
        return has_large | zsig.zsigmondy.classify_exception(t).is_exception << 1

    def check(self, items, outs):
        bad = oracle.check_decide(items, outs)
        return len(items), len(bad), 0, [m for _, m in bad]

    def trace_items(self, items):
        prefix = items[: self.TRACE_PREFIX]
        return prefix, prefix


class Scan(Workload):
    """`zsig scan --a-max 30 --n-max 22 --jobs 2 --format csv`, in process.
    The scan range is the input, so the seed changes nothing here."""

    name = "scan"
    POOLED = True

    def __init__(self, tiny: bool = False) -> None:
        self.a_max, self.n_max = (6, 12) if tiny else (30, 22)
        self.triples = oracle.scan_triples(self.a_max, self.n_max)
        self.TRIPLES_PER_ITEM = len(self.triples)

    def argv(self, a_max: int, jobs: int) -> list[str]:
        return ["scan", "--a-max", str(a_max), "--n-max", str(self.n_max),
                "--jobs", str(jobs), "--format", "csv"]

    def items(self, seed):
        return [self.argv(self.a_max, WORKERS)]

    def warm_up(self, zsig):
        run_cli(zsig, self.argv(3, 1))

    def call(self, zsig, item):
        return run_cli(zsig, item)

    def check(self, items, outs):
        triples = failed = incomplete = 0
        msgs = []
        for out in outs:
            triples += len(self.triples)
            if isinstance(out, Exception):
                failed += len(self.triples)
                msgs.append(f"scan raised {out!r}")
                continue
            inc, bad = oracle.check_scan(*out, self.a_max, self.n_max)
            incomplete += inc
            keys = {t for t, _ in bad}
            failed += len(self.triples) if None in keys else len(keys)
            msgs += [f"{t}: {m}" for t, m in bad]
            excess = oracle.incomplete_excess(inc, self.triples, oracle.SCAN_INCOMPLETE_AT_BASELINE)
            if excess:
                failed += excess
                msgs.append(f"scan left {inc} triples incomplete, {excess} more than at the baseline")
        return triples, failed, incomplete, msgs

    def trace_items(self, items):
        # spans are recorded in this process only, so the traced scan is
        # serial; the triple of each span is that of the analyze call it
        # sits in
        return [self.argv(self.a_max, 1)], self.triples


class AnalyzeHard(Workload):
    """`zsig analyze a b n --rho-budget 1000000` on a fixed sample of 25
    triples with a <= 30 and n in {29, 31}, in seed-shuffled order."""

    name = "analyze_hard"
    # the only triple in the range whose value the largest prime of n
    # divides, so the only one whose classification reaches valuation
    VALUATION_WITNESS = (30, 1, 29)

    def __init__(self, tiny: bool = False) -> None:
        hard = [(a, b, n) for a, b in oracle.coprime_pairs(30) for n in (29, 31)]
        hard.remove(self.VALUATION_WITNESS)
        # drawn once with a fixed seed: a fresh draw per run moved
        # triples_per_s by 15% between seeds, because about a quarter of
        # the range runs the rho budget out and costs 30x a finished one.
        # 25 triples, so that a pass takes about 7.5 s and a run makes
        # four or more.
        self.population = sorted(random.Random(0).sample(hard, 24)) + [self.VALUATION_WITNESS]
        if tiny:
            self.population = [(3, 2, 29), (4, 3, 31), self.VALUATION_WITNESS]

    def items(self, seed):
        items = list(self.population)
        random.Random(seed).shuffle(items)
        return items

    def warm_up(self, zsig):
        for n in (29, 31):
            run_cli(zsig, ["analyze", "3", "2", str(n), "--rho-budget", ANALYZE_BUDGET])

    def call(self, zsig, item):
        a, b, n = item
        return run_cli(zsig, ["analyze", str(a), str(b), str(n), "--rho-budget", ANALYZE_BUDGET])

    def check(self, items, outs):
        failed = incomplete = 0
        msgs = []
        for (a, b, n), out in zip(items, outs):
            bad = [f"raised {out!r}"] if isinstance(out, Exception) else oracle.check_analyze(a, b, n, *out)
            incomplete += not bad and out[0] == 2
            failed += bool(bad)
            msgs += [f"({a},{b},{n}): {m}" for m in bad]
        excess = oracle.incomplete_excess(incomplete, items, oracle.ANALYZE_INCOMPLETE_AT_BASELINE)
        if excess:
            failed += excess
            msgs.append(f"{incomplete} triples incomplete, {excess} more than at the baseline")
        return len(items), failed, incomplete, msgs


WORKLOADS = {w.name: w for w in (Decide, Scan, AnalyzeHard)}


def import_zsig():
    """A fresh import of zsig from ./src, so that setup pays for it."""
    for name in [m for m in sys.modules if m == "zsig" or m.startswith("zsig.")]:
        del sys.modules[name]
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    zsig = importlib.import_module("zsig")
    importlib.import_module("zsig.cli")
    if not Path(zsig.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"zsig was imported from {zsig.__file__}, not from {src}")
    return zsig


def run_pass(wl: Workload, zsig, items, tracer: Tracer | None = None, first: int = 0):
    """Call once per item, each call after the previous one returns;
    spans are tagged with triple ids counted from `first`."""
    lat = array("q")
    outs = []
    for i, item in enumerate(items, first):
        if tracer is not None:
            tracer.current = i
        t0 = perf_counter_ns()
        try:
            out = wl.call(zsig, item)
        except Exception as err:  # a call that raises is a failed triple
            out = err
        lat.append(perf_counter_ns() - t0)
        outs.append(out)
    return lat, outs


def peak_rss_mb(pooled: bool = False) -> float:
    # ru_maxrss is in KiB on Linux; the children term is the largest
    # finished child, a pool worker where the calls run a pool
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if pooled:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024


def git_commit() -> str:
    # the ceiling keeps git from searching above the checkout
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(zsig, commit: str) -> dict:
    backend = "stdlib" if zsig.arith.mpz is int else "gmpy2"
    return {
        "backend": backend,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "sched_affinity": len(os.sched_getaffinity(0)),
        "commit": commit,
        "note": ("gmpy2 is not importable, so these are stdlib-backend numbers; "
                 "the gmpy2 backend is unmeasured") if backend == "stdlib" else "gmpy2 backend",
    }


class Tally:
    def __init__(self) -> None:
        self.triples = self.failed = self.incomplete = 0
        self.msgs: list[str] = []

    def add(self, wl: Workload, items, outs) -> None:
        triples, failed, incomplete, msgs = wl.check(items, outs)
        self.triples += triples
        self.failed += failed
        self.incomplete += incomplete
        self.msgs += msgs


def set_up(wl: Workload, times: list[float], repeats: int):
    """A fresh import of zsig and the warm-up, `repeats` times; appends
    each time to `times` and returns the last import."""
    for _ in range(repeats):
        gc.collect()  # frees the previous import, which holds cycles
        t0 = perf_counter()
        zsig = import_zsig()
        wl.warm_up(zsig)
        times.append(perf_counter() - t0)
    gc.collect()
    return zsig


def end_to_end(wl, items, seconds, tally, setups) -> tuple[dict, dict]:
    """Whole passes until `seconds` of calls are measured, and at least
    MIN_PASSES, each after SETUPS_PER_PASS set-ups.  The host's speed
    drifts by up to 1.65x over seconds to minutes, and a drift only ever
    slows a call down; so each call counts with its best time over the
    run's passes, and `triples_per_s` is the triples of one pass over the
    sum of these best times."""
    best = array("q")  # the best time of each call
    tail = array("q")  # the first call times, for the tail percentiles
    measured = 0.0
    passes = 0
    while passes < MIN_PASSES or measured < seconds:
        zsig = set_up(wl, setups, SETUPS_PER_PASS)
        lat, outs = run_pass(wl, zsig, items)
        tally.add(wl, items, outs)
        del outs
        passes += 1
        measured += sum(lat) / 1e9
        tail.extend(lat[: TAIL_SAMPLES - len(tail)])
        best = array("q", map(min, best, lat)) if best else lat
    metrics = {
        "triples_per_s": len(items) * wl.TRIPLES_PER_ITEM / (sum(best) / 1e9),
        "peak_rss_mb": peak_rss_mb(wl.POOLED),
    }
    # the latencies are printed but not gated: on analyze_hard the median
    # falls between sparse ranks of a fixed sample
    extra = {"latency_p50_ms": (statistics.median(best) / 1e6, "ms"),
             "passes": (passes, "count"),
             "measured_s": (measured, "s"),
             "incomplete_frac": (tally.incomplete / tally.triples, "frac"),
             "error_frac": (tally.failed / tally.triples, "frac"),
             "tail_samples": (len(tail), "count")}
    # a percentile is reported only with at least ten samples beyond it
    cuts = statistics.quantiles(tail, n=100) if len(tail) > 1 else []
    for p in (90, 99):
        if len(tail) * (100 - p) / 100 >= 10:
            extra[f"latency_p{p}_ms"] = (cuts[p - 1] / 1e6, "ms")
    return metrics, extra


def per_layer(wl, zsig, items, tally, meta) -> tuple[dict, dict]:
    """Alternates untraced and traced blocks of the same items, so both
    see the same host speed; the difference is the tracing overhead."""
    pool_s = 0.0
    if wl.POOLED:
        lat, outs = run_pass(wl, zsig, items)
        tally.add(wl, items, outs)
        pool_s = sum(lat) / 1e9
    traced, triple_of = wl.trace_items(items)
    tracer = Tracer({t: i for i, t in enumerate(triple_of)} if wl.POOLED else None)
    untraced_s = traced_s = 0.0
    for k in range(0, len(traced), wl.TRACE_BLOCK):
        block = traced[k:k + wl.TRACE_BLOCK]
        lat, outs = run_pass(wl, zsig, block)
        tally.add(wl, block, outs)
        untraced_s += sum(lat) / 1e9
        tracer.install(zsig)
        try:
            lat, outs = run_pass(wl, zsig, block, None if wl.POOLED else tracer, k)
        finally:
            tracer.uninstall()
        tally.add(wl, block, outs)
        traced_s += sum(lat) / 1e9
    wall_s = pool_s or untraced_s
    totals = tracer.totals()
    pairs: Counter = Counter()
    for tid, cost in tracer.triple_costs().items():
        a, b, _ = triple_of[tid]
        pairs[a, b] += cost
    pair_max, pair_sum = max(pairs.values()), sum(pairs.values())
    n_triples = len(triple_of)
    metrics = {name: totals.get(name, 0) for name in PER_LAYER}
    metrics.update({
        "cyclotomic.eval_per_triple": totals["cyclotomic.eval_homogeneous.calls"] / n_triples,
        "arith.Factorization.checks": totals["arith.Factorization.calls"],
        "cli.self_s": totals["cli.main.self_s"],
        "cli.pair_cost_max_s": pair_max,
        "cli.pair_cost_sum_s": pair_sum,
        # ideal two-worker time of a pair-granular split, with traced
        # costs scaled back to untraced ones, against the measured wall
        "cli.pool_efficiency": max(pair_sum / WORKERS, pair_max) * untraced_s / traced_s / wall_s,
        "trace.overhead_frac": traced_s / untraced_s - 1,
        "trace.triples": n_triples,
    })
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{wl.name}-seed{meta['seed']}.jsonl"
    tracer.write(path, {**meta, "triples": [list(t) for t in triple_of]})
    extra = {k: (v, "s" if k.endswith("_s") else "count") for k, v in totals.items()
             if k not in PER_LAYER}
    extra["spans"] = (len(tracer), "count")
    extra["spans_file"] = (str(path.relative_to(ROOT)), "path")
    return metrics, extra


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """Returns (result line, environment, extra metrics, failure messages)."""
    wl = WORKLOADS[workload](tiny)
    os.environ.pop("ZSIG_FORMAT", None)  # the text and csv formats are the inputs
    commit = git_commit()  # while the process is small: the child counts in peak_rss_mb
    # set-up is a fresh import of zsig and the warm-up; the inputs are the
    # benchmark's own work and are made outside the timer
    items = wl.items(seed)
    harness_mb = peak_rss_mb()
    setups: list[float] = []
    tally = Tally()
    if trace:
        zsig = set_up(wl, setups, 1)
        env = environment(zsig, commit)
        meta = {"workload": workload, "seed": seed, "environment": env}
        metrics, extra = per_layer(wl, zsig, items, tally, meta)
    else:
        metrics, extra = end_to_end(wl, items, seconds, tally, setups)
        env = environment(sys.modules["zsig"], commit)
        metrics["setup_s"] = statistics.median(setups)
        extra["setups"] = (len(setups), "count")
        # the peak before zsig was imported: the interpreter, the oracle
        # and the inputs, which peak_rss_mb includes
        extra["harness_rss_mb"] = (harness_mb, "MB")
    units = PER_LAYER if trace else END_TO_END
    result = {
        "correct": tally.failed == 0 and not tally.msgs,
        "attempted": tally.triples,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    return result, env, extra, tally.msgs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, env, extra, msgs = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("environment " + json.dumps(env))
    for name, m in result["metrics"].items():
        print(f"  {name:44s} {m['value']:>16.6g} {m['unit']}")
    for name, (value, unit) in extra.items():
        shown = f"{value:>16.6g}" if isinstance(value, (int, float)) else f"{value:>16}"
        print(f"  {name:44s} {shown} {unit}")
    for msg in msgs[:20]:
        print("ORACLE FAILURE " + msg)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

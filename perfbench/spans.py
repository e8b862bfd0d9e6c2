"""Spans around calls into zsig's public functions.

The tracer replaces each traced function, in every zsig module that
holds a reference to it, by a wrapper that records a span: name, start,
end, parent span and the triple being worked on.  So a span starts where
the caller reaches the function (say `zsig.zsigmondy.factorize`) and the
program itself is not edited.  Spans stay in memory until `write`.
"""

from __future__ import annotations

import json
from array import array
from collections import Counter
from time import perf_counter_ns

MODULES = ("arith", "cyclotomic", "valuation", "zsigmondy", "cli")

# (module, function) pairs whose calls become spans named module.function
TRACED = (
    ("arith", "is_prime"),
    ("arith", "largest_prime_divisor"),
    ("arith", "mobius"),
    ("arith", "divisors"),
    ("cyclotomic", "eval_homogeneous"),
    ("cyclotomic", "cyclotomic_coeffs"),
    ("valuation", "multiplicative_order"),
    ("zsigmondy", "has_large_zsigmondy_fast"),
    ("zsigmondy", "classify_exception"),
    ("zsigmondy", "analyze"),
    ("zsigmondy", "classify_prime_divisor"),
    ("cli", "main"),
)

# factorize spans are split by argument: small indices (n, p - 1) against
# cyclotomic values, which is where trial division and rho run
INDEX_LIMIT = 1 << 32


class Tracer:
    def __init__(self, triple_ids: dict | None = None) -> None:
        self.names: list[str] = []
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.triple = array("i")
        # 1 on a factorize span whose result has an unfactored cofactor
        self.incomplete = array("b")
        self.current = -1
        self._stack: list[int] = []
        # maps (a, b, n) to a triple id, for calls the benchmark does not
        # make itself (analyze inside a scan)
        self._triple_ids = triple_ids
        self._undo: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.triple.append(self.current)
        self.end.append(0)
        self.incomplete.append(0)
        self._stack.append(i)
        self.start.append(perf_counter_ns())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter_ns()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        nid = self._id(name)
        tags = name == "zsigmondy.analyze" and self._triple_ids is not None

        def traced(*args, **kwargs):
            saved = self.current
            i = self._open(nid)
            if tags:
                t = args[0]
                self.current = self.triple[i] = self._triple_ids[t.a, t.b, t.n]
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i)
                self.current = saved

        return traced

    def _wrap_factorize(self, fn):
        index, value = self._id("arith.factorize.index"), self._id("arith.factorize.value")

        def traced(x, effort=None):
            i = self._open(index if x < INDEX_LIMIT else value)
            try:
                result = fn(x, effort)
            finally:
                self._close(i)
            if not result.complete:
                self.incomplete[i] = 1
            return result

        return traced

    def install(self, zsig) -> None:
        mods = [zsig] + [getattr(zsig, m) for m in MODULES]
        wrapped = [(zsig.arith.factorize, self._wrap_factorize(zsig.arith.factorize))]
        wrapped += [
            (getattr(getattr(zsig, m), f), self._wrap(getattr(getattr(zsig, m), f), f"{m}.{f}"))
            for m, f in TRACED
        ]
        for fn, wrapper in wrapped:
            for mod in mods:
                for attr, obj in list(vars(mod).items()):
                    if obj is fn:
                        self._undo.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)
        cls = zsig.arith.Factorization
        self._undo.append((cls, "__post_init__", cls.__post_init__))
        cls.__post_init__ = self._wrap(cls.__post_init__, "arith.Factorization")

    def uninstall(self) -> None:
        for obj, attr, orig in reversed(self._undo):
            setattr(obj, attr, orig)
        self._undo.clear()

    def __len__(self) -> int:
        return len(self.name)

    def totals(self) -> dict[str, float]:
        """Per span name: calls, self time (duration minus the time its
        child spans cover) and, for factorize, incomplete results."""
        child = [0] * len(self)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls, self_ns, incomplete = Counter(), Counter(), Counter()
        for i, nid in enumerate(self.name):
            calls[nid] += 1
            self_ns[nid] += self.end[i] - self.start[i] - child[i]
            incomplete[nid] += self.incomplete[i]
        out = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[nid]
            out[f"{name}.self_s"] = self_ns[nid] / 1e9
            if name.startswith("arith.factorize"):
                out[f"{name}.incomplete"] = incomplete[nid]
        return out

    def triple_costs(self) -> dict[int, float]:
        """Seconds per triple id, summed over the outermost spans that
        carry that id."""
        cost: Counter = Counter()
        for i, t in enumerate(self.triple):
            p = self.parent[i]
            if t >= 0 and (p < 0 or self.triple[p] != t):
                cost[t] += (self.end[i] - self.start[i]) / 1e9
        return cost

    def write(self, path, meta: dict) -> None:
        """One JSON line of metadata, then one line per span:
        [span, name, start_ns, end_ns, parent_span, triple_id, incomplete]."""
        with open(path, "w") as fh:
            fh.write(json.dumps({**meta, "columns": [
                "span", "name", "start_ns", "end_ns", "parent", "triple", "incomplete"]}) + "\n")
            for i in range(len(self)):
                fh.write(f"[{i},\"{self.names[self.name[i]]}\",{self.start[i]},{self.end[i]},"
                         f"{self.parent[i]},{self.triple[i]},{self.incomplete[i]}]\n")

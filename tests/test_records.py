"""The tuple records: every construction path of a validated record checks
its fields, no record can be changed, and the reprs read as before."""

import copy
import inspect
import os
import pickle
import subprocess
import sys
from enum import Enum
from pathlib import Path

import pytest

from zsig.arith import Effort, Factorization, _Validated, factorize
from zsig.cli import ScanRow, _scan_pair, run_scan
from zsig.cyclotomic import Triple
from zsig.zsigmondy import (
    DivisorCase,
    ExceptionKind,
    PrimeDivisorClass,
    analyze,
    classify_exception,
)

SRC = Path(__file__).resolve().parent.parent / "src"

# (record, valid fields, fields its validation rejects)
VALIDATED = [
    (Effort, (2000, 3_000_000), (-1, None)),
    (Factorization, (12, ((2, 2), (3, 1)), 1), (10, ((2, 1), (3, 1)), 1)),
    (
        PrimeDivisorClass,
        (DivisorCase.ZSIGMONDY, 7, 3, 0),
        (DivisorCase.TWO_POWER, 3, 1, 1),
    ),
]
IDS = [cls.__name__ for cls, _, _ in VALIDATED]


@pytest.mark.parametrize("cls, good, bad", VALIDATED, ids=IDS)
def test_every_construction_path_validates(cls, good, bad):
    # a record forged past __new__, to show copy and pickle re-check it
    forged = tuple.__new__(cls, bad)
    paths = [
        lambda: cls(*bad),
        lambda: cls._make(bad),
        lambda: cls(*good)._replace(**dict(zip(cls._fields, bad))),
        lambda: pickle.loads(pickle.dumps(forged)),
        lambda: copy.copy(forged),
    ]
    for make in paths:
        with pytest.raises(ValueError):
            make()


@pytest.mark.parametrize("cls, good, bad", VALIDATED, ids=IDS)
def test_valid_paths_round_trip(cls, good, bad):
    rec = cls(*good)
    assert type(rec) is cls and tuple(rec) == good
    assert cls._make(good) == rec
    assert rec._replace() == rec
    assert pickle.loads(pickle.dumps(rec)) == rec
    assert copy.copy(rec) == rec


@pytest.mark.parametrize("cls", [Triple] + [cls for cls, _, _ in VALIDATED])
def test_one_shared_make(cls):
    # _make, and so _replace, comes from the one mixin, not a copy per record
    assert issubclass(cls, _Validated)
    assert "_make" not in cls.__dict__


def _scan_row(a, b, n):
    # the scan's own row for (a, b, n): the last one of its (a, b) job
    return _scan_pair((a, b, n, Effort(2000, 3_000_000)))[-1]


def _records():
    return [cls(*good) for cls, good, _ in VALIDATED] + [
        classify_exception(Triple(5, 3, 2)),
        analyze(Triple(2, 1, 6)),
        _scan_row(3, 2, 10),
    ]


@pytest.mark.parametrize("rec", _records(), ids=lambda r: type(r).__name__)
def test_immutable(rec):
    if isinstance(rec, Enum):
        # an enum member's name and value are fixed, though it accepts
        # new attributes
        for field in ("name", "value"):
            with pytest.raises(AttributeError):
                setattr(rec, field, None)
        return
    with pytest.raises(AttributeError):
        setattr(rec, rec._fields[0], None)
    with pytest.raises(AttributeError):
        rec.extra = 1


def test_reprs_unchanged():
    assert repr(Effort(2000, 3_000_000)) == (
        "Effort(trial_division_bound=2000, rho_step_budget=3000000)"
    )
    assert repr(Effort()) == "Effort(trial_division_bound=1000000, rho_step_budget=None)"
    assert repr(factorize(12)) == (
        "Factorization(value=12, factors=((2, 2), (3, 1)), cofactor=1)"
    )
    assert repr(PrimeDivisorClass(DivisorCase.ZSIGMONDY, 7, 3, 0)) == (
        "PrimeDivisorClass(case=<DivisorCase.ZSIGMONDY: 'zsigmondy'>, p=7, k=3, beta=0)"
    )
    assert repr(classify_exception(Triple(5, 3, 2))) == (
        "<ExceptionKind.SUM_POWER_OF_TWO: 'sum_power_of_two'>"
    )
    assert repr(analyze(Triple(2, 1, 6))) == (
        "ZsigReport(triple=Triple(a=2, b=1, n=6), zsig_primes=(), "
        "large_zsig_primes=(), has_large=False, "
        "exception=<ExceptionKind.TRIPLE_2_1_6: 'triple_2_1_6'>, "
        "phi_factors=Factorization(value=3, factors=((3, 1),), cofactor=1), "
        "fast=FastDecision(has_large=False, phi_value=3, removed_prime=3, "
        "removed_exponent=1, residual=1, threshold=7), large_multiplier=1)"
    )


def test_scan_row_repr_and_pickle():
    row = _scan_row(3, 2, 10)
    assert repr(row) == (
        "ScanRow(a=3, b=2, n=10, phi_value=55, zsig=((11, 1),), large=(), "
        "exception=<ExceptionKind.NONE: 'none'>, has_large=False, complete=True)"
    )
    assert row.table_agrees is False
    # every row a pool worker makes reaches the parent through pickle
    back = pickle.loads(pickle.dumps(row))
    assert type(back) is ScanRow and back == row


def test_defaults_unchanged():
    scan = inspect.signature(run_scan).parameters
    assert scan["effort"].default == Effort(2000, 3_000_000)
    assert scan["parallelism"].default == 1
    assert Factorization(7, ((7, 1),)).cofactor == 1
    kind = classify_exception(Triple(7, 2, 2))
    assert kind is ExceptionKind.NONE
    assert kind.witness(7, 2) == {}


def test_factorization_construction_runs_post_init(monkeypatch):
    # the benchmark's tracer counts Factorization checks by wrapping this
    # class attribute, so every construction has to go through it
    seen = []
    check = Factorization.__post_init__

    def counted(self):
        seen.append(self)
        check(self)

    monkeypatch.setattr(Factorization, "__post_init__", counted)
    fac = Factorization(12, ((2, 2), (3, 1)))
    assert seen == [fac]
    assert factorize(360) in seen and len(seen) == 2
    with pytest.raises(ValueError):
        Factorization(10, ((2, 1), (3, 1)))
    assert len(seen) == 3


def test_import_loads_neither_pool_nor_dataclasses():
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import zsig, zsig.cli\n"
        "print(zsig.__file__)\n"
        "print(*sorted(set(sys.modules) - before), sep='\\n')\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    where, *added = proc.stdout.splitlines()
    assert Path(where).resolve().is_relative_to(SRC)
    assert "zsig.cli" in added
    # fractions pulls in decimal, a few ms of import for every command
    heavy = {
        "dataclasses", "concurrent.futures.process", "multiprocessing",
        "fractions", "decimal", "cmath",
    }
    assert heavy.isdisjoint(added)
    # loaded only when a value meets Schinzel's condition
    assert "zsig.aurifeuillian" not in added

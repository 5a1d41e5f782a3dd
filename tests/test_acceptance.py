"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line.  Run with ``pytest tests/test_acceptance.py -v -s`` or via the CLI
(``gturan verify --level full``)."""

import dataclasses
import time

from gturan import search
from gturan.acceptance import CRITERIA


def _run(cid):
    start = time.perf_counter()
    result = CRITERIA[cid]()
    elapsed = time.perf_counter() - start
    status = "PASS" if result.passed else "FAIL"
    print(f"criterion {cid:02d} {status} ({elapsed:.1f}s): {result.description}")
    if not result.passed:
        print(f"  details: {result.details}")
    assert result.passed, f"criterion {cid} failed: {result.details}"


def test_criterion_01_crossover_reproduction():
    _run(1)


def test_criterion_02_clique_bound_oracle():
    _run(2)


def test_criterion_03_star_bound_oracle():
    _run(3)


def test_criterion_04_fixed_edge_colex_oracle():
    _run(4)


def test_criterion_05_divisibility_equality_grid():
    _run(5)


def test_criterion_06_closed_form_vs_enumeration():
    _run(6)


def test_criterion_07_double_counting_identity():
    _run(7)


def test_criterion_08_localized_inequality():
    _run(8)


def test_criterion_09_finite_turan_inequalities():
    _run(9)


def test_criterion_10_ratio_trend_floors():
    _run(10)


def test_corrupted_constructor_is_caught(monkeypatch):
    """Negative control: a broken Turán builder must surface as a failure
    carrying the criterion id."""
    import gturan.acceptance as acc
    from gturan.families import turan as real_turan

    def corrupted(r, n):
        return real_turan(r, max(n - 1, 0))

    monkeypatch.setattr(acc, "turan", corrupted)
    result = acc.criterion_6()
    assert not result.passed
    assert result.cid == 6
    assert result.details["failures"]



def test_corrupted_search_is_caught(monkeypatch):
    """Negative control: an extremal search that reports one copy too many
    must fail every exhaustive-oracle criterion."""
    real_optimum = search._optimum

    def corrupted(*args, **kwargs):
        out = real_optimum(*args, **kwargs)
        return dataclasses.replace(out, objective=out.objective + 1)

    monkeypatch.setattr(search, "_optimum", corrupted)
    for cid in (2, 3, 4):
        assert not CRITERIA[cid]().passed, f"criterion {cid} passed"

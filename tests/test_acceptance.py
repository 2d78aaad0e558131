"""Acceptance gate: every criterion suite must pass at its stated scale.

The whole verification runs once per module, with the fixed default seed.
Each criterion's test prints and asserts its own pass/fail line, and the
budget test times the run; the whole module is the machine-checkable exit
gate.
"""

import time

import pytest

from propcalc import verify


@pytest.fixture(scope="module")
def full_run():
    """The outcomes of one full run, by criterion number, and its wall time."""
    t0 = time.time()
    results = verify.run_all(seed=verify.DEFAULT_SEED, out=lambda *_: None)
    return {res.number: res for res in results}, time.time() - t0


def _check(full_run, number):
    res = full_run[0][number]
    status = "PASS" if res.passed else "FAIL"
    print(f"criterion {res.number} {status} [{res.seconds:6.2f}s] "
          f"{res.name}: {res.detail}")
    assert res.passed, f"criterion {res.number} failed: {res.detail}"


def test_criterion_1_confluence_unique_normal_forms(full_run):
    _check(full_run, 1)


def test_criterion_2_basis_counts(full_run):
    _check(full_run, 2)


def test_criterion_3_differential_squares_to_zero(full_run):
    _check(full_run, 3)


def test_criterion_4_chain_map_and_act_compatibility(full_run):
    _check(full_run, 4)


def test_criterion_5_steenrod_suite(full_run):
    _check(full_run, 5)


def test_criterion_6_cw_level_suite(full_run):
    _check(full_run, 6)


def test_criterion_7_stabilization(full_run):
    _check(full_run, 7)


def test_criterion_8_arc_surfaces(full_run):
    _check(full_run, 8)


def test_criterion_9_symmetric_group_anchors(full_run):
    _check(full_run, 9)


def test_full_run_under_the_time_budget(full_run):
    outcomes, elapsed = full_run
    assert len(outcomes) == len(verify.SUITES)
    assert all(res.passed for res in outcomes.values())
    assert elapsed < 300, f"verification took {elapsed:.0f}s, budget is 300s"


def test_criterion_2_detail_names_each_anchor_and_the_mismatches(monkeypatch):
    res = verify.crit2_basis_counts()
    assert res.detail == "m<=4, k<=4 all match; degree-1 anchors (1,2) = 2, (2,1) = 1"

    real = verify.enumerate_basis
    monkeypatch.setattr(verify, "enumerate_basis",
                        lambda n, m, k: real(n, m, k)[1:] if (n, m) == (1, 3) else real(n, m, k))
    res = verify.crit2_basis_counts()
    assert not res.passed
    assert "all match" not in res.detail
    assert res.detail == ("m<=4, k<=4 5 mismatches, first (m, k, got, want) "
                          "[(3, 0, 5, 6), (3, 1, 17, 18), (3, 2, 41, 42)]; "
                          "degree-1 anchors (1,2) = 2, (2,1) = 1")

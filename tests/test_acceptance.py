"""Acceptance gate: every criterion suite must pass at its stated scale.

Each test runs one criterion with the fixed default seed and prints its
pass/fail line; the whole module is the machine-checkable exit gate.
"""

from propcalc import verify


def _run(fn):
    res = fn(verify.DEFAULT_SEED)
    status = "PASS" if res.passed else "FAIL"
    print(f"criterion {res.number} {status} [{res.seconds:6.2f}s] "
          f"{res.name}: {res.detail}")
    assert res.passed, f"criterion {res.number} failed: {res.detail}"


def test_criterion_1_confluence_unique_normal_forms():
    _run(verify.crit1_confluence)


def test_criterion_2_basis_counts():
    _run(verify.crit2_basis_counts)


def test_criterion_3_differential_squares_to_zero():
    _run(verify.crit3_differential)


def test_criterion_4_chain_map_and_act_compatibility():
    _run(verify.crit4_chain_map)


def test_criterion_5_steenrod_suite():
    _run(verify.crit5_steenrod)


def test_criterion_6_cw_level_suite():
    _run(verify.crit6_cw_suite)


def test_criterion_7_stabilization():
    _run(verify.crit7_stabilization)


def test_criterion_8_arc_surfaces():
    _run(verify.crit8_surfaces)


def test_criterion_9_symmetric_group_anchors():
    _run(verify.crit9_symmetry)


def test_full_run_under_the_time_budget():
    import time
    t0 = time.time()
    results = verify.run_all(seed=verify.DEFAULT_SEED, out=lambda *_: None)
    elapsed = time.time() - t0
    assert all(r.passed for r in results)
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

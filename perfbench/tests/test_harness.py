"""The harness counts wrong outputs, tracing is repeatable, and the
script refuses to run without the program."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import tracing
import workloads

SMALL = {
    "compose": {"r": 4, "moves": 2, "pool": 3},
    "act": {"d": 2, "pool": 3},
    "steenrod": {"k": 1, "pool": 4},
    "evaluate": {"V": 6, "P": 1, "pool": 3},
}


def _small(name):
    workload = workloads.WORKLOADS[name]
    return workload, dict(workload.knobs, **SMALL[name])


@pytest.mark.parametrize("name", sorted(SMALL))
def test_current_program_passes_every_check(name, tmp_path):
    workload, knobs = _small(name)
    harness, metrics, extra = run.end_to_end(workload, knobs, 1, 0, 0.0, str(tmp_path))
    assert harness.failed == 0 and harness.attempted >= run.MIN_PASSES * knobs["pool"]
    assert metrics["ok_ratio"][0] == 1.0 and extra["fail_ratio"] == 0.0
    assert set(metrics) == {"ops_per_s", "op_p50_ms", "op_p90_ms", "ok_ratio",
                            "setup_s", "peak_rss_mb"}
    assert all(value > 0 for value, _ in metrics.values())
    unscaled, scale = extra["unscaled"], extra["scale"]
    assert metrics["op_p50_ms"][0] == pytest.approx(unscaled["op_p50_ms"] * scale)
    assert metrics["ops_per_s"][0] == pytest.approx(unscaled["ops_per_s"] / scale)
    assert metrics["setup_s"][0] == pytest.approx(unscaled["setup_s"] * extra["setup_scale"])


@pytest.mark.parametrize("name", sorted(SMALL))
def test_a_wrong_output_is_counted_as_failed(name, tmp_path):
    """Every op wrong: the warm-up check rejects the verified answer."""
    workload, knobs = _small(name)
    broken = dataclasses.replace(workload, op=lambda inp: ("wrong", workload.op(inp)))
    harness, metrics, extra = run.end_to_end(broken, knobs, 1, 0, 0.0, str(tmp_path))
    assert extra["fail_ratio"] == 1.0 and metrics["ok_ratio"][0] == 0.0


def test_a_wrong_output_after_the_warm_up_is_counted(tmp_path):
    """Right during set-up, wrong on every third timed op."""
    workload, knobs = _small("evaluate")
    calls = {"n": 0}
    set_up_ops = run.SETUP_REPEATS * knobs["pool"]

    def flaky(inp):
        calls["n"] += 1
        values, bad, moved = workload.op(inp)
        if calls["n"] > set_up_ops and calls["n"] % 3 == 0:
            values = values[1:]
        return values, bad, moved

    broken = dataclasses.replace(workload, op=flaky)
    harness, _, extra = run.end_to_end(broken, knobs, 1, 0, 0.0, str(tmp_path))
    assert 0.2 < extra["fail_ratio"] < 0.5


def test_an_exception_is_counted_as_failed(tmp_path):
    workload, knobs = _small("act")

    def boom(inp):
        raise RuntimeError("op failed")

    harness, _, extra = run.end_to_end(dataclasses.replace(workload, op=boom), knobs,
                                       1, 0, 0.0, str(tmp_path))
    assert extra["fail_ratio"] == 1.0


@pytest.mark.parametrize("name", sorted(SMALL))
def test_two_traced_runs_give_identical_counts(name, tmp_path):
    workload, knobs = _small(name)
    runs = []
    for i in range(2):
        _, metrics, _ = run.traced(workload, knobs, 7, 0, str(tmp_path / "w"),
                                   str(tmp_path / f"spans{i}.tsv.gz"))
        runs.append(metrics)
    spec = {name for name, unit, _ in tracing.per_layer_spec()}
    assert set(runs[0]) == spec
    counts = [{k: v for k, (v, unit) in m.items() if unit in ("count", "ratio")
               and k != tracing.OVERHEAD_METRIC} for m in runs]
    assert counts[0] == counts[1]
    assert any(v for v in counts[0].values())


def test_the_replay_leaves_the_op_metrics_alone(tmp_path):
    """compose's stage replay calls validate too; only the op's calls count."""
    workload, knobs = _small("compose")
    runs = []
    for replay in (workload.replay, None):
        _, metrics, extra = run.traced(dataclasses.replace(workload, replay=replay), knobs,
                                       7, 0, str(tmp_path / "w"), str(tmp_path / "s.tsv.gz"))
        runs.append(({k: v for k, (v, _) in metrics.items()}, extra))
    (with_replay, extra), (without, _) = runs
    assert extra["replay_spans"] > 0
    assert with_replay["graphs.validate.calls"] == without["graphs.validate.calls"] > 0
    assert with_replay["graphs.require_valid.calls"] == without["graphs.require_valid.calls"]
    assert with_replay["surjections.leibniz_push.vertices_out"] > 0
    assert with_replay["surjections.eliminate_counits.self_s"] > 0
    assert without["surjections.leibniz_push.vertices_out"] == 0


def test_wrappers_rebind_every_copy_and_uninstall_restores():
    from propcalc import generators, graphs, simplex, surjections, terms
    originals = (surjections.apply_attaching, surjections.to_edge_weights,
                 simplex.require_valid, terms.vertical_compose, graphs.validate)
    assert surjections.apply_attaching is generators.apply_attaching
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert surjections.apply_attaching is generators.apply_attaching
        assert surjections.apply_attaching is not originals[0]
        assert surjections.to_edge_weights is not originals[1]
        assert simplex.require_valid is graphs.require_valid is not originals[2]
        assert terms.vertical_compose is graphs.vertical_compose is not originals[3]
        assert graphs.validate is not originals[4]
        tracer.on = True
        g = terms.parse("delta ; (id | delta) ; (mu(1/3) | id)")
        surjections.normalize(g)
        simplex.eval_term(g, (simplex.parse_point("1/2"),))
    finally:
        tracer.uninstall()
    assert (surjections.apply_attaching, surjections.to_edge_weights,
            simplex.require_valid, terms.vertical_compose, graphs.validate) == originals
    assert tracer.counts["terms.parse.calls"] == 1
    assert tracer.counts["graphs.vertical_compose.calls"] == 2
    assert tracer.counts["generators.apply_attaching.calls"] == 1
    assert tracer.counts["simplex.eval_term.calls"] == 1
    assert tracer.counts["graphs.require_valid.calls"] >= 3
    # require_valid in simplex reaches graphs.validate through the wrapper
    assert tracer.counts["graphs.validate.calls"] >= 3
    selfs = tracer.self_times()
    parse_total = sum(e - s for n, s, e, _ in tracer.spans if n == "terms.parse")
    assert 0 < selfs["terms.parse"] < parse_total


def test_script_fails_without_the_program(tmp_path):
    """A directory holding only BENCHMARK.json and the benchmark: exit != 0."""
    bench = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    shutil.copytree(bench, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(os.path.dirname(bench), "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "compose",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180,
                          env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)


def test_benchmark_json_names_every_reported_metric(tmp_path):
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert sorted(w["name"] for w in doc["workloads"]) == sorted(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] \
        == tracing.per_layer_spec()
    workload, knobs = _small("act")
    _, metrics, _ = run.end_to_end(workload, knobs, 1, 0, 0.0, str(tmp_path))
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} \
        == {name: unit for name, (_, unit) in metrics.items()}

"""Benchmark runner for propcalc.

    python3 perfbench/run.py --workload compose --seed 1 --seconds 10 --trace 0

Runs one workload in this process: one client, closed loop, no threads.
With `--trace 0` it reports the end-to-end metrics; with `--trace 1` it
installs span wrappers around the program's public functions and reports
the per-layer metrics.  The last line of standard output is one JSON
object with the keys `correct`, `attempted`, `failed` and `metrics`; the
lines before it record the interpreter, CPU count and model, seed and knob
values, which also go to `perfbench/out/`.  `--set key=value` overrides a
workload's size knob.

The program is imported from `src/` of the checkout that holds this
script; without it the script exits with code 2 and prints no result.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

SETUP_REPEATS = 3   # setup_s is the median of this many full set-ups
MIN_PASSES = 3      # each input's latency is its fastest of at least this many runs
CAL_EVERY = 10      # a calibration loop runs before every tenth op of a pass
# `calibration_loop` time on the reference host (2 vCPUs, Intel Xeon at 2.1 GHz,
# CPython 3.11.7), by the estimator that gives op_p50_ms; end-to-end times
# are scaled to that host speed
CAL_REF_S = 0.0065


def calibration_loop():
    """Fixed pure-Python work of the program's kind (dicts, sets, tuples,
    Fractions), independent of the program; returns its seconds."""
    t0 = time.perf_counter()
    counts = {}
    acc = Fraction(0)
    pairs = set()
    for i in range(2500):
        key = (i % 97, "e", i % 13)
        counts[key] = counts.get(key, 0) + 1
        acc += Fraction(i % 7 + 1, i % 11 + 2)
        pairs ^= {(i % 50, i % 3)}
        tuple(sorted((i % 5, i % 3, i % 7)))
    return time.perf_counter() - t0


def import_program():
    """Import propcalc from this checkout's src/, or return None."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import propcalc
    except ImportError as exc:
        print(f"cannot import propcalc from {src}: {exc}", file=sys.stderr)
        return None
    if os.path.dirname(os.path.dirname(os.path.abspath(propcalc.__file__))) != src:
        print(f"propcalc was imported from {propcalc.__file__}, not {src}",
              file=sys.stderr)
        return None
    return propcalc


def environment(args, knobs):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "knobs": knobs, "python": sys.version.split()[0],
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "cpu": cpu}


def parse_knobs(defaults, pairs):
    knobs = dict(defaults)
    for pair in pairs:
        key, _, value = pair.partition("=")
        if key not in knobs:
            raise SystemExit(f"unknown knob {key!r}; known: {sorted(knobs)}")
        knobs[key] = int(value)
    return knobs


class Harness:
    """Runs passes over a workload's input pool and checks every output."""

    def __init__(self, workload, inputs):
        self.workload = workload
        self.inputs = inputs
        self.answers = []     # verified output per input, or None if it failed
        self.attempted = 0
        self.failed = 0

    def warm_up(self, calibrations=None):
        """One timed pass; returns its op seconds.  Outputs are verified after.

        With `calibrations`, calibration loops are timed as in run_pass."""
        outs = []
        elapsed = 0.0
        for idx, inp in enumerate(self.inputs):
            if calibrations is not None and idx % CAL_EVERY == 0:
                calibrations.append(calibration_loop())
            t0 = time.perf_counter()
            try:
                out = self.workload.op(inp)
            except Exception:
                out = None
            elapsed += time.perf_counter() - t0
            outs.append(out)
        return elapsed, outs

    def set_answers(self, outs):
        self.answers = []
        for inp, out in zip(self.inputs, outs):
            ok = out is not None and self._verify(inp, out)
            self.answers.append(out if ok else None)

    def _verify(self, inp, out):
        try:
            return bool(self.workload.verify(inp, out))
        except Exception:
            return False

    def run_pass(self, after_op=None, calibrations=None):
        """Time each op; compare its output with the verified answer.

        Returns the pass's latencies in input order.  With `calibrations`,
        a calibration loop runs before every CAL_EVERY-th op and its time
        is appended there, so it samples the host when the ops do."""
        latencies = []
        for idx, inp in enumerate(self.inputs):
            if calibrations is not None and idx % CAL_EVERY == 0:
                calibrations.append(calibration_loop())
            t0 = time.perf_counter()
            try:
                out = self.workload.op(inp)
                raised = False
            except Exception:
                raised = True
            latencies.append(time.perf_counter() - t0)
            self.attempted += 1
            if raised or self.answers[idx] is None or out != self.answers[idx]:
                self.failed += 1
            if after_op is not None:
                after_op(inp)
        return latencies


def best_of(passes):
    """Each input's fastest latency over the passes."""
    return [min(column) for column in zip(*passes)]


def run_setup(workload, knobs, seed, workdir, calibrations=None):
    """Generate inputs, write files, warm up.  Returns (harness, outs, seconds).

    Calibration loops in the warm-up are timed into `calibrations` and are
    not part of the seconds."""
    t0 = time.perf_counter()
    if os.path.isdir(workdir):
        shutil.rmtree(workdir)
    os.makedirs(workdir)
    inputs = workload.build(random.Random(f"{workload.name}:{seed}"), knobs, workdir)
    built = time.perf_counter() - t0
    harness = Harness(workload, inputs)
    warm, outs = harness.warm_up(calibrations)
    return harness, outs, built + warm


def end_to_end(workload, knobs, seed, seconds, import_s, workdir):
    """Untraced run: returns (harness, end-to-end metrics, extra record).

    Times are scaled by CAL_REF_S over the calibration loop's time, taken
    by the same estimator as the metric: for op times, the median over
    its slots of the fastest over the passes; for setup_s, the median of
    the loops timed during the set-ups' warm-up passes.  A slow phase of
    the host slows the work and the calibration alike and cancels out;
    the record keeps the unscaled values.
    """
    setups, setup_cal = [], []
    for _ in range(SETUP_REPEATS):
        # free the previous pool first, so peak_rss_mb holds one set-up's
        harness = outs = None
        harness, outs, took = run_setup(workload, knobs, seed, workdir, setup_cal)
        setups.append(took)
    harness.set_answers(outs)
    passes, cal = [], []
    while sum(map(sum, passes)) < seconds or len(passes) < MIN_PASSES:
        cal.append([])
        passes.append(harness.run_pass(calibrations=cal[-1]))
    cal_s = statistics.median(best_of(cal))
    scale = CAL_REF_S / cal_s
    setup_scale = CAL_REF_S / statistics.median(setup_cal)
    best = best_of(passes)
    ms = [x * 1e3 for x in best]
    every = [x for lat in passes for x in lat]
    measured = {
        "ops_per_s": len(best) / sum(best),
        "op_p50_ms": statistics.median(ms),
        "op_p90_ms": statistics.quantiles(ms, n=10)[8],
        "setup_s": import_s + statistics.median(setups),
    }
    metrics = {
        "ops_per_s": (measured["ops_per_s"] / scale, "1/s"),
        "op_p50_ms": (measured["op_p50_ms"] * scale, "ms"),
        "op_p90_ms": (measured["op_p90_ms"] * scale, "ms"),
        "ok_ratio": ((harness.attempted - harness.failed) / harness.attempted, "ratio"),
        "setup_s": (measured["setup_s"] * setup_scale, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    extra = {"inputs": len(best), "passes": len(passes), "ops": len(every),
             "timed_s": sum(every), "setup_runs_s": setups, "import_s": import_s,
             "fail_ratio": harness.failed / harness.attempted,
             "calibration_s": cal_s, "scale": scale, "setup_scale": setup_scale,
             "unscaled": measured,
             # every execution, not only each input's fastest
             "all_ops_per_s": len(every) / sum(every),
             "all_op_p50_ms": statistics.median(every) * 1e3}
    return harness, metrics, extra


def traced(workload, knobs, seed, seconds, workdir, spans_path):
    """Traced run: untraced and traced passes alternate for `seconds`.

    Counts and self times are per traced pass; the set-up is traced only
    for `representative_cocycle`, whose self time is reported once.  The
    workload's replay, if any, records into a tracer of its own, which
    gives only the REPLAY_LAYERS metrics; every other metric counts the
    timed ops alone.
    """
    import tracing
    tracer = tracing.Tracer()
    tracer.install()
    tracer.on, tracer.only = True, {"complexes.representative_cocycle"}
    harness, outs, _ = run_setup(workload, knobs, seed, workdir)
    tracer.on, tracer.only = False, None
    harness.set_answers(outs)
    setup_self = tracer.self_times()
    setup_counts = dict(tracer.counts)
    tracer.uninstall()

    replayed = tracing.Tracer()
    replay = None
    if workload.replay is not None:
        def replay(inp):
            tracer.sink = replayed
            try:
                workload.replay(inp)
            finally:
                tracer.sink = tracer

    plain, marked = [], []
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end or not marked:
        plain.append(harness.run_pass())
        tracer.install()
        tracer.on = True
        marked.append(harness.run_pass(replay))
        tracer.on = False
        tracer.uninstall()
    traced_passes = len(marked)

    # the REPLAY_LAYERS metrics come from the replay alone, the others from the ops
    def replay_key(key):
        return key.startswith(tracing.REPLAY_LAYERS)

    selfs = {key: value for key, value in tracer.self_times().items()
             if not replay_key(key)}
    selfs.update((key, value) for key, value in replayed.self_times().items()
                 if replay_key(key))
    counts = {key: value - setup_counts.get(key, 0) for key, value in tracer.counts.items()
              if not replay_key(key)}
    counts.update((key, value) for key, value in replayed.counts.items() if replay_key(key))
    metrics = {}
    for name, unit, _ in tracing.COUNT_METRICS:
        total = counts.get(name, 0)
        value = total // traced_passes if total % traced_passes == 0 else total / traced_passes
        metrics[name] = (value, unit)
    for name, num, den in tracing.RATIO_METRICS:
        metrics[name] = (counts.get(num, 0) / counts[den] if counts.get(den) else 0.0, "ratio")
    for name in tracing.SELF_METRICS:
        layer = name[:-len(".self_s")]
        once = setup_self.get(layer, 0.0)
        metrics[name] = (once + (selfs.get(layer, 0.0) - once) / traced_passes, "s")
    overhead = sum(best_of(marked)) / sum(best_of(plain)) - 1
    metrics[tracing.OVERHEAD_METRIC] = (overhead, "ratio")
    tracer.write(spans_path)
    if replayed.spans:
        replayed.write(spans_path.replace(".tsv.gz", "-replay.tsv.gz"))
    extra = {"traced_passes": traced_passes, "plain_pass_s": [sum(p) for p in plain],
             "traced_pass_s": [sum(p) for p in marked], "spans": len(tracer.spans),
             "replay_spans": len(replayed.spans)}
    return harness, metrics, extra


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--set", action="append", default=[], metavar="KNOB=VALUE")
    args = ap.parse_args(argv)

    if import_program() is None:
        return 2
    sys.path.insert(0, HERE)
    import workloads
    import_s = time.perf_counter() - _T0

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    knobs = parse_knobs(workload.knobs, args.set)
    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        if args.trace:
            spans = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.tsv.gz")
            harness, metrics, extra = traced(workload, knobs, args.seed, args.seconds,
                                             workdir, spans)
        else:
            harness, metrics, extra = end_to_end(workload, knobs, args.seed, args.seconds,
                                                 import_s, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = environment(args, knobs)
    record.update(extra)
    result = {"correct": harness.failed == 0, "attempted": harness.attempted,
              "failed": harness.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record["result"] = result
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({k: v for k, v in record.items() if k != "result"}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

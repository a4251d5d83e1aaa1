#!/usr/bin/env python3
"""Benchmark for gtfa: four closed-loop workloads, one client, one op in flight.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --quick      # a few ops of every workload, traced and not

Run from anywhere; gtfa is imported from the src/ directory beside perfbench/.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the end-to-end
ones (END_TO_END below), with --trace 1 the per-layer ones (tracer.PER_LAYER).
See perfbench/README.md for the workloads and what each metric means.
"""

import os
import sys

# One BLAS/OpenMP thread and one gtfa worker in this process and every process
# it starts; set before numpy is first imported.  See README: thread counts.
THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GTFA_THREADS"):
    os.environ[_var] = THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

# Times are CPU seconds (README, End-to-end metrics); wall times go to the
# summary line.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("cpu_per_op_p75_s", "s", "lower"),
    ("cpu_tail_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]


def import_program():
    """Import gtfa from SRC, refusing any other copy."""
    if not os.path.isfile(os.path.join(SRC, "gtfa", "__init__.py")):
        sys.exit(f"error: gtfa sources not found under {SRC}")
    sys.path.insert(0, SRC)
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = SRC + (os.pathsep + old if old else "")
    import gtfa

    if os.path.dirname(os.path.dirname(os.path.abspath(gtfa.__file__))) != SRC:
        sys.exit(f"error: imported gtfa from {gtfa.__file__}, not from {SRC}")


def cpu_seconds() -> float:
    """User plus system CPU of this process and its waited-for children."""
    ch = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + ch.ru_utime + ch.ru_stime


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with a share p at or below it."""
    s = sorted(values)
    return s[max(0, math.ceil(p * len(s) - 1e-9) - 1)]


def kind_p75(samples: list[tuple[int, float]]) -> float:
    """Mean over the op kinds of a round of each kind's 75th percentile.

    An op's kind is its place in the round.  Taking the percentile within a
    kind keeps the mix of cheap and dear kinds from moving the figure; p75,
    not p50, because it sits in the machine's common slow phase (README,
    End-to-end metrics)."""
    by_kind: dict[int, list[float]] = {}
    for kind, value in samples:
        by_kind.setdefault(kind, []).append(value)
    return statistics.fmean(percentile(v, 0.75) for v in by_kind.values())


def measure(wl, seed: int, seconds: float, trace: bool, workdir: str, quick: bool = False):
    """Set up, warm up with one round, then run whole rounds for `seconds`
    of wall time and at least the workload's minimum op count."""
    import numpy as np

    import tracer
    from workloads import CheckFailed, WORKLOADS

    seed_seq = [seed, list(WORKLOADS).index(wl.name)]
    wl.prepare(np.random.default_rng(seed_seq + [1]), workdir)
    if trace and wl.in_process:
        tracer.install()

    setup_times = []   # (wall s, CPU s) per timed set-up

    def setup():
        wl.reset()
        gc.collect()
        c0, t0 = cpu_seconds(), time.perf_counter()
        wl.setup(np.random.default_rng(seed_seq), workdir)
        return time.perf_counter() - t0, cpu_seconds() - c0

    # The first set-up is untimed: it pays the one-time costs of the process
    # (lazy imports, first allocations) that no later set-up pays again.
    # Untraced runs spread the timed set-ups over the timed phase (below), so
    # that their median sees the same machine as the ops.  A traced run times
    # one set-up here, to give each layer its set-up share.
    setup()
    if trace:
        tracer.take_spans()
        setup()
    setup_spans = tracer.take_spans()
    repeats = 0 if trace else 1 if quick else wl.setup_repeats

    state = {"correct": True, "attempted": 0, "failed": 0}
    lat, cpu = [], []   # (kind, wall s) and (kind, CPU s) per timed op

    def execute(kind, run, check, record: bool):
        state["attempted"] += 1
        c0, t0 = cpu_seconds(), time.perf_counter()
        try:
            out = run()
        except Exception:
            traceback.print_exc()
            state["failed"] += 1
            return
        t1, c1 = time.perf_counter(), cpu_seconds()
        if record:
            lat.append((kind, t1 - t0))
            cpu.append((kind, c1 - c0))
        try:
            check(out)
        except CheckFailed as e:
            print(f"check failed: {e}", file=sys.stderr)
            state["correct"] = False

    for kind, (run, check) in enumerate(wl.round(0)):
        execute(kind, run, check, record=False)
    tracer.take_spans()
    if not wl.in_process:
        wl.spans.clear()
    gc.collect()
    calls0, hits0 = tracer.cache_counts()

    start, r = time.perf_counter(), 1
    while True:
        for kind, (run, check) in enumerate(wl.round(r)):
            execute(kind, run, check, record=True)
        r += 1
        elapsed = (time.perf_counter() - start) / seconds
        while len(setup_times) < min(repeats, math.ceil(repeats * elapsed)):
            setup_times.append(setup())
        if quick or (elapsed >= 1 and len(lat) >= wl.min_ops()):
            break
    while len(setup_times) < repeats:
        setup_times.append(setup())

    result = {k: state[k] for k in ("correct", "attempted", "failed")}
    if not lat:
        result["metrics"] = {}
        return result
    n = len(lat)
    wall = [t for _, t in lat]
    if not trace:
        who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
        values = {
            "setup_s": statistics.median(c for _, c in setup_times),
            "cpu_per_op_p75_s": kind_p75(cpu),
            "cpu_tail_s": percentile([c for _, c in cpu], wl.tail),
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        print(f"wall: setup_s={statistics.median(t for t, _ in setup_times):.4g} "
              f"latency_p75_s={kind_p75(lat):.4g} latency_tail_s={percentile(wall, wl.tail):.4g} "
              f"latency_p50_s={statistics.median(wall):.4g} ops_per_s={n / sum(wall):.4g}",
              flush=True)
    else:
        values = layer_metrics(wl, setup_spans, n, calls0, hits0)
        values["trace.cpu_per_op_p75_s"] = kind_p75(cpu)
        units = tracer.PER_LAYER
    result["metrics"] = {name: {"value": values[name], "unit": unit} for name, unit, _ in units}
    print(f"workload={wl.name} seed={seed} trace={int(trace)} rounds={r} ops={n} "
          f"op_seconds={sum(wall):.3f} tail=p{wl.tail * 100:g}", flush=True)
    return result


def layer_metrics(wl, setup_spans, n, calls0, hits0) -> dict:
    import tracer

    if wl.in_process:
        values = tracer.layer_values(tracer.summarize(setup_spans),
                                     tracer.summarize(tracer.take_spans()), n)
        calls1, hits1 = tracer.cache_counts()
        values["groups.build_calls"] = (calls1 - calls0) / n
        values["groups.cache_hits"] = (hits1 - hits0) / n
        values["cli.startup_s"] = 0.0
        return values
    # cli-files: one record per gtfa process of the timed phase
    spans, startup, calls, hits = [], 0.0, 0, 0
    for wall, proc_spans, proc_calls, proc_hits in wl.spans:
        base = len(spans)
        spans += [[name, parent + base if parent >= 0 else -1, *rest]
                  for name, parent, *rest in proc_spans]
        startup += wall - sum(t1 - t0 for name, _, t0, t1, *_ in proc_spans if name == "cli.main")
        calls += proc_calls
        hits += proc_hits
    values = tracer.layer_values({}, tracer.summarize(spans), n)
    values["cli.startup_s"] = startup / n
    values["groups.build_calls"] = calls / n
    values["groups.cache_hits"] = hits / n
    return values


def run_one(name: str, seed: int, seconds: float, trace: bool, quick: bool = False) -> dict:
    from workloads import WORKLOADS

    wl = WORKLOADS[name](traced=trace)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
    try:
        return measure(wl, seed, seconds, trace, workdir, quick)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", help="cli-files | dense-cyclic | verify-nonabelian | retrieval-sweep")
    p.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    p.add_argument("--seconds", type=float, default=10.0, help="wall time of the timed phase (default 10)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: report per-layer metrics from a traced run")
    p.add_argument("--quick", action="store_true",
                   help="one timed round with checks; without --workload, of every "
                        "workload, untraced and traced")
    args = p.parse_args(argv)

    import_program()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from workloads import WORKLOADS

    if args.quick and args.workload is None:
        # each workload and trace mode in a process of its own, as the real runs
        ok = True
        for name in WORKLOADS:
            for trace in ("0", "1"):
                proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--quick",
                                       "--workload", name, "--seed", str(args.seed),
                                       "--trace", trace], stdout=subprocess.PIPE, text=True)
                res = json.loads(proc.stdout.splitlines()[-1]) if proc.returncode == 0 else {}
                ok &= bool(res.get("correct")) and res.get("failed") == 0
                print(json.dumps({"workload": name, "trace": int(trace), **res}), flush=True)
        return 0 if ok else 1
    if args.workload not in WORKLOADS:
        p.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    res = run_one(args.workload, args.seed, args.seconds, bool(args.trace), args.quick)
    print(json.dumps(res), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

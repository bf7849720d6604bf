"""Benchmark of the fisheyestereo library: one workload per run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload solve-400 --seed 0 --seconds 10 --trace 0

The workloads, metrics, units and bounds are listed in BENCHMARK.json at the
root; `perfbench/layer_map.json` says which end-to-end metric each layer
metric should move, on which workload.

One process, closed loop, one client: each op starts when the previous one
returns. Set-up (import and input generation) is timed as `setup_s`. The loop
then runs ops until `--seconds` have passed and at least two ops are done.
Every op is checked; a failed check or a raised error counts as a failed op
and the run goes on.

With `--trace 1` the run reports per-layer metrics instead. Set-up is traced,
and ops alternate untraced and traced, so the same run gives the tracing
overhead. Spans are written to `.bench_out/` when the run ends.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The lines before it print
every metric with its unit, the checks, and the environment. The program is
imported from `src/` of the checkout; without it the run fails with exit code
1 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

# The modules that import NumPy (workloads, tracing) are imported inside the
# functions, after `cap_threads` and `import_program` have run.
ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
# BLAS/OpenMP pools are capped at one thread (at most nproc): the program is
# single-threaded NumPy, and its only BLAS calls are (n, 3) @ (3, 3) products.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Op:
    seconds: float
    traced: bool
    check: object          # workloads.Check
    root: int | None       # index of the op's root span when traced


def cap_threads() -> dict[str, str]:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return {var: os.environ[var] for var in THREAD_VARS}


def import_program():
    """Import fisheyestereo from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import fisheyestereo
    if src.resolve() not in Path(fisheyestereo.__file__).resolve().parents:
        raise ImportError(f"fisheyestereo imported from {fisheyestereo.__file__}, "
                          f"not from {src}")
    return fisheyestereo


def environment(caps: dict[str, str]) -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "threads": caps,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def tail_percentile(n: int) -> float | None:
    """Highest of the usual percentiles with at least ten samples beyond it."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            return p
    return None


def run_ops(workload, seconds: float, tracer) -> list[Op]:
    """Closed loop until `seconds` have passed and at least two ops are done.

    Traced runs alternate untraced and traced ops and stop after a traced one.
    """
    from workloads import Check
    ops = []
    start = time.perf_counter()
    k = 0
    while True:
        traced = tracer is not None and k % 2 == 1
        with tracer.installed() if traced else nullcontext():
            t = time.perf_counter()
            try:
                with tracer.span("op") if traced else nullcontext() as root:
                    out = workload.op()
                error = None
            except Exception:  # a raising op is a failed op, not a failed run
                error = traceback.format_exc()
            dt = time.perf_counter() - t
        if error is None:
            check = workload.check(out)
        else:
            print(error, file=sys.stderr)
            check = Check(False, "raised " + error.strip().splitlines()[-1])
        ops.append(Op(dt, traced, check, root))
        k += 1
        if (k >= 2 and (tracer is None or k % 2 == 0)
                and time.perf_counter() - start >= seconds):
            return ops


def end_to_end(workload, ops: list[Op], setup_s: float) -> dict[str, tuple]:
    """Every end-to-end metric as name -> (value, unit, note)."""
    times = [op.seconds for op in ops]
    ok = sum(op.check.ok for op in ops)
    n = len(times)
    m = {
        "op_s_median": (statistics.median(times), "s", f"n={n} ops"),
        "ops_per_s": (ok / sum(times), "1/s", f"{ok} ops passed, {workload.size}"),
        "setup_s": (setup_s, "s", "import, inputs"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB", "peak resident set of this process"),
        "fail_frac": ((n - ok) / n, "fraction", f"{n - ok} of {n} ops failed"),
    }
    p = tail_percentile(n)
    if p is not None:
        import numpy as np
        m["op_s_tail"] = (float(np.percentile(times, p)), "s", f"p{p:g}, n={n} ops")
    valid = sum(op.check.valid for op in ops)
    if valid:
        for tau, attr in ((1, "bad1"), (3, "bad3")):
            bad = sum(getattr(op.check, attr) for op in ops)
            m[f"tau{tau}_pct"] = (100.0 * bad / valid, "%",
                                  f"pooled over {n} ops, {valid} covisible px")
    return m


def per_layer(ops: list[Op], tracer, setup_root: int) -> dict[str, float]:
    import tracing
    roots = [op.root for op in ops if op.traced]
    m = tracing.layer_metrics(tracer.spans, roots)
    m.update(tracing.layer_metrics(tracer.spans, [setup_root], prefix="setup."))
    plain = statistics.median(op.seconds for op in ops if not op.traced)
    traced = statistics.median(op.seconds for op in ops if op.traced)
    m["trace.overhead_pct"] = 100.0 * (traced - plain) / plain
    m["trace.unattributed_s"] = statistics.mean(tracing.unattributed_s(tracer.spans, roots))
    m["trace.op_wall_s"] = statistics.mean(tracer.spans[r][2] - tracer.spans[r][1]
                                           for r in roots)
    return m


def select(computed: dict, specs: list[dict]) -> dict:
    """The BENCHMARK.json metrics, in its order, with its units."""
    return {s["name"]: {"value": computed[s["name"]], "unit": s["unit"]} for s in specs}


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_workload(workload, seed: int, seconds: float, trace: bool, out_dir: Path,
                 t0: float, env: dict, spec: dict) -> dict:
    """Set up, run and check one workload; print the report, return the result."""
    import tracing
    tracer = tracing.Tracer() if trace else None
    with tracer.installed() if trace else nullcontext():
        with tracer.span("setup") if trace else nullcontext() as setup_root:
            workload.setup(seed)
    setup_s = time.perf_counter() - t0
    ops = run_ops(workload, seconds, tracer)

    failed = [op for op in ops if not op.check.ok]
    print(f"workload {workload.name}  seed {seed}  trace {int(trace)}  "
          f"input {workload.size}")
    print("environment " + json.dumps(env))
    print("load: closed loop, 1 client, ops run back to back in one process")
    print("checks: " + workload.checks_stated())
    for op in failed:
        print(f"FAILED op: {op.check.reason}")
    e2e = end_to_end(workload, [op for op in ops if not op.traced], setup_s)
    for name, (value, unit, note) in e2e.items():
        print(f"{name} {value:.6g} {unit}  ({note})")
    if "op_s_tail" not in e2e:
        print("op_s_tail not reported: fewer than 20 ops in the run")
    print("waiting: none measured; no layer queues work or retries")
    if trace:
        computed = per_layer(ops, tracer, setup_root)
        specs = spec["per_layer"]
        for s in specs:
            print(f"{s['name']} {computed[s['name']]:.6g} {s['unit']}")
        wall, rest = computed["trace.op_wall_s"], computed["trace.unattributed_s"]
        print(f"per traced op: top-level layer spans {wall - rest:.6f} s of op wall "
              f"{wall:.6f} s; difference {rest:.6f} s outside every layer span")
    else:
        computed, specs = {k: v[0] for k, v in e2e.items()}, spec["end_to_end"]
    result = {"correct": not failed, "attempted": len(ops), "failed": len(failed),
              "metrics": select(computed, specs)}

    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{seed}-trace{int(trace)}"
    record = {"env": env, "result": result,
              "end_to_end": {k: v[0] for k, v in e2e.items()},
              "per_layer": computed if trace else None,
              "ops": [{"seconds": op.seconds, "traced": op.traced, **vars(op.check)}
                      for op in ops]}
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if trace:
        (out_dir / f"{stem}-spans.json").write_text(json.dumps(tracer.spans) + "\n")
    return result


def main(argv=None) -> int:
    t0 = time.perf_counter()
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    caps = cap_threads()
    try:
        import_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 1
    import workloads

    result = run_workload(workloads.make(args.workload), args.seed, args.seconds,
                          bool(args.trace), OUT_DIR, t0, environment(caps), spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

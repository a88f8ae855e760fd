"""Benchmark of the ``polsamp`` pipeline, one workload per process.

    python3 bench/run.py --workload pool_cycle --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40 --trace 0

Run from the repository root; the package is imported from ``src/``.
Each run repeats the workload's cycle of timed ops, each followed by an
untimed oracle check, while another cycle still fits in ``--seconds``.  The
cycle time is the sum of each op's median time in the run.  Set-up runs
three times before the first cycle and once after each cycle; the set-up
time is the median.  The load is a closed loop: one caller, each op waits
for the previous one.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced cycles and prints the per-layer metrics.  Preceding
stdout lines hold the run record and per-op times; the last line is
``{"correct", "attempted", "failed", "metrics"}``.  See bench/README.md.
"""

import os
import sys

# One BLAS thread: steadier on a shared machine, and within nproc everywhere.
# Set before numpy is imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import gc
import glob
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
WORKLOAD_NAMES = ("pool_cycle", "pareto_tall", "density_law")
SETUP_REPS = 3      # before the first cycle; one more follows each cycle
MIN_CYCLES = 2      # a slow host still gives more than one sample per op
# what set-up costs a fresh process: interpreter start, imports, fixed nets
PROBE = (f"import sys; sys.path[:0] = [{SRC!r}, {BENCH!r}]; "
         f"import workloads, tracing")

def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_all(args):
    """Each workload in its own process, one after another."""
    rc = 0
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], cwd=ROOT)
        rc = rc or child.returncode
    return rc


def run_record(args, np, scipy):
    sha = None
    if shutil.which("git") and os.path.exists(os.path.join(ROOT, ".git")):
        git = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        sha = git.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "polarity_sampling", "*.py"))):
        with open(path, "rb") as fh:
            src.update(fh.read())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": sha, "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(), "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
    }


def cycle_total(cycle):
    return sum(t for _, t in cycle["ops"])


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_op(op, tracer):
    """Time one op (traced if a tracer is given), then check it untimed."""
    from workloads import CheckFailed

    gc.collect()
    ctx = tracer.installed() if tracer else contextlib.nullcontext()
    t0 = time.perf_counter()
    try:
        with ctx:
            t0 = time.perf_counter()
            result = op.run()
            elapsed = time.perf_counter() - t0
        op.check(result)
        return elapsed, True
    except CheckFailed as exc:
        log(f"check failed: {op.name}: {exc}")
    except Exception:
        log(f"op failed: {op.name}:\n{traceback.format_exc()}")
    return time.perf_counter() - t0, False


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    try:
        import numpy as np
        import scipy
        import tracing
        import workloads
    except ImportError as exc:
        log(f"error: cannot import the package from {SRC}: {exc}")
        return 2

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)   # metric names and units

    workdir = os.path.join(WORK, f"{args.workload}-s{args.seed}-p{os.getpid()}")
    os.makedirs(workdir)
    try:
        cls = workloads.WORKLOADS[args.workload]

        def set_up():
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", PROBE], check=True, cwd=ROOT)
            fresh = cls(args.seed, workdir)
            fresh.write_inputs()
            setups.append(time.perf_counter() - t0)
            return fresh

        setups = []
        for _ in range(SETUP_REPS):
            wl = set_up()
        inputs = set(os.listdir(workdir))

        tracer = tracing.Tracer() if args.trace else None
        cycles = []   # {"traced", "ops": [(op name, seconds)], "out_bytes"}
        attempted = failed = 0
        start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(cycles) % 2 == 1
            times = []
            for op in wl.ops():
                elapsed, ok = run_op(op, tracer if traced else None)
                attempted += 1
                failed += not ok
                times.append((op.name, elapsed))
            out_bytes = sum(os.path.getsize(os.path.join(workdir, f))
                            for f in os.listdir(workdir) if f not in inputs)
            cycles.append({"traced": traced, "ops": times, "out_bytes": out_bytes})
            # one more set-up between cycles spreads the set-ups over the run;
            # it rewrites the same inputs, and the checked state stays on wl
            set_up()
            # stop when the timed part of one more cycle would overrun
            if (len(cycles) >= MIN_CYCLES and time.perf_counter() - start
                    + cycle_total(cycles[-1]) > args.seconds):
                break

        # peak of the whole run: a cycle's peak takes one of two values that
        # vary from process to process; over all cycles it mostly takes the larger
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        plain = [c for c in cycles if not c["traced"]]
        traced_cycles = [c for c in cycles if c["traced"]]
        med = statistics.median
        # median time of each op of the cycle (op i of every cycle is the same
        # op on the same inputs) over the untraced cycles of this run
        op_med = [med(c["ops"][i][1] for c in plain) for i in range(len(plain[0]["ops"]))]
        cycle_s = sum(op_med)
        by_name = {}
        for (name, _), t in zip(plain[0]["ops"], op_med):
            by_name.setdefault(name, []).append(t)
        ops = {f"{name}_s": med(ts) for name, ts in by_name.items()}
        if "law_pool" in by_name:
            ops["density_law_s"] = sum(by_name["law_pool"]) + sum(by_name["law_rho"])
        if "pool_build" in by_name:
            ops["pool_file_mb"] = os.path.getsize(wl.path("pool.json")) / 1e6

        record = run_record(args, np, scipy)
        record.update(cycles=len(plain), traced_cycles=len(traced_cycles),
                      setup_reps=len(setups), load="closed loop, 1 caller")
        print(json.dumps({"run_record": record}))
        print(json.dumps({"ops": ops, "setups_s": setups,
                          "cycles": [[c["traced"], c["ops"]] for c in cycles],
                          "attempted": attempted, "failed": failed,
                          "ops_failed_frac": failed / attempted}))

        if args.trace:
            totals = tracer.layer_totals()
            n = len(traced_cycles)
            layers = {k: v / n for k, v in totals.items()}
            traced_s = med([cycle_total(c) for c in traced_cycles])
            scale = layers.get("cpa.affine_maps.rows", 0) / tracing.LAYER_ROWS
            for i, t in enumerate(tracing.affine_layer_times(wl.net)):
                layers[f"cpa.affine_maps.layer{i}.s"] = t * scale
            layers["trace.cycle_s"] = traced_s
            layers["trace.remainder_s"] = sum(map(cycle_total, traced_cycles)) / n \
                - layers.pop("covered_s")
            layers["trace.overhead_s"] = traced_s - med(map(cycle_total, plain))
            print(json.dumps({"layers": layers}))
            values, listed = layers, spec["per_layer"]
        else:
            values = {"setup_s": med(setups), "cycle_s": cycle_s,
                      "peak_rss_mb": peak_kb / 1024,
                      "output_mb": med([c["out_bytes"] for c in plain]) / 1e6}
            listed = spec["end_to_end"]
        metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
                   for m in listed}
        print(json.dumps({"correct": failed == 0, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

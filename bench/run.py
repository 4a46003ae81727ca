"""Layered benchmark for nilpal: end-to-end metrics per workload, and a
traced run that gives per-layer numbers.

    python3 bench/run.py --workload wide-setup --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports nilpal from `src/`.  Each
run starts fresh worker processes (`worker.py`) one after another, never
more than one at a time, so every worker pays its own set-up and has its
own memory high-water mark.  A worker runs the workload as a closed loop
with a single caller; the inputs come from `--seed`.

Workloads (see `workloads.py`):
- `step2-witness`, group (4,2): `solve_conjugator` on the case
  distribution of `verify prop3.3 --rank 4`; per-call overhead and the
  peel dominate, the kernel does little.
- `auto-step3`, group (3,3): `classify`, `inverse_with_factors`,
  `compose_symbols`, `decompose_central`, `decompose_bglm`,
  `tameness_residue`; `autos`, the lattice solver and `foxring` dominate.
- `wide-setup`, group (4,5): `collect` of short words; set-up (the
  monomial table and the weight-5 solver) is a large share of the cost.

`--trace 0` starts three plain workers.  The first two each run the same
list of `PLAIN_OPS` ops drawn from the seed (at least 200, so that p95
has ten samples above it), once and then again in further rounds while
another round should end within half of `--seconds`; the third only sets
up, which keeps a run of the slower workloads near a minute on a slow
host.

A shared host's speed swings by up to 1.6x for minutes at a time, and
neither longer runs nor the fastest of many raw timings repeat from run
to run (spreads of 0.25-0.35 of the median over 4-5 seeds on a 2-vCPU
VM).  So each worker brackets every ~20 ms of ops with a fixed
pure-Python probe that runs no nilpal code, and scales the ops' times by
`REF_PROBE_S` (0.6 ms) over the probe's time: an op's latency reads as
its time on a host where the probe takes 0.6 ms, and a change to nilpal
scales it by the same factor as the raw time.  An op's latency is then
the fastest over all its runs in both list workers.  The end-to-end
metrics:
- `throughput_ops_s`: ops in the list per second of their latencies;
- `latency_p50_ms`, `latency_p95_ms`: over the ops of the list;
- `setup_s`: median over the workers of the time from process spawn to
  the first timed op (interpreter start, import, `hall_basis`, warm-up),
  scaled by the mean of the probes at its start and end;
- `peak_rss_mb`: median over the workers of their own `ru_maxrss`.
The log also prints the raw (unscaled) throughput, percentiles and
set-up time.

`--trace 1` starts a `baseline` worker and a `traced` worker that run the
same `TRACE_OPS` ops once, so counts repeat exactly for a seed, and
prints the per-layer metrics: span counts and self times in the timed
region, the same for set-up under `setup.`, `mem.py_peak_mb`
(tracemalloc peak through set-up, baseline worker) and
`trace.overhead_ratio` (traced over untraced throughput on the same ops).

Every output is checked outside the timed region; wrong outputs,
exceptions, and replays whose output differs from the first round count
as failed calls.  Before the result, the run prints an `env` line
(backend, Python, nproc, commit, seed, and `host_ref_ms`, the time of a
fixed pure-Python loop that shows how fast the host ran), the fail ratio,
and a digest of the rendered outputs of the op list, which every worker
must reproduce and which must match between two commits that compute the
same answers.  The last line is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  `--smoke` runs a few ops per
worker, for `test_bench.py`.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("step2-witness", "auto-step3", "wide-setup")
# Ops in a plain run's list, at least 200 so that p95 has ten samples
# above it.  auto-step3's is a whole number of cycles of its six kinds;
# wide-setup's holds each of its 278 words once, in an order drawn from
# the seed, because a sample of them moved p95 by 12% from seed to seed.
PLAIN_OPS = {"step2-witness": 2000, "auto-step3": 204, "wide-setup": 278}
TRACE_OPS = {"step2-witness": 6000, "auto-step3": 80, "wide-setup": 200}
PLAIN_WORKERS = 3  # set-ups per plain run, for the medians of setup_s and peak_rss_mb
LIST_WORKERS = 2  # of them run the op list; the others only set up
SMOKE_OPS = 3
WORKER_TIMEOUT_S = 55  # three plain workers then end within 180 s

END_TO_END = (
    ("throughput_ops_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

_SPAN_FIELDS = (
    ("kernel.poly_mul", ("calls", "self_s", "pairs", "out_terms")),
    ("kernel.poly_inv", ("calls", "self_s")),
    ("kernel.poly_pow", ("calls", "self_s")),
    ("nilpotent.peel", ("calls", "self_s", "in_terms")),
    ("nilpotent.block_poly", ("calls", "self_s")),
    ("nilpotent.collect", ("calls", "self_s")),
    ("nilpotent.multiply", ("calls", "self_s")),
    ("nilpotent.bar", ("calls", "self_s")),
    ("nilpotent.from_exponents", ("calls", "self_s")),
    ("intlinalg.snf", ("calls", "s", "cells", "max_dim")),
    ("intlinalg.mat_vec", ("calls", "self_s")),
    ("intlinalg.lattice_solve", ("calls", "s", "found_ratio")),
    ("autos.solve_conjugator", ("calls", "self_s", "found_ratio")),
    ("autos.compose", ("calls", "self_s")),
    ("autos.endo_apply", ("calls", "self_s")),
    ("autos.inverse_with_factors", ("calls", "s")),
    ("autos.classify", ("calls", "s")),
    ("autos.decompose_central", ("calls", "s")),
    ("autos.decompose_bglm", ("calls", "s")),
    ("autos.tameness_residue", ("calls", "s")),
    ("foxring.bglm_residue", ("calls", "self_s")),
)
_SETUP_SPAN_FIELDS = (
    ("intlinalg.snf", ("calls", "s", "cells", "max_dim")),
    ("intlinalg.mat_mul", ("calls", "self_s")),
    ("kernel.poly_mul", ("calls", "self_s", "pairs")),
)
_FIELD_UNITS = {"calls": "count", "pairs": "count", "out_terms": "count",
                "in_terms": "count", "cells": "count", "max_dim": "count",
                "self_s": "s", "s": "s", "found_ratio": "ratio"}

PER_LAYER = (
    tuple((f"{span}.{f}", _FIELD_UNITS[f]) for span, fields in _SPAN_FIELDS for f in fields)
    + tuple((f"setup.{span}.{f}", _FIELD_UNITS[f])
            for span, fields in _SETUP_SPAN_FIELDS for f in fields)
    + (
        ("nilpotent.hall_basis.s", "s"),
        ("nilpotent.table_entries", "count-computed"),
        ("mem.py_peak_mb", "MB"),
        ("trace.overhead_ratio", "ratio"),
        ("trace.ops", "count"),
        ("trace.outside_spans_s", "s"),
    )
)


class WorkerError(RuntimeError):
    pass


def run_worker(workload, seed, mode, ops, seconds):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--ops", str(ops),
           "--seconds", repr(seconds)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise WorkerError(f"{mode} worker of {workload} exited {proc.returncode}")
    return json.loads(proc.stdout.decode().splitlines()[-1])


def commit_id():
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    return proc.stdout.decode().strip() or "unknown"


def percentile(values, q):
    """The q-th percentile (1..99) by the exclusive method."""
    return statistics.quantiles(values, n=100)[q - 1]


def timings(workers, key):
    """Throughput and percentiles of the fastest time per op over the workers."""
    lat = [min(runs) for runs in zip(*(w[key] for w in workers if w["ops"]))]
    return {
        "throughput_ops_s": len(lat) / sum(lat),
        "latency_p50_ms": 1000 * statistics.median(lat),
        "latency_p95_ms": 1000 * percentile(lat, 95),
    }


def end_to_end(workers):
    return {
        **timings(workers, "latencies_s"),
        "setup_s": statistics.median(w["setup_s"] for w in workers),
        "peak_rss_mb": statistics.median(w["maxrss_mb"] for w in workers),
    }


def per_layer(baseline, traced):
    stats = {(phase, name): stat for phase, name, stat in traced["stats"]}

    def field(phase, span, f):
        st = stats.get((phase, span), {})
        if f == "self_s":
            return st.get("self_ns", 0) / 1e9
        if f == "s":
            return st.get("total_ns", 0) / 1e9
        if f == "found_ratio":
            return st["found"] / st["calls"] if st else 0.0
        return st.get(f, 0)

    out = {}
    for span, fields in _SPAN_FIELDS:
        for f in fields:
            out[f"{span}.{f}"] = field("timed", span, f)
    for span, fields in _SETUP_SPAN_FIELDS:
        for f in fields:
            out[f"setup.{span}.{f}"] = field("setup", span, f)
    n, k = traced["n"], traced["k"]
    monomials = sum(n**w for w in range(k + 1))
    timed_self = sum(st["self_ns"] for (phase, _), st in stats.items() if phase == "timed")
    traced_s = sum(traced["raw_latencies_s"])
    out.update({
        "nilpotent.hall_basis.s": field("setup", "nilpotent.hall_basis", "s"),
        "nilpotent.table_entries": monomials**2,
        "mem.py_peak_mb": baseline["py_peak_mb"],
        "trace.overhead_ratio": sum(baseline["latencies_s"]) / sum(traced["latencies_s"]),
        "trace.ops": traced["ops"],
        "trace.outside_spans_s": traced_s - timed_self / 1e9,
    })
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help=f"{SMOKE_OPS} ops per worker")
    args = ap.parse_args(argv)
    # A TERM while a worker runs raises SystemExit, on which subprocess.run
    # kills the worker and waits for it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if not (ROOT / "src" / "nilpal" / "__init__.py").is_file():
        print(f"error: no nilpal sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    seconds = args.seconds
    try:
        if args.trace:
            ops = SMOKE_OPS if args.smoke else TRACE_OPS[args.workload]
            workers = [run_worker(args.workload, args.seed, mode, ops, 0.0)
                       for mode in ("baseline", "traced")]
            metrics = per_layer(*workers)
            specs = PER_LAYER
        else:
            if args.smoke:
                plan = [(SMOKE_OPS, 0.0)]
            else:
                listed = (PLAIN_OPS[args.workload], seconds / LIST_WORKERS)
                plan = [listed] * LIST_WORKERS + [(0, 0.0)] * (PLAIN_WORKERS - LIST_WORKERS)
            workers = [run_worker(args.workload, args.seed, "plain", ops, share)
                       for ops, share in plan]
            metrics = end_to_end(workers)
            specs = END_TO_END
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    backends = {w["backend"] for w in workers}
    if len(backends) != 1:
        print(f"error: workers ran on different kernel backends {sorted(backends)}",
              file=sys.stderr)
        return 1
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "backend": backends.pop(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "commit": commit_id(),
        "group": [workers[0]["n"], workers[0]["k"]],
        "host_ref_ms": statistics.median(w["host_ref_ms"] for w in workers),
    }
    attempted = sum(w["calls"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    print("env " + json.dumps(env, sort_keys=True))
    for i, w in enumerate(workers):
        print(f"worker {i}: ops={w['ops']} rounds={w['rounds']} failed={w['failed']} "
              f"setup_s={w['setup_s']:.4f} raw_setup_s={w['raw_setup_s']:.4f} "
              f"import_s={w['import_s']:.4f} hall_basis_s={w['hall_basis_s']:.4f} "
              f"warmup_s={w['warmup_s']:.4f} loop_s={w['loop_s']:.3f} "
              f"maxrss_mb={w['maxrss_mb']:.1f} host_ref_ms={w['host_ref_ms']:.3f}")
    print(f"fail_ratio {failed / attempted:.6g} ({failed} of {attempted} calls)")
    if not args.trace:
        raw = timings(workers, "raw_latencies_s")
        raw["setup_s"] = statistics.median(w["raw_setup_s"] for w in workers)
        print("raw (unscaled) " + " ".join(f"{k}={v:.6g}" for k, v in raw.items()))
    digests = {w["digest"] for w in workers if w["ops"]}
    if len(digests) != 1:
        failed += 1
        print("error: the workers rendered different outputs", file=sys.stderr)
    print(f"digest {args.workload} seed={args.seed}: {min(digests)} "
          f"over the {workers[0]['ops']} ops of the list")
    if args.trace:
        for phase, parent, name, calls, total_ns in sorted(
                workers[1]["edges"], key=lambda e: (e[0], -e[4])):
            print(f"edge {phase} {parent or '-'} -> {name}: calls={calls} "
                  f"s={total_ns / 1e9:.6f}")
    for name, unit in specs:
        label = " (computed from n,k)" if unit == "count-computed" else ""
        print(f"metric {name} = {metrics[name]:.6g} {unit}{label}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in specs},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark worker: a fresh interpreter that runs one workload.

`run.py` starts each worker as its own process, one at a time, so the
`hall_basis` cache and the `ru_maxrss` high-water mark start empty.  The
worker imports nilpal from the checkout's `src/`, builds the basis, runs
the workload's warm-up, then runs a fixed list of `--ops` ops, drawn from
`--seed` alone, as a closed loop with one caller: build an input, time
the engine call, check the output untimed.  It prints one JSON object on
stdout.

The list runs once, then again in further rounds while another round
should still end within `--seconds` of loop time.  Each round builds its
inputs afresh, so no object-level cache carries over, and must render the
same outputs as the first round; a differing output counts as a failed
op.

A shared host's speed swings with its neighbours' load, by up to 1.6x
and for minutes at a time, so no run-level statistic of raw times
repeats.  Two defences, both outside the timed calls: `HostProbe` times a
fixed loop before and after each chunk of ops, keeps the worker on the
fastest CPU, and scales the chunk's latencies to a reference probe time;
and an op's latency is its fastest round (`run.py` then takes the
fastest over the workers too).  The set-up time is scaled likewise, by
the probes at its start and end.  The raw times are reported beside the
scaled ones.

Modes:
- `plain`: the untraced measurement;
- `baseline`: untraced, with `tracemalloc` on from start through warm-up
  (the Python-heap peak of set-up), then off for the ops;
- `traced`: the tracer's spans on during set-up and around each op.
"""

import argparse
import hashlib
import json
import math
import os
import random
import resource
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _dict_loop(iterations):
    """Seconds taken by a fixed dict-and-int loop, a probe of CPU speed."""
    t = time.perf_counter()
    acc = {}
    for i in range(iterations):
        acc[i & 1023] = acc.get(i & 1023, 0) + i * 7
    return time.perf_counter() - t


def _reference_ms():
    """Median of five 40000-step probes, printed as `host_ref_ms`.

    Shared hosts drift in speed; this shows when two runs were taken at
    different host speeds.
    """
    return 1000 * sorted(_dict_loop(40000) for _ in range(5))[2]


PROBE_STEPS = 4000
REF_PROBE_S = 0.0006  # the probe time that op latencies are scaled to
CHUNK_S = 0.02  # op time between two probes


class HostProbe:
    """Follows the host's speed with a fixed loop that runs no nilpal code.

    On a shared host each virtual CPU slows by up to ~1.6x while neighbours
    load its physical core, in spells of a fraction of a second to
    minutes.  Before each chunk of ops (`CHUNK_S` of op time) the worker
    times the probe on each allowed CPU and moves itself to the fastest;
    after the chunk it times the probe again.  The chunk's op latencies
    are scaled by `REF_PROBE_S` over the faster of the two probe times, so
    they read as on a host where the probe takes `REF_PROBE_S`.  Only the
    worker's own affinity changes.
    """

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []

    def before(self):
        """Move to the fastest allowed CPU; the probe time there."""
        if len(self.cpus) < 2:
            return _dict_loop(PROBE_STEPS)
        times = {}
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            times[cpu] = _dict_loop(PROBE_STEPS)
        best = min(times, key=times.get)
        os.sched_setaffinity(0, {best})
        return times[best]

    def after(self):
        return _dict_loop(PROBE_STEPS)


def _import_engine():
    sys.path.insert(0, str(ROOT / "src"))
    import nilpal

    src = (ROOT / "src").resolve()
    if src not in Path(nilpal.__file__).resolve().parents:
        raise SystemExit(f"nilpal imported from {nilpal.__file__}, not from {src}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("plain", "baseline", "traced"), required=True)
    ap.add_argument("--ops", type=int, required=True, help="ops in the list (0: set up only)")
    ap.add_argument("--seconds", type=float, required=True,
                    help="start another round only if it should end within this loop time")
    ap.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    args = ap.parse_args()

    host = HostProbe()
    _dict_loop(PROBE_STEPS)  # the first run of a loop is slower: warm it up
    setup_probe = host.before()
    if args.mode == "baseline":
        tracemalloc.start()
    t_import = time.monotonic()
    _import_engine()
    from nilpal import kernel
    from workloads import WORKLOADS

    tracer = None
    if args.mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.phase = "setup"
    work = WORKLOADS[args.workload]
    t_basis = time.monotonic()
    work.setup()
    t_warm = time.monotonic()
    work.warm_up()
    t_ready = time.monotonic()
    # Set-up is one long call, so it is scaled by the mean of the probes
    # on its CPU at its start and end.
    setup_probe = (setup_probe + host.after()) / 2
    out = {
        "backend": kernel.BACKEND,
        "setup_s": (t_ready - args.t0) * REF_PROBE_S / setup_probe,
        "raw_setup_s": t_ready - args.t0,
        "import_s": t_basis - t_import,
        "hall_basis_s": t_warm - t_basis,
        "warmup_s": t_ready - t_warm,
    }
    if args.mode == "baseline":
        out["py_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
    if tracer is not None:
        tracer.phase = None

    failed = 0

    def run_op(rng, i, first=None):
        """Draw op i, time its engine call and check the output untimed.

        `first` is the op's line in the first round, which a replay must
        repeat.  Returns (seconds, line), the line being "kind: output".
        """
        nonlocal failed
        kind, run, check = work.make_op(rng, i)
        error = None
        if tracer is not None:
            tracer.phase = "timed"
        t1 = time.perf_counter()
        try:
            result = run()
        except Exception as exc:  # an engine failure is a failed op, not a crash
            error = exc
        t2 = time.perf_counter()
        if tracer is not None:
            tracer.phase = None
        if error is None:
            try:
                ok, rendered = check(result)
            except Exception as exc:
                error = exc
        if error is not None:
            ok, rendered = False, f"error {type(error).__name__}: {error}"
        line = f"{kind}: {rendered}"
        if ok and first is not None and line != first:
            ok, rendered = False, f"replay gave {line!r}, first round {first!r}"
        if not ok:
            failed += 1
            if failed <= 3:
                if error is not None:
                    traceback.print_exception(error, file=sys.stderr)
                print(f"wrong {kind} output: {rendered}", file=sys.stderr)
        return t2 - t1, line

    lat = [math.inf] * args.ops
    raw = [math.inf] * args.ops
    renders = []
    rounds = 0
    loop_start = time.perf_counter()
    elapsed = 0.0
    while args.ops and (rounds == 0 or elapsed * (rounds + 1) / rounds <= args.seconds):
        rng = random.Random(args.seed)
        i = 0
        while i < args.ops:
            before = host.before()
            chunk = []
            busy = 0.0
            while i < args.ops and busy < CHUNK_S:
                seconds, line = run_op(rng, i, renders[i] if rounds else None)
                if not rounds:
                    renders.append(line)
                chunk.append((i, seconds))
                busy += seconds
                i += 1
            scale = REF_PROBE_S / min(before, host.after())
            for j, seconds in chunk:
                raw[j] = min(raw[j], seconds)
                lat[j] = min(lat[j], seconds * scale)
        rounds += 1
        elapsed = time.perf_counter() - loop_start

    out.update({
        "host_ref_ms": _reference_ms(),
        "ops": len(lat),
        "rounds": rounds,
        "calls": len(lat) * rounds,
        "failed": failed,
        "latencies_s": lat,
        "raw_latencies_s": raw,
        "loop_s": elapsed,
        "digest": hashlib.sha256("\n".join(renders).encode()).hexdigest(),
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "n": work.n,
        "k": work.k,
    })
    if tracer is not None:
        out["stats"] = [[phase, name, stat] for (phase, name), stat in tracer.stats.items()]
        out["edges"] = [[*key, *val] for key, val in tracer.edges.items()]
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()

"""Runs one workload in this process and prints its result as one JSON
line. ``run.py`` starts it with the BLAS thread pools limited to one
thread and ``PYTHONPATH`` pointing at the checkout's ``src``.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --trace 0|1 --t0 MONOTONIC_NS [--setup-only]

``--t0`` is the parent's ``time.monotonic_ns()`` just before it started
this process, so ``setup_s`` runs from process start to the first timed
operation. The untraced run does whole rounds until ``--seconds`` have
passed; the traced run does the workload's fixed number of rounds, so
its counts repeat exactly for a seed.

The speed of the machine this runs on drifts by tens of percent within
seconds (other tenants share its cores), and a whole run can fall in a
slow stretch. So the untraced run times a fixed calibration that does not
touch psgroupoid at least every ``CAL_EVERY_NS`` between operations, and
scales each operation's time to a machine on which that calibration
takes its reference time: a kernel of Python calls and small numpy
operations (``CAL_REF_NS``) for in-process work, a fresh interpreter
importing numpy (``PROBE_REF_NS``) for work in child processes and for
the set-up time. The raw figures stay in the run record.
"""

from __future__ import annotations

import argparse
import bisect
from array import array
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

OUT = Path(__file__).resolve().parent / "out"
CAL_REF_NS = 80_000
PROBE_REF_NS = 120_000_000
CAL_EVERY_NS = 20_000_000
CAL_WINDOW_NS = 60_000_000
_CAL_ARRAY = np.linspace(0.0, 1.0, 16)
IMPORT_PROBES = 3
IMPORT_PROBE = ("import time; t = time.perf_counter(); import psgroupoid.cli; "
                "print(time.perf_counter() - t)")


def _fib(n):
    return n if n < 2 else _fib(n - 1) + _fib(n - 2)


def calibration_ns() -> int:
    """Best of three runs of a fixed kernel of Python calls and small
    numpy operations, the mix psgroupoid's own time goes to."""
    best = None
    for _ in range(3):
        t0 = time.perf_counter_ns()
        _fib(13)
        a = _CAL_ARRAY
        for _ in range(40):
            a = np.sin(a) + 1.0
        dt = time.perf_counter_ns() - t0
        best = dt if best is None else min(best, dt)
    return best


def process_probe_ns() -> int:
    """Wall time of a fresh interpreter that imports numpy: process
    start, dynamic loading and import work, without psgroupoid."""
    t0 = time.perf_counter_ns()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    return time.perf_counter_ns() - t0


def scipy_import_s(importtime_log: str) -> float:
    """Cumulative import time of the outermost scipy modules in an
    ``-X importtime`` log (children are printed before their parent, one
    indentation step deeper)."""
    done = []  # finished nodes: (depth, name, cumulative_us, children)
    for line in importtime_log.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        children = []
        while done and done[-1][0] == depth + 1:
            children.append(done.pop())
        done.append((depth, name.strip(), int(cum), children))

    def scipy_us(node):
        _, name, cum, children = node
        if name == "scipy" or name.startswith("scipy."):
            return cum
        return sum(scipy_us(c) for c in children)

    return sum(scipy_us(n) for n in done) / 1e6


def import_times():
    """Median over fresh interpreters of the time of ``import
    psgroupoid.cli`` and of its scipy part."""
    total, scipy = [], []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", IMPORT_PROBE],
                              capture_output=True, text=True, timeout=60, check=True)
        total.append(float(proc.stdout.split()[-1]))
        scipy.append(scipy_import_s(proc.stderr))
    return statistics.median(total), statistics.median(scipy)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--t0", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    # one CPU for this process and its children, so that the calibration
    # samples the CPU the timed work runs on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    import workloads

    OUT.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, OUT)
    if tracer is not None:
        wl.trace_children(tracer)
    ops = wl.round(0)
    wl.warm_up(ops)
    setup_raw_s = (time.monotonic_ns() - args.t0) / 1e9
    setup_s = setup_raw_s * PROBE_REF_NS / process_probe_ns()
    # operations in fresh processes are scaled by the process probe, the
    # others by the calibration kernel
    if wl.in_child_processes:
        calibrate, ref_ns = process_probe_ns, PROBE_REF_NS
    else:
        calibrate, ref_ns = calibration_ns, CAL_REF_NS
    cal = [calibrate()]
    cal_t = [time.perf_counter_ns()]
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
        return 0

    raw = array("q")
    starts = array("q")
    kinds = array("l")
    kind_names = {}
    failures = {}
    passed = failed = unexpected = 0
    index = op_id = 0
    start = time.perf_counter()
    while True:
        for op in ops:
            if tracer is None and time.perf_counter_ns() - cal_t[-1] >= CAL_EVERY_NS:
                cal.append(calibrate())
                cal_t.append(time.perf_counter_ns())
            kinds.append(kind_names.setdefault(op.kind, len(kind_names)))
            if tracer is not None:
                tracer.begin_op(op_id)
            t0 = time.perf_counter_ns()
            try:
                out = op.call()
                error = None
            except Exception as err:  # a failed operation is counted, not fatal
                error = f"raised {type(err).__name__}: {err}"
            raw.append(time.perf_counter_ns() - t0)
            starts.append(t0)
            if tracer is not None:
                tracer.end_op()
            wl.after_op(op_id)
            op_id += 1
            if error is None:
                try:
                    error = op.check(out)
                except Exception as err:
                    error = f"check raised {type(err).__name__}: {err}"
            if error is None:
                passed += 1
                continue
            failed += 1
            unexpected += op.fault is None
            key = (op.kind, json.dumps(op.inputs, sort_keys=True))
            entry = failures.setdefault(key, {"kind": op.kind, "fault": op.fault,
                                              "inputs": op.inputs, "detail": error,
                                              "count": 0})
            entry["count"] += 1
        index += 1
        if tracer is not None:
            if index >= wl.trace_rounds:
                break
        elif time.perf_counter() - start >= args.seconds:
            break
        ops = wl.round(index)

    who = resource.RUSAGE_CHILDREN if args.workload == "cli-cold" else resource.RUSAGE_SELF
    peak_rss_mib = resource.getrusage(who).ru_maxrss / 1024.0
    cal.append(calibrate())
    cal_t.append(time.perf_counter_ns())
    # each operation is scaled by the median of the samples taken within
    # CAL_WINDOW_NS of it, and at least the ones just before and after it
    scaled = []
    for t, s0 in zip(raw, starts):
        s1 = s0 + t
        lo = min(bisect.bisect_left(cal_t, s0 - CAL_WINDOW_NS), bisect.bisect_right(cal_t, s0) - 1)
        hi = max(bisect.bisect_right(cal_t, s1 + CAL_WINDOW_NS), bisect.bisect_right(cal_t, s1) + 1)
        scaled.append(t * ref_ns / statistics.median(cal[lo:hi]))
    by_kind = {}
    names = {v: k for k, v in kind_names.items()}
    for kind, t in zip(kinds, scaled):
        by_kind.setdefault(names[kind], []).append(t)
    result = {
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "attempted": len(raw),
        "failed": failed,
        "unexpected": unexpected,
        "rounds": index,
        "op_time_s": sum(raw) / 1e9,
        "calibration_ms": {"samples": len(cal), "median": statistics.median(cal) / 1e6,
                           "min": min(cal) / 1e6, "max": max(cal) / 1e6},
        "raw": {"ops_per_s": passed / (sum(raw) / 1e9),
                "op_p50_ms": statistics.median(raw) / 1e6},
        "kind_p50_ms": {k: statistics.median(v) / 1e6 for k, v in by_kind.items()},
        "failures": list(failures.values()),
        "faults": workloads.FAULTS,
        "metrics": {
            "ops_per_s": passed / (sum(scaled) / 1e9),
            "op_p50_ms": statistics.median(scaled) / 1e6,
            "peak_rss_mib": peak_rss_mib,
        },
    }
    if tracer is not None:
        layers = tracer.layer_metrics()
        layers["cli.import_s"], layers["cli.import_scipy_s"] = import_times()
        result["layers"] = layers
        tracer.write(OUT / f"trace-{args.workload}.tsv")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

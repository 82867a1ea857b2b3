"""psgroupoid benchmark: four workloads, outputs checked, one JSON line.

    python3 perfbench/run.py [--workload NAME|all] [--seed N]
                             [--seconds S] [--trace 0|1]

Run from anywhere; the package is imported from ``src`` next to this
directory. Each workload runs in its own worker process (``worker.py``)
with BLAS thread pools limited to one thread. Untraced runs report the
end-to-end metrics of ``BENCHMARK.json``; ``setup_s`` is the median over
``SETUPS`` fresh processes. Traced runs report its per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Known faults (see
README.md) count as failed operations and leave ``correct`` true; any
other failed check makes it false and the exit code 1. A run that cannot
measure at all (no ``src/psgroupoid``, a worker that crashed) prints no
result and exits with 2.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUPS = 5
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark could not measure (as opposed to a wrong output)."""


def worker_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(args, deadline, setup_only=False):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    cmd += ["--t0", str(time.monotonic_ns())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker for {args.workload} ran past the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker for {args.workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(args, spec, deadline):
    """Run one workload; return (result line, worker record)."""
    if args.trace:
        record = run_worker(args, deadline)
        values = record["layers"]
        wanted = spec["per_layer"]
    else:
        setups = [run_worker(args, deadline, setup_only=True)["setup_s"]
                  for _ in range(SETUPS - 1)]
        record = run_worker(args, deadline)
        setups.append(record["setup_s"])
        record["setups_s"] = setups
        values = dict(record["metrics"], setup_s=statistics.median(setups))
        wanted = spec["end_to_end"]
    result = {
        "correct": record["unexpected"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    return result, record


def report(args, result, record):
    mode = "traced" if args.trace else "untraced"
    known = record["failed"] - record["unexpected"]
    print(f"== {args.workload}  seed {args.seed}  {mode}  {record['rounds']} rounds, "
          f"{record['op_time_s']:.3f} s in operations")
    print(f"   attempted {record['attempted']}  failed {record['failed']} "
          f"(known faults {known}, other {record['unexpected']})")
    for name, m in result["metrics"].items():
        print(f"   {name:<40} {m['value']:.6g} {m['unit']}")
    for f in record["failures"]:
        label = f"known fault {f['fault']}" if f["fault"] else "UNEXPECTED"
        print(f"   failed x{f['count']}: {f['kind']} [{label}] inputs {json.dumps(f['inputs'])}: "
              f"{f['detail']}")
    for name in sorted({f["fault"] for f in record["failures"] if f["fault"]}):
        print(f"   {name}: {record['faults'][name]}")


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "psgroupoid" / "__init__.py").is_file():
        print(f"no psgroupoid package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=names + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be a non-negative integer")

    OUT.mkdir(exist_ok=True)
    selected = names if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + DEADLINE_S * len(selected)
    results = {}
    try:
        for name in selected:
            one = argparse.Namespace(**dict(vars(args), workload=name))
            result, record = measure(one, spec, deadline)
            report(one, result, record)
            suffix = "-trace" if args.trace else ""
            (OUT / f"{name}-seed{args.seed}{suffix}.json").write_text(
                json.dumps({"result": result, "record": record}, indent=1))
            results[name] = result
    except BenchError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 2

    if len(selected) == 1:
        final = results[selected[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

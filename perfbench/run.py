"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload train-utt --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from the repository root. The package is imported from ``src/`` of
the same checkout. Inputs are generated from ``--seed`` into a scratch
directory under the checkout, which is removed at the end. With
``--trace 0`` the result holds the end-to-end metrics; with ``--trace 1``
it holds the per-layer metrics of a traced run and the tracing overhead.
Earlier stdout lines record the environment and the input distribution;
the last line is the result object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NPROC = len(os.sched_getaffinity(0))
# One load-generating process on one core. A second OpenBLAS thread buys ~10%
# on train-word but spin-waits on the other core between calls (~1.6 s of CPU
# per wall second), so the process fills both vCPUs of a shared 2-vCPU host
# and its short-call latency tails swung from run to run; one thread keeps
# the load on one core (<= nproc).
BLAS_THREADS = "1"
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = BLAS_THREADS


def environment(seed: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy without the dict mode of show_config
        blas = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "emofuse").glob("*.py")):
        digest.update(path.read_bytes())
    return {"nproc": NPROC, "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": int(BLAS_THREADS), "git_commit": commit,
            "source_sha256": digest.hexdigest()[:16], "seed": seed}


def run_all(args) -> int:
    """Each workload in its own process, so none inherits another's caches; prints
    every metric by name and unit, then one combined result line."""
    import workloads
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            print(f"{name:<11} {metric:<40} {entry['value']:>14.6g} {entry['unit']}")
            combined["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import emofuse
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 1
    if Path(emofuse.__file__).resolve().parent != ROOT / "src" / "emofuse":
        print(f"perfbench: imported emofuse from {emofuse.__file__}, not from this checkout",
              file=sys.stderr)
        return 1
    import workloads
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; pick one of {workloads.WORKLOADS}")

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    ledger = workloads.Ledger()
    try:
        run = workloads.traced if args.trace else workloads.end_to_end
        metrics, setup, detail = run(args.workload, args.seed, args.seconds, work, ledger)
        inputs = workloads.input_summary(setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".perfbench_work").rmdir()
        except OSError:
            pass
    print(json.dumps({"env": environment(args.seed), "workload": args.workload,
                      "trace": args.trace, "inputs": inputs, "detail": detail,
                      "failed_frac": ledger.failed / max(ledger.attempted, 1),
                      "errors": ledger.errors[:10]}))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": max(ledger.attempted, 1),
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

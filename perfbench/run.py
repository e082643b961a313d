"""Run one gapbound benchmark workload and print its metrics.

    python3 perfbench/run.py --workload impurity-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The workload runs in a fresh worker process
(``worker.py``) that imports ``gapbound`` from the checkout's ``src``, with
``GAPBOUND_THREADS`` unset and the BLAS pinned to one thread.  Set-up is timed
in further fresh processes that stop once set-up is done, and ``setup_s`` is
the median over all of them.

With ``--trace 0`` the last line of output holds the ``end_to_end`` metrics of
``BENCHMARK.json``; with ``--trace 1`` it holds the ``per_layer`` metrics from
a traced run.  The line before it is the run record: versions, thread
settings, seed, failures, and the untraced and traced wall times.
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
WORKLOADS = ("impurity-sweep", "fuzz-mixed", "strip-certify")
SETUP_PROBES = 4  # set-up-only processes; with the measured run, setup_s is a median of 5
RUN_LIMIT_S = 170  # all workers of one run together
PINNED_THREADS = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def worker_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "GAPBOUND_THREADS"}
    env.update(PINNED_THREADS)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_worker(args: list[str], timeout: float) -> tuple[float, dict]:
    """Start a worker; returns (start time, its JSON result).  Exits on failure."""
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            env=worker_env(), cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        sys.exit(f"worker {args} did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"worker {args} exited with code {proc.returncode}")
    return t0, json.loads(proc.stdout.strip().splitlines()[-1])


def commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--max-items", type=int, default=0,
                   help="stop after this many items (smoke tests)")
    p.add_argument("--perturb-reference", type=float, default=0.0,
                   help="shift every reference value (smoke test of the correctness gate)")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "gapbound" / "__init__.py").is_file():
        sys.exit(f"no gapbound sources under {ROOT / 'src'}; run from a full checkout")
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)

    deadline = time.monotonic() + RUN_LIMIT_S
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    setup = []
    for _ in range(SETUP_PROBES):
        t0, probe = run_worker(base + ["--setup-only"], deadline - time.monotonic())
        setup.append(probe["ready"] - t0)
    t0, res = run_worker(
        base + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                "--max-items", str(args.max_items),
                "--perturb-reference", repr(args.perturb_reference)],
        deadline - time.monotonic(),
    )
    setup.append(res["ready"] - t0)

    attempted, failed = res["attempted"], len(res["failures"])
    if args.trace:
        measured = res["metrics"]
        wanted = spec["per_layer"]
    else:
        measured = {
            "items_per_s": res["items_per_s"],
            "item_p50_ms": res["item_p50_ms"],
            "peak_rss_mib": res["peak_rss_mib"],
            "setup_s": statistics.median(setup),
            "verified_ratio": (attempted - failed) / attempted,
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": measured.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit(), "nproc": os.cpu_count(),
        **res["environment"],
        "setup_s_samples": setup,
        "attempted": attempted, "failed": failed, "fail_ratio": failed / attempted,
        "failures": res["failures"][:5],
    }
    for key in ("wall_s", "item_p90_ms", "item_p90_samples", "trace_items"):
        if key in res:
            record[key] = res[key]
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

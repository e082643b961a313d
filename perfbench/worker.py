"""One workload in one process: set up, run the timed or traced phase, report.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``.
Prints one JSON object as its last line.  With ``--setup-only`` it stops when
set-up is done and reports only the moment it got there, so that ``run.py``
can time set-up (interpreter start, imports, input generation) in fresh
processes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

import gapbound  # noqa: E402

if not Path(gapbound.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"gapbound imported from {gapbound.__file__}, not from {ROOT / 'src'}")

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from reference import load_reference  # noqa: E402
from tracer import ROOT as ROOT_SPAN, Tracer  # noqa: E402
from workloads import WORKLOADS, default_api  # noqa: E402

P90_MIN_ITEMS = 100  # so that at least 10 samples lie beyond the 90th percentile


def run_items(workload, api, items, reference, run=None):
    """Run items in order; returns (latencies, failures).  Checks are not timed."""
    run = run or workload.run
    latencies, failures = [], []
    for item in items:
        t0 = time.perf_counter()
        try:
            out = run(api, item)
        except Exception as exc:  # a raising item is a failed item; keep measuring
            latencies.append(time.perf_counter() - t0)
            failures.append((item.key, [f"{type(exc).__name__}: {exc}"]))
            continue
        latencies.append(time.perf_counter() - t0)
        _, problems = workload.check(item, out, reference.get(item.key))
        if problems:
            failures.append((item.key, problems))
    return latencies, failures


def timed_phase(workload, items, reference, seconds, max_items):
    """Whole rounds of items until ``seconds`` have passed (or ``max_items`` ran).

    A round is one item except on workloads that mix item sizes on purpose.
    """
    api = default_api()
    latencies, round_means, failures = [], [], []
    start = time.perf_counter()
    k = 0
    while True:
        rnd = [items[(k + j) % len(items)] for j in range(workload.round_size)]
        if max_items:
            rnd = rnd[: max_items - k]
        lat, fail = run_items(workload, api, rnd, reference)
        latencies += lat
        round_means.append(statistics.fmean(lat))
        failures += fail
        k += len(rnd)
        if (max_items and k >= max_items) or time.perf_counter() - start >= seconds:
            break
    wall = time.perf_counter() - start
    attempted = len(latencies)
    out = {
        "attempted": attempted,
        "failures": failures,
        "wall_s": wall,
        "items_per_s": (attempted - len(failures)) / wall,
        # an item's latency is its round's mean: on strip-certify a run's median
        # would otherwise hang on the few strips of the middle width
        "item_p50_ms": 1e3 * statistics.median(round_means),
    }
    if attempted >= P90_MIN_ITEMS:
        out["item_p90_ms"] = 1e3 * statistics.quantiles(latencies, n=10)[-1]
        out["item_p90_samples"] = attempted
    return out


def traced_phase(workload, items, reference, max_items):
    """The workload's fixed traced item set, each item run untraced and traced.

    The two runs of an item are back to back, traced first on every other
    item, so that host noise and warm caches fall on both sides alike.
    ``max_items`` replaces the set's size, as when tracing the whole sweep grid.
    """
    n = max_items or workload.trace_items
    plain, api = default_api(), default_api()
    tracer = Tracer()
    root = tracer.wrap(workload.run, ROOT_SPAN)
    untraced, traced, failures = [], [], []
    for k in range(n):
        item = [items[k % len(items)]]
        for trace in ((False, True) if k % 2 == 0 else (True, False)):
            if trace:
                with tracer.installed(api):
                    lat, fail = run_items(workload, api, item, reference, run=root)
                traced += lat
            else:
                lat, fail = run_items(workload, plain, item, reference)
                untraced += lat
            failures += fail
    metrics = tracer.layer_metrics()
    wall, untraced_wall = sum(traced), sum(untraced)
    layer_total = sum(v for k, v in metrics.items() if k.endswith("_s"))
    metrics.update({
        "trace.wall_s": wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": wall - untraced_wall,
        "trace.unattributed_s": wall - layer_total,
    })
    return {"attempted": 2 * n, "failures": failures, "trace_items": n, "metrics": metrics}


def environment():
    blas = {}
    for mod in (np, scipy):
        dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas[mod.__name__] = f"{dep.get('name')} {dep.get('version')}"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v, "unset")
                         for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "GAPBOUND_THREADS": os.environ.get("GAPBOUND_THREADS", "unset"),
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--max-items", type=int, default=0)
    p.add_argument("--perturb-reference", type=float, default=0.0)
    args = p.parse_args(argv)

    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench_tmp" / str(os.getpid())
    try:
        items = workload.setup(args.seed, workdir)
        reference = load_reference(workload.name, args.perturb_reference)
        result = {"ready": time.monotonic()}
        if not args.setup_only:
            if args.trace:
                result.update(traced_phase(workload, items, reference, args.max_items))
            else:
                result.update(
                    timed_phase(workload, items, reference, args.seconds, args.max_items)
                )
            result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            result["environment"] = environment()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another worker's directory is still there
            pass
    print(json.dumps(result, allow_nan=False, default=_json_default))


def _json_default(obj):
    if isinstance(obj, (np.integer, np.floating)):
        return obj.item()
    raise TypeError(f"cannot encode {type(obj).__name__}")


if __name__ == "__main__":
    main()

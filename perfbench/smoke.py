"""The benchmark's own tests, on one or two items per workload.

    python3 perfbench/smoke.py

Checks that every metric of ``BENCHMARK.json`` is printed with its unit, that
traced spans nest (summed self times are at most the traced wall time), that
the correctness gate is not vacuous (a deliberately perturbed reference must
fail items), and that the benchmark refuses to run without the program's
sources.  Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from record import invoke  # noqa: E402

ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# items per smoke run
SMOKE_ITEMS = {"impurity-sweep": 2, "fuzz-mixed": 4, "strip-certify": 1}


def run(workload: str, trace: int, items: int, *extra: str) -> dict:
    code, lines = invoke(["--workload", workload, "--seed", "7", "--seconds", "0",
                          "--trace", str(trace), "--max-items", str(items), *extra])
    if code != 0 or not lines:
        raise SystemExit(f"{workload} trace={trace}: exit code {code}")
    return lines[-1]


def expect(ok: bool, what: str):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        raise SystemExit(1)


def check_metrics(workload: str, result: dict, declared: list[dict]):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    expect(got == want, f"{workload}: every metric printed with its unit")
    expect(result["correct"] and result["failed"] == 0, f"{workload}: correct")


def check_nesting(workload: str, metrics: dict):
    values = {name: m["value"] for name, m in metrics.items()}
    layer_self = sum(v for k, v in values.items() if k.endswith("_s") and not k.startswith("trace."))
    wall = values["trace.wall_s"]
    expect(0 < layer_self <= wall * (1 + 1e-9),
           f"{workload}: summed layer self time {layer_self:.4f} s <= traced wall {wall:.4f} s")


def check_gate(workload: str, items: int):
    result = run(workload, 0, items, "--perturb-reference", "1e-3")
    ratio = result["metrics"]["verified_ratio"]["value"]
    expect(not result["correct"] and result["failed"] > 0 and ratio < 1,
           f"{workload}: perturbed reference fails items (fail_ratio {1 - ratio:g})")


def check_refuses_without_sources():
    bare = ROOT / ".perfbench_tmp" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        code, lines = invoke(["--workload", "impurity-sweep", "--seed", "1",
                              "--seconds", "1", "--trace", "0"], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:  # a running worker still has its directory there
            pass
    expect(code != 0 and not any("correct" in line for line in lines),
           f"refuses to run without the program's sources (exit code {code})")


def main() -> int:
    for workload, items in SMOKE_ITEMS.items():
        check_metrics(workload, run(workload, 0, items), SPEC["end_to_end"])
        traced = run(workload, 1, items)
        check_metrics(workload, traced, SPEC["per_layer"])
        check_nesting(workload, traced["metrics"])
        check_gate(workload, items)
    check_refuses_without_sources()
    return 0


if __name__ == "__main__":
    sys.exit(main())

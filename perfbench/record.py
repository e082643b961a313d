"""Write a run record: every workload untraced and traced, with one seed.

    python3 perfbench/record.py --seed 1 --out perfbench/records/BENCH_1.json

For each workload the file holds the run record (commit, nproc, Python,
numpy, scipy and BLAS versions, pinned BLAS threads, seed, GAPBOUND_THREADS
unset, failures) and the metrics of one untraced and one traced run; the
traced run's ``trace.*`` metrics give its untraced and traced wall time and
the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402


def invoke(args: list[str], cwd: Path = HERE.parent) -> tuple[int, list[dict]]:
    """Run ``run.py`` with ``args``; returns its exit code and its JSON output lines."""
    proc = subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=900)
    lines = []
    for line in proc.stdout.splitlines():
        try:
            lines.append(json.loads(line))
        except json.JSONDecodeError:
            pass
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    return proc.returncode, lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    args = p.parse_args(argv)

    out = {}
    for name in args.workloads:
        out[name] = {}
        for label, trace in (("untraced", "0"), ("traced", "1")):
            code, lines = invoke(["--workload", name, "--seed", str(args.seed),
                                  "--seconds", str(args.seconds), "--trace", trace])
            if code != 0:
                return code
            out[name][label] = {"record": lines[-2]["record"], "result": lines[-1]}
            print(f"{name} {label}: correct={lines[-1]['correct']}", file=sys.stderr)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Reference outputs of every catalog item, recorded at one commit.

Run ``python3 perfbench/reference.py [workload ...]`` from the repository
root to record them again; it refuses to record an item that fails a check.
A run compares each item's values against these with the relative tolerance
``workloads.RTOL``, stored in each file as ``rtol``.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _path(name: str) -> Path:
    return HERE / "reference" / f"{name}.json"


def load_reference(name: str, perturb: float = 0.0) -> dict[str, dict]:
    """Reference values by item key; ``perturb`` shifts each by perturb * max(|v|, 1).

    A perturbed reference exists to show that the correctness gate fails items.
    """
    with open(_path(name)) as fh:
        items = json.load(fh)["items"]
    if perturb:
        items = {
            key: {k: v if v is None else v + perturb * max(abs(v), 1.0) for k, v in vals.items()}
            for key, vals in items.items()
        }
    return items


def record(workload, workdir: Path) -> dict:
    from workloads import RTOL, default_api

    api = default_api()
    items = {}
    for item in workload.setup(0, workdir):
        values, problems = workload.check(item, workload.run(api, item), {})
        if problems:
            raise SystemExit(f"{workload.name} item {item.key} fails: {problems}")
        items[item.key] = values
    return {"workload": workload.name, "rtol": RTOL, "items": dict(sorted(items.items()))}


def main(names):
    sys.path.insert(0, str(HERE.parent / "src"))
    from workloads import WORKLOADS

    workdir = HERE.parent / ".perfbench_tmp" / "reference"
    try:
        for name in names or WORKLOADS:
            data = record(WORKLOADS[name], workdir)
            _path(name).parent.mkdir(exist_ok=True)
            with open(_path(name), "w") as fh:
                json.dump(data, fh, indent=1, allow_nan=False)
                fh.write("\n")
            print(f"{name}: {len(data['items'])} items")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # a running worker still has its directory there
            pass


if __name__ == "__main__":
    main(sys.argv[1:])

"""The README's examples and option lists, and the names the benchmark harness wraps."""

import ast
import hashlib
import importlib
import importlib.util
import re
import shlex
import sys
from pathlib import Path

import gapbound
from gapbound import cli
from gapbound.fuzz import random_model, trial_rng

ROOT = Path(__file__).resolve().parent.parent


def _load(monkeypatch, path: Path):
    """Import a benchmark module from its file, writing no bytecode next to it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    name = f"_bench_{path.stem}"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_readme_python_example_runs(tmp_path, monkeypatch):
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert blocks, "README has no python example"
    monkeypatch.chdir(tmp_path)
    for code in blocks:
        exec(compile(code, "README.md", "exec"), {})


def test_readme_command_lines_parse():
    readme = (ROOT / "README.md").read_text()
    (block,) = re.findall(r"## Command line\n\n```sh\n(.*?)```", readme, re.S)
    lines = [ln for ln in block.splitlines() if ln.startswith("gapbound ")]
    assert lines, "README has no command-line example"
    parser = cli.build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])  # exits on an unknown option


def test_readme_command_line_flags_exist():
    # a flag the "Command line" section names, in an example or in prose,
    # is an option of some subcommand: a deleted flag cannot stay documented
    readme = (ROOT / "README.md").read_text()
    (section,) = re.findall(r"\n## Command line\n(.*?)\n## ", readme, re.S)
    named = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", section))
    assert named, "README names no flag"
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if a.choices and isinstance(a.choices, dict)]
    known = {flag for p in sub.choices.values() for flag in p._option_string_actions}
    assert sorted(named - known) == []


def test_readme_config_keys_match_the_cli():
    text = (ROOT / "README.md").read_text()
    (keys,) = re.findall(r"--config cfg\.json` with keys\s+`([^`]*)`", text)
    assert sorted(k.strip() for k in keys.split(",")) == sorted(cli._CONFIG_KEYS)


def test_benchmark_entry_points_resolve(monkeypatch):
    tracer = _load(monkeypatch, ROOT / "perfbench" / "tracer.py")
    workloads = _load(monkeypatch, ROOT / "perfbench" / "workloads.py")
    missing = [name for name in workloads.API_NAMES if not hasattr(gapbound, name)]
    assert missing == []
    api = workloads.default_api()
    unresolved = []
    for targets in tracer.SPANS.values():
        for target in targets:
            where, attr = target.split(":")
            owner = api if where == "api" else importlib.import_module(where)
            if not hasattr(owner, attr):
                unresolved.append(target)
    assert unresolved == []


def test_the_decay_fit_exceptions_are_gone():
    # an unavailable fit is a returned DecayFit, not an exception
    import gapbound.errors

    for name in ("InsufficientData", "NonDecaying"):
        assert not hasattr(gapbound, name)
        assert not hasattr(gapbound.errors, name)


def test_unused_imports_are_tracer_targets():
    # a name a module imports but never reads is kept only so that the
    # benchmark tracer can wrap it there; any other is dead and should go
    tracer = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    (spans,) = [ast.literal_eval(node.value) for node in tracer.body
                if isinstance(node, ast.Assign) and node.targets[0].id == "SPANS"]
    targets = {target for span in spans.values() for target in span}
    unused = []
    for path in sorted((ROOT / "src" / "gapbound").glob("*.py")):
        if path.name == "__init__.py":  # its imports are the package's exports
            continue
        tree = ast.parse(path.read_text())
        imports = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
        imported = {
            alias.asname or alias.name.split(".")[0]
            for node in imports if getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"gapbound.{path.stem}:{name}" for name in sorted(imported - read)]
    assert [name for name in unused if name not in targets] == []


def test_files_are_opened_in_textfile_only():
    # one module decides encoding, line ends and byte-order marks
    opened = []
    for path in sorted((ROOT / "src" / "gapbound").glob("*.py")):
        calls = [n for n in ast.walk(ast.parse(path.read_text())) if isinstance(n, ast.Call)]
        if any(isinstance(c.func, ast.Name) and c.func.id == "open" for c in calls):
            opened.append(path.name)
    assert opened == ["textfile.py"]


def test_small_float_literals_are_named_constants():
    # a tolerance is named once, next to its module's other constants: a
    # float literal with 0 < |v| < 1e-6 may appear only in a module-level
    # assignment
    stray = []
    for path in sorted((ROOT / "src" / "gapbound").glob("*.py")):
        tree = ast.parse(path.read_text())
        named = {
            id(n) for stmt in tree.body if isinstance(stmt, (ast.Assign, ast.AnnAssign))
            for n in ast.walk(stmt)
        }
        stray += [
            f"{path.name}:{n.lineno}: {n.value!r}" for n in ast.walk(tree)
            if isinstance(n, ast.Constant) and isinstance(n.value, float)
            and 0 < abs(n.value) < 1e-6 and id(n) not in named
        ]
    assert stray == []


def test_traced_benchmark_items_pass_their_checks(tmp_path, monkeypatch):
    # one item of each workload under the tracer: every wrapped entry point
    # and every counter hook runs, and the item still matches its reference
    tracer = _load(monkeypatch, ROOT / "perfbench" / "tracer.py")
    workloads = _load(monkeypatch, ROOT / "perfbench" / "workloads.py")
    reference = _load(monkeypatch, ROOT / "perfbench" / "reference.py")
    for name, workload in workloads.WORKLOADS.items():
        item = workload.setup(1, tmp_path / name)[0]
        api = workloads.default_api()
        t = tracer.Tracer()
        with t.installed(api):
            out = workload.run(api, item)  # a hook that raises fails here
        assert t.calls, name
        _, problems = workload.check(item, out, reference.load_reference(name).get(item.key))
        assert problems == [], (name, item.key)


def test_strip_certify_reports_a_failed_coupling_bound(tmp_path, monkeypatch):
    # a coupling constant a thousandfold too small fails the Appendix-B check:
    # verify_appendixB returns the failed report, and the benchmark's check
    # (read only) counts the item as failed by naming it
    import gapbound.bounds as bounds_mod

    workloads = _load(monkeypatch, ROOT / "perfbench" / "workloads.py")
    workload = workloads.WORKLOADS["strip-certify"]
    item = workload.setup(1, tmp_path)[0]
    real = bounds_mod.c1_constant
    monkeypatch.setattr(bounds_mod, "c1_constant", lambda envelope: 1e-3 * real(envelope))
    out = workload.run(workloads.default_api(), item)
    assert not out.appendix_b.ok
    _, problems = workload.check(item, out, None)
    assert "Appendix-B coupling bound failed" in problems


# sha256 of format_model: the strip-certify catalogue model of width 6,
# realization 0, and the model of fuzz-mixed item "0".  The fuzz model's
# norms come from LAPACK's SVD; recorded with numpy 2.4.6 on x86-64.
BENCHMARK_MODEL_SHA256 = {
    "strip-certify": "ac20228e0c18ec9750d2a1857ae7665e321ee4ca4597417d9e4ccd3c67d20a14",
    "fuzz-mixed": "4014a651d6a3632c64b4e4541abe62d786add03ec8c6ef0e3fd5ca8f82d952db",
}


def test_benchmark_models_render_to_recorded_bytes(monkeypatch):
    # the benchmark reads these models through model files and the
    # offdiag/onsite views: a change of the model representation that
    # alters what they hold fails here, before the benchmark runs
    workloads = _load(monkeypatch, ROOT / "perfbench" / "workloads.py")
    family, seed = workloads.WORKLOADS["fuzz-mixed"].catalog()["0"]
    models = {
        "strip-certify": workloads.WORKLOADS["strip-certify"].model(6, 0),
        "fuzz-mixed": random_model(trial_rng(seed, 0), family=family)[0],
    }
    for name, spec in models.items():
        digest = hashlib.sha256(gapbound.format_model(spec).encode()).hexdigest()
        assert digest == BENCHMARK_MODEL_SHA256[name], name


def test_default_sweep_matches_benchmark_reference(tmp_path, monkeypatch):
    # every point of the default L = 500 grid against the recorded
    # impurity-sweep reference (read only) at the benchmark's RTOL, so that
    # a change of numerics fails here before it fails the benchmark
    workloads = _load(monkeypatch, ROOT / "perfbench" / "workloads.py")
    reference = _load(monkeypatch, ROOT / "perfbench" / "reference.py")
    workload = workloads.WORKLOADS["impurity-sweep"]
    refs = reference.load_reference(workload.name)
    api = workloads.default_api()
    items = workload.setup(0, tmp_path)
    assert len(items) == len(refs) == 100
    failed = {}
    for item in items:
        _, problems = workload.check(item, workload.run(api, item), refs.get(item.key))
        if problems:
            failed[item.key] = problems
    assert failed == {}


def test_tracer_solve_hook_reads_the_band_only(monkeypatch):
    # the hook sizes the operator by np.shape, which reads BandedHermitian.shape
    tracer = _load(monkeypatch, ROOT / "perfbench" / "tracer.py")
    h = gapbound.assemble(gapbound.strip_model(40, 3))
    res = gapbound.lowest_two(h)
    t = tracer.Tracer()
    t._on_solve((h,), {}, res)
    assert t.counters["eigensolver.dim_max"] == h.n == 120
    assert not hasattr(h, "array")

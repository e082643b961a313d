"""CLI surface: subcommands, exit codes, file outputs."""

import dataclasses
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import gapbound
from gapbound import impurity_model
from gapbound.cli import main
from gapbound.modelfile import dump_model


@pytest.fixture()
def model_path(tmp_path):
    path = tmp_path / "impurity.txt"
    dump_model(impurity_model(8, -0.5), path)
    return str(path)


def test_solve(model_path, tmp_path, capsys):
    spectrum = tmp_path / "spectrum.txt"
    profile = tmp_path / "profile.csv"
    code = main([
        "solve", model_path,
        "--spectrum-out", str(spectrum),
        "--profile-out", str(profile),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "E0" in out and "gap" in out
    assert spectrum.exists()
    assert len(spectrum.read_text().splitlines()) == 9
    assert profile.read_text().startswith("x,p_x")


def test_bounds(model_path, tmp_path, capsys):
    prefix = str(tmp_path / "report")
    code = main(["bounds", model_path, "--out-prefix", prefix, "--scan-s", "20"])
    out = capsys.readouterr().out
    assert code == 0
    assert "theorem1" in out and "theorem2" in out
    assert "0 violation" in out
    assert (tmp_path / "report_bounds.csv").exists()
    assert (tmp_path / "report_envelope_theorem1.csv").exists()
    assert (tmp_path / "report_envelope_theorem2.csv").exists()
    header = (tmp_path / "report_bounds.csv").read_text().splitlines()[0]
    assert header == "kind,s,r1,xi,prefactor,C1_or_V0,deltaE0,deltaX"


def test_bounds_reports_the_decay_fit_and_combined_bounds(tmp_path, capsys):
    # a strongly localized chain: the fit window has points and the probes
    # lie past the onset radius
    path = tmp_path / "chain.txt"
    dump_model(impurity_model(60, -2.0), path)
    prefix = str(tmp_path / "report")
    code = main(["bounds", str(path), "--out-prefix", prefix])
    out = capsys.readouterr().out
    assert code == 0
    assert "density decay fit: xi_fit=" in out
    combined = [ln for ln in out.splitlines() if ln.startswith("combined bound at R=")]
    assert combined and all("chebyshev=" in ln and "theorem2=" in ln for ln in combined)
    fit = (tmp_path / "report_fit.csv").read_text().splitlines()
    assert fit[0] == "xi_fit,intercept,r_squared,window_lo,window_hi"
    assert len(fit) == 2 and float(fit[1].split(",")[0]) > 0


def test_bounds_reports_an_unavailable_fit_and_writes_no_fit_csv(tmp_path, capsys):
    # the margins leave no usable point on this short chain
    path = tmp_path / "chain.txt"
    dump_model(impurity_model(16, -1.0), path)
    prefix = str(tmp_path / "report")
    code = main(["bounds", str(path), "--out-prefix", prefix])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines[1] == (
        "density decay fit unavailable: only 0 usable points (need >= 4); "
        "FIT_FLOOR=1e-13, FIT_MARGIN=10"
    )
    assert (tmp_path / "report_bounds.csv").exists()
    assert not (tmp_path / "report_fit.csv").exists()


def test_bounds_notes_a_check_that_covered_no_radius(tmp_path, capsys):
    # both onsets of a clean 4x100 strip lie beyond its farthest site: each
    # check line says that nothing was checked, and the exit code stays 0
    path = tmp_path / "strip.txt"
    dump_model(gapbound.strip_model(100, 4), path)
    code = main(["bounds", str(path)])
    checks = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("envelope check")]
    assert code == 0
    assert checks == [
        "envelope check [theorem1]: 0 radii, 0 violation(s) (onset r1=65.5022 lies beyond "
        "the farthest site, 49.5 from <x>: nothing was checked)",
        "envelope check [theorem2]: 0 radii, 0 violation(s) (onset r1=49.7852 lies beyond "
        "the farthest site, 49.5 from <x>: nothing was checked)",
    ]
    # a check that covers radii keeps its line as it was
    dump_model(impurity_model(60, -2.0), path)
    assert main(["bounds", str(path)]) == 0
    checks = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("envelope check")]
    assert checks == [
        "envelope check [theorem1]: 56 radii, 0 violation(s)",
        "envelope check [theorem2]: 58 radii, 0 violation(s)",
    ]


def test_bounds_long_range_note(tmp_path, capsys):
    from gapbound import ModelSpec

    path = tmp_path / "lr.txt"
    dump_model(
        ModelSpec(5, 1, [(1, 2, [[1.0]]), (2, 3, [[1.0]]), (1, 3, [[0.5]]),
                         (3, 4, [[1.0]]), (4, 5, [[1.0]])],
                  [(3, [[-0.8]])]),
        path,
    )
    code = main(["bounds", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "theorem2: not applicable" in out


def test_sweep_and_plot(tmp_path, capsys):
    csv_path = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--L", "40", "--points", "4", "--out", str(csv_path),
    ])
    assert code == 0
    assert csv_path.exists()
    out = capsys.readouterr().out
    assert "envelope violations: 0" in out

    svg_path = tmp_path / "fig.svg"
    code = main(["plot", str(csv_path), "--out", str(svg_path)])
    assert code == 0
    assert svg_path.read_text().startswith("<?xml")


def test_sweep_reports_rows_checked_at_no_radius(tmp_path, capsys):
    # at L = 40 the two weakest defects' theorem-1 onsets, and the weakest's
    # theorem-2 onset, lie beyond the farthest site; the CSV is unchanged
    csv_path = tmp_path / "sweep.csv"
    code = main(["sweep", "--L", "40", "--points", "4", "--out", str(csv_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[-2:] == [
        "envelope violations: 0",
        "rows checked at no radius (onset beyond the farthest site): theorem1 2, theorem2 1",
    ]
    assert csv_path.read_text().splitlines()[0] == gapbound.sweep.SWEEP_CSV_HEADER


def test_sweep_envelope_violation_exits_2(tmp_path, capsys, monkeypatch):
    # a theorem-2 envelope shrunk a millionfold fails on every row
    import gapbound.sweep as sweep_mod

    real = sweep_mod.theorem2_bound

    def shrunk(*args):
        b = real(*args)
        return dataclasses.replace(b, prefactor=b.prefactor * 1e-6)

    monkeypatch.setattr(sweep_mod, "theorem2_bound", shrunk)
    code = main(["sweep", "--L", "40", "--points", "2", "--out", str(tmp_path / "s.csv")])
    captured = capsys.readouterr()
    assert code == 2
    bad = int(captured.out.split("envelope violations: ")[1].split()[0])
    assert bad > 0
    assert captured.err == "invariant violation: a guaranteed envelope failed\n"


def test_sweep_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"L": 40, "points": 3, "out": str(tmp_path / "c.csv")}))
    code = main(["sweep", "--config", str(cfg), "--points", "2"])
    assert code == 0
    text = (tmp_path / "c.csv").read_text()
    assert len(text.splitlines()) == 3  # header + 2 rows (flag wins)


def test_sweep_config_file_may_start_with_a_byte_order_mark(tmp_path):
    cfg = tmp_path / "cfg.json"
    text = json.dumps({"L": 40, "points": 2, "out": str(tmp_path / "c.csv")})
    cfg.write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert main(["sweep", "--config", str(cfg)]) == 0
    assert len((tmp_path / "c.csv").read_text().splitlines()) == 3


def test_sweep_with_an_unresolved_deltaX_exits_1(tmp_path, capsys):
    # at h0 = -1e60 the ground state sits on one site: its variance, 6e-59,
    # is below what the residuals let the computed density resolve
    out = tmp_path / "s.csv"
    code = main(["sweep", "--L", "40", "--points", "1", "--h0-min=-1e60", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: deltaX unresolved at h0=-1e+60: variance ")
    assert not out.exists()


@pytest.mark.parametrize("config", [None, {"out": "s.csv"}], ids=["flag", "flag-over-config"])
def test_sweep_empty_out_flag_exits_1_before_any_point(tmp_path, capsys, monkeypatch, config):
    # the empty name is refused as the config refuses it, before a point is solved
    import gapbound.sweep as sweep_mod

    calls = []
    monkeypatch.setattr(sweep_mod, "sweep_point", lambda *a: calls.append(a))
    argv = ["sweep", "--L", "40", "--points", "2", "--out", ""]
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv += ["--config", str(cfg)]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: out must be a nonempty file name, got ''\n"
    assert calls == []


def test_sweep_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"length": 40}))
    code = main(["sweep", "--config", str(cfg)])
    assert code == 1
    assert "unknown config keys" in capsys.readouterr().err


def test_radius_grid_step_is_gone(tmp_path, model_path, capsys):
    # envelopes are checked at the tail's own breakpoints; no step is settable
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid_step": 0.5}))
    assert main(["sweep", "--config", str(cfg)]) == 1
    assert "unknown config keys: ['grid_step']" in capsys.readouterr().err
    for argv in (["bounds", model_path], ["sweep"]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--grid-step", "0.5"])
        assert exc.value.code == 1  # a usage error, not a failed guarantee
    assert "unrecognized arguments: --grid-step" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        "{bad", "[]", '{"L": null}', '{"L": "abc"}', '{"out": null}', '{"out": ""}',
        '{"out": 3}', '{"points": 2.9}', '{"L": 40.0}', '{"points": true}', '{"s": true}',
        '{"mu": "1"}',
    ],
    ids=[
        "not-json", "not-an-object", "null-value", "non-numeric-value", "null-out", "empty-out",
        "numeric-out", "fractional-int", "float-for-int", "bool-for-int", "bool-for-float",
        "string-for-float",
    ],
)
def test_sweep_config_bad_file_exits_1(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    code = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s.csv")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("override", [[], ["--s", "0.3"]], ids=["alone", "flag-overrides-it"])
def test_sweep_config_overflowing_number_exits_1(tmp_path, capsys, override):
    # a JSON integer too large for a float is a bad value, also where a flag overrides it
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"L": 40, "points": 2, "s": 1' + "0" * 400 + "}")
    code = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s.csv"), *override])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: config key 's': bad value 1000")
    assert not (tmp_path / "s.csv").exists()


# the C locale with both of Python's UTF-8 fallbacks off: the locale encoding
# and the file-system encoding are ASCII
ASCII_LOCALE = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}


@pytest.mark.parametrize(
    "config, message",
    [
        ({"L": 40, "points": 2, "out": "s.csv", "h0_m\u00edn": -1.0}, "unknown config keys"),
        ({"L": 40, "points": 2, "out": "caf\u00e9.csv"}, "cannot be encoded as a file name"),
    ],
    ids=["read", "write"],
)
def test_sweep_config_is_utf8_in_an_ascii_locale(tmp_path, config, message):
    # the config is read as UTF-8 whatever the locale; an output name the
    # file system cannot hold is refused before anything is written
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(json.dumps(config, ensure_ascii=False).encode("utf-8"))
    src = str(Path(gapbound.__file__).resolve().parents[1])
    env = dict(os.environ, **ASCII_LOCALE)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "gapbound.cli", "sweep", "--config", str(cfg)],
        env=env, cwd=tmp_path, capture_output=True, timeout=120,
    )
    err = proc.stderr.decode("ascii", "replace")
    assert proc.returncode == 1, err
    assert err.startswith("error: ") and message in err, err
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize("mu", ["1000", "1e-20"])
def test_bounds_extreme_mu_exits_1(model_path, capsys, mu):
    # exp(mu * d) overflows in the envelope fit; exp(-mu) rounds to 1 in c1
    code = main(["bounds", model_path, "--mu", mu])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: decay rate mu=")


def test_non_finite_mu_exits_1(model_path, tmp_path, monkeypatch, capsys):
    # refused by the sweep's configuration and by the envelope fit, for the
    # right reason and before any file is written
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    monkeypatch.chdir(run_dir)
    assert main(["sweep", "--L", "40", "--points", "2", "--mu", "inf"]) == 1
    assert capsys.readouterr().err.startswith("error: mu must be finite and > 0, got inf")
    assert list(run_dir.iterdir()) == []
    assert main(["bounds", model_path, "--mu", "inf"]) == 1
    assert capsys.readouterr().err.startswith("error: decay rate mu must be finite and > 0")


def test_fuzz_negative_seed_exits_1(capsys):
    code = main(["fuzz", "--seed", "-1", "--trials", "1"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: seed must be")


def test_fuzz(capsys):
    code = main(["fuzz", "--seed", "42", "--trials", "10"])
    out = capsys.readouterr().out
    assert code == 0
    assert "status:  OK" in out


def test_fuzz_failure_prints_the_report_and_exits_2(capsys, monkeypatch):
    # a rise at the last breakpoint fails the first trial's monotonicity check
    import gapbound.bounds as bounds_mod

    real = bounds_mod.tail_steps

    def bumped(profile, mean):
        radii, tails = real(profile, mean)
        tails = tails.copy()
        tails[-1] = tails[-2] + 1e-9
        return radii, tails

    monkeypatch.setattr(bounds_mod, "tail_steps", bumped)
    code = main(["fuzz", "--seed", "42", "--trials", "3", "--family", "nearest-neighbor"])
    captured = capsys.readouterr()
    assert code == 2
    lines = captured.out.splitlines()
    assert "trials:  1 of 3 (passed 0, skipped 0 degenerate, failed 1)" in lines
    assert "status:  FAIL at trial 0: tail distribution is not monotone nonincreasing" in lines
    assert lines[-1] == (
        "reproduce: FuzzConfig(seed=42, trials=1, size_range=(4, 40), n0_range=(1, 3), "
        "family='nearest-neighbor'), trial index 0"
    )
    assert captured.err.startswith("invariant violation: fuzz trial 0 failed")


def test_malformed_model_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("L 2\nN0 1\nT 2 1 1 1 1 0\n")
    code = main(["solve", str(path)])
    assert code == 1
    assert "line 3" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,name,data",
    [
        ("solve", "bad.txt", b"L 2\r\nN0 1\nlabel caf\xff\nV 1 1 1 0 0\n"),
        ("solve", "bad.txt", b"\xef\xbb\xbfL 2\r\nN0 1\nlabel caf\xff\nV 1 1 1 0 0\n"),
        (
            "plot",
            "bad.csv",
            b"h0,E0,E1,gap,deltaX,xi_fit,xi1,xi2,ratio1,ratio2,fit_r_squared\n\n"
            b"1,2,3,4,5,6,7,8,9,10,11\xff\n",
        ),
        ("sweep", "cfg.json", b'{"L": 40,\n"points": 1,\n"out": "caf\xff.csv"}\n'),
    ],
    ids=["model", "model-after-bom", "csv", "config"],
)
def test_undecodable_input_exits_1(tmp_path, capsys, command, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    args = {
        "plot": [str(path), "--out", str(tmp_path / "fig.svg")],
        "sweep": ["--config", str(path)],
    }.get(command, [str(path)])
    code = main([command, *args])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and "line 3" in err and "0xff" in err


def test_missing_file_exits_1(tmp_path, capsys):
    code = main(["solve", str(tmp_path / "nope.txt")])
    assert code == 1


def test_degenerate_model_exits_1(tmp_path, capsys):
    from gapbound import ModelSpec

    path = tmp_path / "degen.txt"
    dump_model(ModelSpec(2, 1, onsite_blocks=[(1, [[1.0]]), (2, [[1.0]])]), path)
    code = main(["solve", str(path)])
    assert code == 1
    assert "degeneracy" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "bounds"])
@pytest.mark.parametrize("flag", ["--tol", "--degeneracy-tol"])
def test_solver_tolerances_are_not_settable(model_path, capsys, command, flag):
    # the residual gate and the degeneracy threshold are fixed; an old
    # invocation is a usage error (exit 1), not a failed guarantee (exit 2)
    with pytest.raises(SystemExit) as exc:
        main([command, model_path, flag, "1e-9"])
    captured = capsys.readouterr()
    assert exc.value.code == 1
    assert captured.out == ""
    assert f"unrecognized arguments: {flag}" in captured.err
    assert captured.err.startswith("usage: gapbound")


@pytest.mark.parametrize(
    "argv",
    [["solve", "model.txt", "--bogus", "x"], ["sweep", "--L", "abc"], [], ["frobnicate"]],
    ids=["unknown-flag", "bad-int", "no-command", "unknown-command"],
)
def test_usage_errors_exit_1_with_the_usage_message(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 1
    assert err.startswith("usage: gapbound") and "error: " in err


@pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"], ["bounds", "--help"]])
def test_help_exits_0_and_lists_no_tolerance(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr().out
    assert exc.value.code == 0
    assert out.startswith("usage: gapbound")
    assert "--tol" not in out and "--degeneracy-tol" not in out


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--points", "3", "--h0-min=-inf"], "error: h0_min must be finite"),
        (["--points", "3", "--h0-max=nan"], "error: h0_max must be finite"),
        # on-site entries whose sum would overflow, and a spectral scale past the solver's limit
        (["--L", "40", "--points", "1", "--h0-min=-1e308"], "error: eigensolver failed at h0=-1e+308: "
         "spectral scale 1.000e+308 exceeds the solver's limit"),
        (["--L", "40", "--points", "1", "--h0-min=-1e150"], "error: eigensolver failed at h0=-1e+150: "
         "spectral scale 1.000e+150 exceeds the solver's limit"),
    ],
    ids=["h0-min-inf", "h0-max-nan", "h0-min-1e308", "h0-min-1e150"],
)
def test_sweep_extreme_defect_exits_1_without_warnings(tmp_path, capsys, argv, message):
    out = tmp_path / "s.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["sweep", *argv, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(message)
    assert "Warning" not in err
    assert not out.exists()


def test_solve_past_the_float_limit_exits_1_without_warnings(tmp_path, capsys):
    # finite entries whose row sum overflows: the scale limit refuses the model
    path = tmp_path / "huge.txt"
    path.write_text("L 2\nN0 1\nV 1 1 1 1e308 0\nT 1 2 1 1 1e308 0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["solve", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: spectral scale inf exceeds the solver's limit")
    assert "Warning" not in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_bounds_nonfinite_center_exits_1(model_path, capsys, value):
    code = main(["bounds", model_path, f"--center={value}"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: fit center must be finite")
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["1e200", "-1e200", "0", "61.5"])
def test_bounds_center_off_the_lattice_exits_1_without_warnings(tmp_path, capsys, value):
    # a far centre used to overflow inside the fit and end in "slope not negative"
    path = tmp_path / "chain.txt"
    dump_model(impurity_model(60, -0.5), path)  # L = 61 sites
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["bounds", str(path), f"--center={value}"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: fit center {float(value)!r} lies outside the lattice 1..61")
    assert "Warning" not in err


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
def test_bounds_scan_radius_must_be_positive_and_finite(model_path, capsys, value):
    code = main(["bounds", model_path, "--scan-s", value])
    captured = capsys.readouterr()
    assert code == 1
    assert "best s=" not in captured.out
    assert captured.err.startswith("error: radius r must be finite and > 0")


def test_failed_spectrum_leaves_no_file(model_path, tmp_path, capsys, monkeypatch):
    from gapbound.eigensolver import SpectrumResult

    def broken(self):
        raise MemoryError("synthetic")

    monkeypatch.setattr(SpectrumResult, "eigenvalues", property(broken))
    spectrum = tmp_path / "spectrum.txt"
    code = main(["solve", model_path, "--spectrum-out", str(spectrum)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: out of memory: synthetic")
    assert not spectrum.exists()


def test_plot_non_numeric_field_exits_1(tmp_path, capsys):
    path = tmp_path / "sweep.csv"
    header = "h0,E0,E1,gap,deltaX,xi_fit,xi1,xi2,ratio1,ratio2,fit_r_squared"
    path.write_text(f"{header}\n\n1,2,3,4,5,6,7,8,9,abc,11\n")
    code = main(["plot", str(path), "--out", str(tmp_path / "fig.svg")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "line 3" in err
    assert not (tmp_path / "fig.svg").exists()


# Runs the CLI in a child process under a 2 GiB address-space limit, so
# that an allocation too large for it fails at once instead of exhausting
# the host.
LIMITED_CLI_SCRIPT = """
import resource, sys
limit = 2 * 2**30
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from gapbound.cli import main
sys.exit(main(sys.argv[1:]))
"""


def _run_cli_under_2gib(*argv, timeout):
    src = str(Path(gapbound.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", LIMITED_CLI_SCRIPT, *argv],
        env=env, capture_output=True, text=True, timeout=timeout,
    )


def test_model_too_large_for_memory_exits_1(tmp_path):
    # the model asks for a 2.3 PiB block array
    path = tmp_path / "huge.txt"
    path.write_text("L 10000000000000\nN0 4\n")
    proc = _run_cli_under_2gib("bounds", str(path), timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error: out of memory")
    assert "Traceback" not in proc.stderr


def test_large_chain_spectrum_runs_in_linear_memory(tmp_path):
    # the full spectrum comes from the band: the dense matrix of this
    # 12001-site chain alone would take 2.15 GiB
    from gapbound.modelfile import format_model

    path = tmp_path / "chain.txt"
    path.write_text(format_model(impurity_model(12000, -0.3)))
    spectrum = tmp_path / "spectrum.txt"
    proc = _run_cli_under_2gib("solve", str(path), "--spectrum-out", str(spectrum), timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = spectrum.read_text().splitlines()
    assert len(lines) == 12001
    values = [float(line.split()[1]) for line in lines]
    assert values == sorted(values)
    # a unit-hopping chain with one defect: the band [-2, 2] and one bound state below it
    assert -2.0 - 1e-12 <= values[1] and values[-1] <= 2.0 + 1e-12
    assert values[0] == pytest.approx(-(0.3**2 + 4.0) ** 0.5, rel=1e-10)

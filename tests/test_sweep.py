"""Sweep harness: determinism, CSV format, envelope guarantees."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gapbound
from gapbound import SweepConfig, ValidationError, read_sweep_csv, run_sweep
from gapbound.lattice import impurity_model
from gapbound.sweep import (
    SWEEP_CSV_HEADER,
    default_h0_grid,
    format_sweep_csv,
    sweep_point,
)


@pytest.fixture(scope="module")
def small_rows():
    config = SweepConfig(L=60, h0_grid=default_h0_grid(points=6), output_path="unused")
    return run_sweep(config, write=False)


def test_default_grid():
    grid = default_h0_grid()
    assert grid.shape == (100,)
    assert grid[0] == pytest.approx(-1.0)
    assert grid[-1] == pytest.approx(-0.01)
    assert np.all(grid < 0)
    assert np.all(np.diff(grid) > 0)  # log-spaced, increasing toward zero


def test_config_validation():
    with pytest.raises(ValidationError):
        SweepConfig(h0_grid=np.array([0.5]))
    with pytest.raises(ValidationError):
        SweepConfig(h0_grid=np.array([]))
    with pytest.raises(ValidationError):
        SweepConfig(s=1.5)
    with pytest.raises(ValidationError):
        default_h0_grid(points=0)


@pytest.mark.parametrize("h0, shown", [
    (-math.inf, "-inf"), (math.nan, "nan"), (math.inf, "inf"),
], ids=["minus-inf", "nan", "plus-inf"])
def test_config_refuses_a_non_finite_h0(h0, shown):
    # refused when the config is built, naming the value, not at the solve
    # (-inf) or as a sign error (nan)
    with pytest.raises(ValidationError, match=re.escape(f"h0 values must be finite, got {shown}")):
        SweepConfig(L=40, h0_grid=[-0.5, h0])


def test_default_sweep_checks_theorem1_at_no_radius_on_its_weakest_rows():
    # at L = 500 the theorem-1 onset of the 8 weakest defects (rows 92-99)
    # lies beyond the farthest site, 250 from <x>; theorem 2 covers radii on
    # every row
    grid = default_h0_grid()
    rows = {i: sweep_point(500, grid[i]) for i in range(90, 100)}
    assert [i for i, row in rows.items() if row.radii1 == 0] == list(range(92, 100))
    assert all(row.radii2 > 0 for row in rows.values())
    assert all(row.violations1 == row.violations2 == 0 for row in rows.values())


@pytest.mark.parametrize("points", [True, 2.5, 3.0, "3"])
def test_default_grid_rejects_non_integer_points(points):
    with pytest.raises(ValidationError, match=re.escape(f"integer number of grid points >= 1, got {points!r}")):
        default_h0_grid(points=points)


@pytest.mark.parametrize("length, message", [
    (True, "length must be an integer >= 2, got True"),
    (2.5, "length must be an integer >= 2, got 2.5"),
    (500.0, "length must be an integer >= 2, got 500.0"),
    (0, "length must be an integer >= 2, got 0"),
    (3, "length must be even, got 3"),
], ids=["bool", "fraction", "float", "zero", "odd"])
def test_config_refuses_a_length_the_impurity_model_refuses(length, message):
    # refused when the config is built, with impurity_model's own message
    with pytest.raises(ValidationError, match=re.escape(message)):
        SweepConfig(L=length)
    with pytest.raises(ValidationError, match=re.escape(message)):
        impurity_model(length, -0.5)


@pytest.mark.parametrize("name", ["lo", "hi"])
@pytest.mark.parametrize("value", [-math.inf, math.inf, math.nan])
def test_default_grid_rejects_nonfinite_bounds(name, value):
    flag = {"lo": "h0_min", "hi": "h0_max"}[name]
    with pytest.raises(ValidationError, match=f"{flag} must be finite"):
        default_h0_grid(points=3, **{name: value})


def test_rows_are_sane(small_rows):
    for row in small_rows:
        assert row.gap > 0
        assert math.isfinite(row.ratio1) and row.ratio1 > 0
        assert math.isfinite(row.ratio2) and row.ratio2 > 0
        assert row.ratio2 <= row.ratio1
        assert row.violations1 == 0
        assert row.violations2 == 0


def test_ratio_lower_bound_on_clean_fits(small_rows):
    for row in small_rows:
        if math.isfinite(row.fit_r_squared) and row.fit_r_squared >= 0.99:
            assert row.ratio1 >= 1.0
            assert row.ratio2 >= 1.0


def test_csv_format_and_roundtrip(tmp_path, small_rows):
    text = format_sweep_csv(small_rows)
    lines = text.splitlines()
    assert lines[0] == SWEEP_CSV_HEADER
    assert len(lines) == 1 + len(small_rows)
    # 17 significant digits survive a float round-trip exactly
    for token, expected in zip(lines[1].split(","), (
        small_rows[0].h0, small_rows[0].e0, small_rows[0].e1, small_rows[0].gap,
        small_rows[0].delta_x, small_rows[0].xi_fit, small_rows[0].xi1,
        small_rows[0].xi2, small_rows[0].ratio1, small_rows[0].ratio2,
        small_rows[0].fit_r_squared,
    )):
        assert float(token) == expected

    path = tmp_path / "sweep.csv"
    path.write_text(text)
    back = read_sweep_csv(path)
    assert len(back) == len(small_rows)
    assert back[0].h0 == small_rows[0].h0
    assert back[-1].ratio2 == small_rows[-1].ratio2


def test_read_drops_one_byte_order_mark(tmp_path, small_rows):
    text = format_sweep_csv(small_rows)
    path = tmp_path / "sweep.csv"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert format_sweep_csv(read_sweep_csv(path)) == text


def test_read_rejects_foreign_csv(tmp_path):
    path = tmp_path / "bogus.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ValidationError):
        read_sweep_csv(path)


def test_sweep_determinism(tmp_path):
    config1 = SweepConfig(L=40, h0_grid=default_h0_grid(points=4),
                          output_path=str(tmp_path / "a.csv"))
    config2 = SweepConfig(L=40, h0_grid=default_h0_grid(points=4),
                          output_path=str(tmp_path / "b.csv"))
    run_sweep(config1)
    run_sweep(config2)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_single_point_values():
    row = sweep_point(40, -1.0)
    # strong defect: bound-state energy approaches -sqrt(5) for a long chain
    assert row.e0 == pytest.approx(-math.sqrt(5.0), abs=1e-6)
    assert row.xi_fit == pytest.approx(row.delta_x / math.sqrt(2), rel=0.05)
    assert row.fit_r_squared > 0.999


def test_an_unavailable_fit_leaves_nan_columns():
    # the margins leave no usable point on this short chain
    row = sweep_point(16, -1.0)
    assert math.isnan(row.xi_fit) and math.isnan(row.fit_r_squared)
    assert math.isfinite(row.delta_x) and math.isfinite(row.ratio2)


# A dense 50001 x 50001 complex matrix needs 40 GB and an L x L float
# array 20 GB; under a 2 GiB address-space limit either one raises
# MemoryError at once instead of exhausting the host.
LARGE_CHAIN_SCRIPT = """
import resource
limit = 2 * 2**30
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from gapbound.sweep import sweep_point
row = sweep_point(50000, -0.01)
print(row.violations1, row.violations2, repr(row.gap), repr(row.ratio2))
"""


def test_large_chain_sweep_point_runs_in_linear_memory():
    src = str(Path(gapbound.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", LARGE_CHAIN_SCRIPT],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    v1, v2, gap, ratio2 = proc.stdout.split()
    assert (v1, v2) == ("0", "0")
    # the chain is long enough for the infinite-chain bound state gap
    assert float(gap) == pytest.approx(math.sqrt(0.01**2 + 4.0) - 2.0, rel=1e-3)
    assert 1.0 < float(ratio2) < 10.0


def test_solver_failure_carries_offending_h0(monkeypatch):
    from gapbound import GapboundError
    import gapbound.sweep as sweep_mod

    def broken(h, **kwargs):
        raise GapboundError("synthetic failure")

    monkeypatch.setattr(sweep_mod, "lowest_two", broken)
    with pytest.raises(GapboundError, match="h0=-0.5"):
        sweep_point(10, -0.5)


@pytest.mark.parametrize("call, error, message", [
    (lambda: default_h0_grid(10, -1.0, 0.5), ValidationError,
     "defect strengths must be negative, got [-1.0, 0.5]"),
], ids=["positive-bound"])
def test_sweep_refusals(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


# a bad output name -> the message that refuses it
BAD_OUTPUTS = {
    "empty": ("", "out must be a nonempty file name, got ''"),
    "unencodable": ("\ud800.csv", "out '\\ud800.csv' cannot be encoded as a file name in the "
                    f"file-system encoding {sys.getfilesystemencoding()!r}"),
    "existing-directory": (".", "out '.' is an existing directory"),
    "missing-directory": ("missing/x.csv",
                          "out 'missing/x.csv': 'missing' is not an existing directory"),
}

# names only the library route can be given
NOT_PATHS = {"integer": (3, "out must be a nonempty file name, got 3"),
             "none": (None, "out must be a nonempty file name, got None")}


@pytest.mark.parametrize("name", [*BAD_OUTPUTS, *NOT_PATHS])
def test_run_sweep_refuses_a_bad_output_name_before_the_first_point(tmp_path, monkeypatch, name):
    # refused before a point is solved; nothing is written and no directory
    # is created.  write=False, the benchmark's call, checks nothing
    import gapbound.sweep as sweep_mod

    out, message = {**BAD_OUTPUTS, **NOT_PATHS}[name]
    calls = []
    monkeypatch.setattr(sweep_mod, "sweep_point", lambda *a: calls.append(a))
    monkeypatch.chdir(tmp_path)
    config = SweepConfig(L=40, h0_grid=[-1.0, -0.5], output_path=out)
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        run_sweep(config)
    assert calls == []
    assert os.listdir(tmp_path) == []
    assert len(run_sweep(config, write=False)) == len(calls) == 2


def test_sweep_theorem1_columns_lie_outside_theorem1():
    # the sweep's theorem-1 envelope, cv = mu = 1, does not dominate the
    # chain by the package's own rule; the dominating fit at mu = 1 is
    # cv = e, which multiplies xi1 and ratio1 by sqrt(e)
    spec = impurity_model(500, -1.0)
    with pytest.raises(gapbound.EnvelopeViolation, match=re.escape(
        "declared HoppingEnvelope(cv=1.0, mu=1.0) does not dominate the model: "
        "block (1,2) has norm 1 > 0.367879 (500 violating pairs)"
    )):
        gapbound.require_envelope(spec, gapbound.HoppingEnvelope(1.0, 1.0))
    fitted = gapbound.fit_envelope(spec, 1.0)
    assert fitted == gapbound.HoppingEnvelope(math.e, 1.0)
    row = sweep_point(500, -1.0)
    b1 = gapbound.theorem1_bound(fitted, row.gap, 0.5, row.delta_x)
    assert b1.xi / row.xi1 == pytest.approx(math.sqrt(math.e), rel=1e-12)
    assert row.ratio1 == pytest.approx(68.108, abs=1e-3)

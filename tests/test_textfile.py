"""Every writer's bytes, against the text each built with its own f-strings
before all of them wrote through :mod:`gapbound.textfile`."""

import pytest

from gapbound import (
    GroundState,
    HoppingEnvelope,
    assemble,
    emit_plot,
    format_model,
    format_plot,
    impurity_model,
    lowest_two,
    theorem1_bound,
    theorem2_bound,
)
from gapbound.bounds import write_bound_csv, write_envelope_csv
from gapbound.eigensolver import write_spectrum
from gapbound.localization import fit_localization_length, write_fit_csv, write_profile_csv
from gapbound.modelfile import dump_model
from gapbound.sweep import SWEEP_CSV_HEADER, sweep_point, write_sweep_csv

LENGTH, H0 = 12, -0.5


@pytest.fixture(scope="module")
def solved():
    spec = impurity_model(LENGTH, H0)
    result = lowest_two(assemble(spec))
    state = GroundState.of(result.psi0, spec)
    dx = state.stats.delta_x
    bounds = [
        theorem1_bound(HoppingEnvelope(cv=1.0, mu=1.0), result.gap, 0.5, dx),
        theorem2_bound(1.0, result.gap, 0.5, dx),
    ]
    return spec, result, state, bounds


def _written(tmp_path, write, *args):
    path = tmp_path / "out"
    write(*args, path)
    return path.read_bytes()


def test_model_and_plot(tmp_path, solved):
    spec = solved[0]
    assert _written(tmp_path, dump_model, spec) == format_model(spec).encode()
    rows = [sweep_point(LENGTH, H0)]
    assert _written(tmp_path, emit_plot, rows) == format_plot(rows).encode()


def test_spectrum_and_profile(tmp_path, solved):
    _, result, state, _ = solved
    text = "".join(f"{i} {e:.17g}\n" for i, e in enumerate(result.eigenvalues))
    assert _written(tmp_path, write_spectrum, result) == text.encode()
    text = "x,p_x\n" + "".join(
        f"{x},{p:.17g}\n" for x, p in zip(range(1, state.profile.length + 1), state.profile.p)
    )
    assert _written(tmp_path, write_profile_csv, state.profile) == text.encode()


def test_fit(tmp_path):
    # a chain long enough for the fit's edge margins; the centre is not written
    spec = impurity_model(40, H0)
    fit = fit_localization_length(GroundState.of(lowest_two(assemble(spec)).psi0, spec).profile)
    text = (
        "xi_fit,intercept,r_squared,window_lo,window_hi\n"
        f"{fit.xi_fit:.17g},{fit.intercept:.17g},{fit.r_squared:.17g},"
        f"{fit.window[0]:.17g},{fit.window[1]:.17g}\n"
    )
    assert _written(tmp_path, write_fit_csv, fit) == text.encode()


def test_bounds_and_envelopes(tmp_path, solved):
    _, _, state, bounds = solved
    text = "kind,s,r1,xi,prefactor,C1_or_V0,deltaE0,deltaX\n" + "".join(
        f"{b.kind},{b.s:.17g},{b.r1:.17g},{b.xi:.17g},{b.prefactor:.17g},"
        f"{b.amplitude:.17g},{b.delta_e0:.17g},{b.delta_x:.17g}\n"
        for b in bounds
    )
    assert _written(tmp_path, write_bound_csv, bounds) == text.encode()
    for b in bounds:
        check = state.check(b)
        text = "R,tail,bound,violation\n" + "".join(
            f"{r:.17g},{t:.17g},{v:.17g},{int(t > v + check.tolerance)}\n"
            for r, t, v in zip(check.r_grid, check.tail_values, check.bound_values)
        )
        assert _written(tmp_path, write_envelope_csv, check) == text.encode()


def test_sweep_csv(tmp_path):
    rows = [sweep_point(LENGTH, h0) for h0 in (H0, -0.05)]
    text = SWEEP_CSV_HEADER + "\n" + "".join(
        f"{r.h0:.17g},{r.e0:.17g},{r.e1:.17g},{r.gap:.17g},{r.delta_x:.17g},"
        f"{r.xi_fit:.17g},{r.xi1:.17g},{r.xi2:.17g},{r.ratio1:.17g},{r.ratio2:.17g},"
        f"{r.fit_r_squared:.17g}\n"
        for r in rows
    )
    assert _written(tmp_path, write_sweep_csv, rows) == text.encode()

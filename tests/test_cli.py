"""CLI surface: subcommands, exit codes, file outputs."""

import json

import pytest

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


def test_sweep_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"L": 40, "points": 3, "out": str(tmp_path / "c.csv")}))
    code = main(["sweep", "--config", str(cfg), "--points", "2"])
    assert code == 0
    text = (tmp_path / "c.csv").read_text()
    assert len(text.splitlines()) == 3  # header + 2 rows (flag wins)


def test_sweep_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"length": 40}))
    code = main(["sweep", "--config", str(cfg)])
    assert code == 1
    assert "unknown config keys" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        "{bad", "[]", '{"L": null}', '{"L": "abc"}', '{"out": null}', '{"out": ""}',
        '{"out": 3}', '{"points": 2.9}', '{"L": 40.0}', '{"points": true}', '{"grid_step": true}',
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


@pytest.mark.parametrize("mu", ["1000", "1e-20"])
def test_bounds_extreme_mu_exits_1(model_path, capsys, mu):
    # exp(mu * d) overflows in the envelope fit; exp(-mu) rounds to 1 in c1
    code = main(["bounds", model_path, "--mu", mu])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: decay rate mu=")


def test_fuzz_negative_seed_exits_1(capsys):
    code = main(["fuzz", "--seed", "-1", "--trials", "1"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: seed must be")


def test_fuzz(capsys):
    code = main(["fuzz", "--seed", "42", "--trials", "10"])
    out = capsys.readouterr().out
    assert code == 0
    assert "status:  OK" in out


def test_malformed_model_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("L 2\nN0 1\nT 2 1 1 1 1 0\n")
    code = main(["solve", str(path)])
    assert code == 1
    assert "line 3" in capsys.readouterr().err


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

"""Model file parsing, validation, round-trips."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gapbound
from gapbound import (
    ModelFormatError,
    ModelSpec,
    ValidationError,
    assemble,
    impurity_model,
    parse_model,
    strip_model,
)
from gapbound.fuzz import FAMILIES, random_model, trial_rng
from gapbound.modelfile import dump_model, format_model, load_model

from oracles import band_to_dense, reference_format_model, reference_parse_model
from test_lattice import MODEL_FILES


BASIC = """\
# a two-site dimer
L 2
N0 1
label dimer
V 1 1 1 -0.5 0
T 1 2 1 1 -1 0
"""


def test_parse_basic():
    spec = parse_model(BASIC)
    assert spec.length == 2 and spec.n0 == 1 and spec.label == "dimer"
    h = band_to_dense(assemble(spec))
    np.testing.assert_array_equal(h, [[-0.5, -1.0], [-1.0, 0.0]])


def test_parse_complex_entries_imply_conjugate():
    text = "L 2\nN0 2\nV 1 1 2 0.5 0.25\nT 1 2 2 1 0 1\n"
    spec = parse_model(text)
    b = spec.onsite[1]
    assert b[0, 1] == 0.5 + 0.25j
    assert b[1, 0] == 0.5 - 0.25j
    assert spec.offdiag[(1, 2)][1, 0] == 1j


@pytest.mark.parametrize(
    "text,line,fragment",
    [
        ("L 2\nN0 1\nV 1 1 1 0\n", 3, "expected"),
        ("L 2\nN0 1\nQ 1 2\n", 3, "unknown directive"),
        ("L 2\nN0 2\nV 1 2 1 0.5 0\n", 3, "i <= j"),
        ("L 2\nN0 1\nT 2 1 1 1 1 0\n", 3, "x < x'"),
        ("L 2\nN0 1\nT 1 2 1 1 1 0\nT 1 2 1 1 2 0\n", 4, "duplicate"),
        ("L 2\nN0 1\nV 1 1 1 1 0\nV 1 1 1 2 0\n", 4, "duplicate"),
        ("N0 1\nV 1 1 1 1 0\n", 2, "declared before"),
        ("L 2\nN0 1\nV 3 1 1 1 0\n", 3, "out of range"),
        ("L 2\nN0 1\nT 1 2 1 1 abc 0\n", 3, "must be a number"),
        ("L x\nN0 1\n", 1, "must be an integer"),
        ("L 2\nL 3\nN0 1\n", 2, "duplicate L"),
        ("L 2\nN0 1\nV 1 1 1 1 0.5\n", 3, "must be real"),
        ("L 2\nN0 1\nV 1 1 1 1 0\nV\n", 4, "expected"),
        # a later check flags an earlier line
        ("L 2\nN0 1\nV 1 1 1 1 0\nV 1 1 1 2 0\nV 3 1 1 1 0\n", 4, "duplicate"),
        # the token path, with a range error before the bad token
        ("L 2\nN0 1\nV 3 1 1 1 0\nV 1 1 1 abc 0\n", 3, "out of range"),
        # a width error of the other kind comes later
        ("L 2\nN0 1\nT 1 2 1 1 1 0\nT 1 2 1 1 1 0\nV 1 1 1 0\n", 4, "duplicate"),
        # a header error comes later
        ("L 2\nN0 1\nV 3 1 1 1 0\nL 3\n", 3, "out of range"),
        # a value that is not finite; a NaN imaginary part of a diagonal
        # entry would pass the realness check, so finiteness comes first
        ("L 3\nN0 1\nV 2 1 1 1 nan\n", 3, "parts must be finite, got 1.0 and nan"),
        ("L 3\nN0 1\nT 1 2 1 1 nan 0\n", 3, "parts must be finite, got nan and 0.0"),
        ("L 3\nN0 1\nV 2 1 1 1e400 0\n", 3, "parts must be finite, got inf and 0.0"),
        ("L 3\nN0 1\nV 2 1 1 -inf 0\n", 3, "parts must be finite, got -inf and 0.0"),
    ],
)
def test_parse_errors_report_line(text, line, fragment):
    with pytest.raises(ModelFormatError) as exc:
        parse_model(text)
    assert exc.value.line_no == line
    assert fragment in str(exc.value)


def test_missing_headers():
    with pytest.raises(ModelFormatError):
        parse_model("# nothing here\n")


def test_diagonal_imaginary_within_tolerance_dropped():
    spec = parse_model("L 1\nN0 1\nV 1 1 1 2.0 1e-13\n")
    assert spec.onsite[1][0, 0] == 2.0


def test_comments_and_blank_lines_ignored():
    text = "\n# c\n  \nL 2\nN0 1\n# another\nT 1 2 1 1 1 0\n"
    spec = parse_model(text)
    assert (1, 2) in spec.offdiag


def test_roundtrip_random_model(tmp_path):
    spec, _ = random_model(trial_rng(404, 0), size_range=(4, 10), n0_range=(1, 3))
    path = tmp_path / "model.txt"
    dump_model(spec, path)
    back = load_model(path)
    assert back.length == spec.length and back.n0 == spec.n0
    np.testing.assert_allclose(
        band_to_dense(assemble(back)), band_to_dense(assemble(spec)), atol=1e-16
    )


@pytest.mark.parametrize("label", ["two\nlines", "a\u2028b", " padded "])
def test_a_label_that_would_not_round_trip_is_refused(tmp_path, label):
    # a line break would start a directive of its own, and parse_model strips
    # surrounding whitespace; nothing is written
    spec = ModelSpec(2, 1, [(1, 2, [[1.0]])], label=label)
    message = (
        f"label {label!r} cannot be written to a model file: it holds a "
        "line break or starts or ends with whitespace"
    )
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        format_model(spec)
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        dump_model(spec, tmp_path / "model.txt")
    assert list(tmp_path.iterdir()) == []


def test_load_model_drops_one_byte_order_mark(tmp_path):
    spec = impurity_model(8, -0.25)
    path = tmp_path / "model.txt"
    path.write_bytes(b"\xef\xbb\xbf" + format_model(spec).encode("utf-8"))
    assert format_model(load_model(path)) == format_model(spec)


def test_roundtrip_impurity(tmp_path):
    spec = impurity_model(8, -0.25)
    text = format_model(spec)
    back = parse_model(text)
    np.testing.assert_array_equal(band_to_dense(assemble(back)), band_to_dense(assemble(spec)))
    assert back.label == spec.label
    # second render is byte-identical
    assert format_model(back) == text


def _disordered_strip(length, width, seed):
    rng = np.random.default_rng(seed)
    base = strip_model(length, width)
    onsite = np.array(base._onsite)
    onsite[:, np.arange(width), np.arange(width)] += rng.uniform(-3, 3, size=(length, width))
    return ModelSpec.from_arrays(
        length, width, base.hopping_bands, onsite, label=f"disordered strip {seed}"
    )


def _valid_specs():
    for family in FAMILIES:
        for i in range(15):
            yield random_model(trial_rng(505, i), family=family)[0]
    yield random_model(trial_rng(506, 0))[0].with_shifted_onsite(-0.4)
    yield strip_model(6, 3, t_along=0.8, t_across=0.6)
    yield strip_model(1, 4)
    yield _disordered_strip(12, 5, 1)
    yield impurity_model(40, -0.3)
    yield impurity_model(2, 0.0)


VALID_TEXTS = (
    *MODEL_FILES,
    BASIC,
    "\n# c\n  \nL 2\nN0 2\n\tlabel  two   words \r\n# another\nT 1 2 2 1 -0 -0.0\n"
    "V 2 1 1 1_0 -0\nV 2 2 2 +2.5 1e-13\nV 1 1 2 1e300 -1e-300\n",
    "L 1\nN0 1\n",
)
# well-formed, but a value is not finite: refused with its line number
NONFINITE_TEXTS = ("L 3\nN0 1\nV 2 1 1 inf 0\n", "L 3\nN0 1\nT 1 3 1 1 nan 0\n")


def _outcome(parse, text):
    """The arrays a parser builds, or the error it raises, as comparable values."""
    try:
        spec = parse(text)
    except ValidationError as exc:
        return type(exc), getattr(exc, "line_no", None), str(exc)
    return (
        spec.length,
        spec.n0,
        spec.label,
        spec._onsite.tobytes(),
        [(d, blocks.tobytes()) for d, blocks in spec.hopping_bands.items()],
    )


def _entries(lines):
    """Indices of the well-formed V/T lines."""
    out = []
    for k, line in enumerate(lines):
        tokens = line.split()
        width = {"V": 6, "T": 7}.get(tokens[0] if tokens else "")
        if len(tokens) == width and all(t.isdigit() for t in tokens[1 : width - 2]):
            out.append(k)
    return out


def _mutate(lines, k, kind, rng):
    """``lines`` with one change at entry line ``k`` of the given kind."""
    lines = list(lines)
    tokens = lines[k].split()
    tag = tokens[0]
    if kind == "bad-token":
        c = int(rng.integers(1, len(tokens)))
        tokens[c] = str(rng.choice(["abc", "1.5", "0x10", "1e400", "nan", "-0", "1_0", "", "--1"]))
    elif kind == "out-of-range":
        c = int(rng.integers(1, len(tokens) - 2))
        tokens[c] = str(rng.choice(["0", "-1", "10000", "99999999999999999999999"]))
    elif kind == "i-greater-than-j":
        if tag == "V":
            tokens[2], tokens[3] = str(int(tokens[3]) + 1), tokens[3]
        else:
            tokens[1], tokens[2] = tokens[2], tokens[1]
    elif kind == "duplicate":
        tokens[-2] = "0.125"
        lines.insert(int(rng.integers(k + 1, len(lines) + 1)), " ".join(tokens))
        return lines
    elif kind == "before-header":
        lines.insert(0, lines.pop(k))
        return lines
    elif kind == "imaginary-diagonal":
        if tag == "V":
            tokens[3] = tokens[2]
        tokens[-1] = "0.5"
    elif kind == "unknown-tag":
        tokens[0] = str(rng.choice(["Q", "v", "LL", "n0"]))
    elif kind == "token-count":
        tokens = [tokens[:-1], tokens + ["0"], tokens[:1]][int(rng.integers(3))]
    elif kind == "header":
        header = str(rng.choice(["L 3", "N0 2", "L x", "N0 0", "L", "label late"]))
        lines.insert(k, header)
        return lines
    elif kind == "header-replaced":
        # an L or N0 line rewritten, commented out, or the file cut before it
        heads = [h for h, line in enumerate(lines) if line.split()[:1] in (["L"], ["N0"])]
        h = int(rng.choice(heads))
        tag = lines[h].split()[0]
        header = str(rng.choice(["x", "0", "-2", "1.5", "", "3 4", "#", "cut"]))
        if header == "cut":
            return lines[:h]
        lines[h] = f"# {lines[h]}" if header == "#" else f"{tag} {header}".strip()
        return lines
    elif kind == "unicode-digits":
        c = int(rng.integers(1, len(tokens)))
        tokens[c] = tokens[c].translate(str(rng.choice(_UNICODE_DIGITS)))
    elif kind == "unicode-space":
        lines[k] = str(rng.choice(["\u2003", "\xa0", "\u3000", "\x1f", " \t "])).join(tokens)
        return lines
    elif kind == "trailing-comment":
        tokens.append(str(rng.choice(["# c", "#"])))
    elif kind == "signed-index":
        c = int(rng.integers(1, len(tokens) - 2))
        tokens[c] = str(rng.choice(["+", "0", "+00", "-0"])) + tokens[c]
    elif kind == "float-index":
        c = int(rng.integers(1, len(tokens) - 2))
        tokens[c] += str(rng.choice([".0", ".", "e0"]))
    elif kind == "quoted":
        c = int(rng.integers(1, len(tokens)))
        quote = str(rng.choice(['"', "'"]))
        tokens[c] = quote + tokens[c] + quote
    elif kind == "nonfinite-value":
        c = len(tokens) - int(rng.integers(1, 3))
        tokens[c] = str(rng.choice(["nan", "inf", "-inf", "1e999"]))
    elif kind == "nul":
        c = int(rng.integers(1, len(tokens)))
        at = int(rng.integers(0, len(tokens[c]) + 1))
        tokens[c] = tokens[c][:at] + "\x00" + tokens[c][at:]
    lines[k] = " ".join(tokens)
    return lines


# decimal digits that int and float read, but not numpy's C conversion
_UNICODE_DIGITS = (
    str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669"),
    str.maketrans("0123456789", "\uff10\uff11\uff12\uff13\uff14\uff15\uff16\uff17\uff18\uff19"),
)
MUTATIONS = (
    "bad-token", "out-of-range", "i-greater-than-j", "duplicate", "before-header",
    "imaginary-diagonal", "unknown-tag", "token-count", "header", "header-replaced",
    "unicode-digits", "unicode-space", "trailing-comment", "signed-index", "float-index",
    "quoted", "nul", "nonfinite-value",
)
# the mutations that keep a file valid (a second mutation may still break it)
VALID_MUTATIONS = ("unicode-digits", "unicode-space", "signed-index")
# every reason parse_model gives: the scan's and the entries'
REASONS = (
    r"duplicate (L|N0) header",
    r"expected '(L|N0) <int>'",
    r"(L|N0) must be an integer, got ",
    r"(L|N0) must be >= 1, got ",
    r"L and N0 must be declared before entries",
    r"unknown directive ",
    r"model file must declare L and N0",
    r"expected 'V <x> <i> <j> <re> <im>'",
    r"expected 'T <x> <x'> <i> <j> <re> <im>'",
    r"(x|x'|i|j) must be an integer, got ",
    r"(re|im) must be a number, got ",
    r"x=\S+ out of range 1\.\.",
    r"pair \(\S+\) out of range 1\.\.",
    r"indices \(\S+\) out of range 1\.\.",
    r"on-site entries require i <= j",
    r"hopping requires x < x'",
    r"duplicate on-site entry V ",
    r"duplicate hopping entry T ",
    r"diagonal on-site entry must be real within ",
    r"real and imaginary parts must be finite, got ",
)


def test_parser_matches_line_reference_on_valid_files():
    texts = [format_model(spec) for spec in _valid_specs()] + [*VALID_TEXTS, *NONFINITE_TEXTS]
    for text in texts:
        assert _outcome(parse_model, text) == _outcome(reference_parse_model, text), text


def test_parser_matches_line_reference_on_mutated_files():
    # one or two changed lines per file: the same first bad line, with the
    # same reason, as the line-by-line reference
    rng = np.random.default_rng(2024)
    texts = [format_model(spec) for spec in _valid_specs()] + list(MODEL_FILES)
    failures, reasons = 0, set()
    for text in texts:
        lines = text.splitlines()
        for kind in MUTATIONS:
            for _ in range(2):
                mutated = _mutate(lines, int(rng.choice(_entries(lines))), kind, rng)
                if rng.random() < 0.5 and _entries(mutated):
                    k = int(rng.choice(_entries(mutated)))
                    mutated = _mutate(mutated, k, str(rng.choice(MUTATIONS)), rng)
                mutated = "\n".join(mutated) + "\n"
                want = _outcome(reference_parse_model, mutated)
                assert _outcome(parse_model, mutated) == want, mutated
                if isinstance(want[0], type):
                    failures += 1
                    reason = want[2].split(": ", 1)[1] if want[0] is ModelFormatError else want[2]
                    reasons.add(next(r for r in REASONS if re.match(r, reason)))
    assert failures > 0.9 * len(texts) * (len(MUTATIONS) - len(VALID_MUTATIONS)) * 2
    # the failures reach every reason
    assert sorted(reasons) == sorted(REASONS)


def test_parser_matches_line_reference_near_the_end_of_a_long_file():
    # the C conversion fails on one bad line among about 10k; the token path
    # must still name that line and reason
    text = format_model(_disordered_strip(950, 4, 8))
    lines = text.splitlines()
    assert len(lines) > 10000
    k = len(lines) - 3
    tokens = lines[k].split()
    cases = {
        "float index": tokens[:2] + ["1.0"] + tokens[3:],
        "bad value": tokens[:-2] + ["0x1p3"] + tokens[-1:],
        "extra column": tokens + ["0"],
        "missing column": tokens[:-1],
        "duplicate": None,
    }
    for name, changed in cases.items():
        mutated = list(lines)
        if changed is None:
            mutated.append(lines[k])
        else:
            mutated[k] = " ".join(changed)
        mutated = "\n".join(mutated) + "\n"
        want = _outcome(reference_parse_model, mutated)
        assert want[0] is ModelFormatError and want[1] >= k + 1, name
        assert _outcome(parse_model, mutated) == want, name


@pytest.mark.parametrize("width", [4, 5, 6, 7, 8])
def test_parsed_strips_are_bit_identical(width):
    # disordered strips written with 17 significant digits, as the
    # strip-certify benchmark writes them: every entry reads back to its
    # bits, and the arrays equal those of the float()-per-token reference
    for seed in range(3):
        spec = _disordered_strip(100, width, seed)
        text = format_model(spec)
        back = parse_model(text)
        assert back._onsite.tobytes() == spec._onsite.tobytes()
        for d, blocks in spec.hopping_bands.items():
            assert back.hopping_bands[d].tobytes() == blocks.tobytes()
        assert _outcome(parse_model, text) == _outcome(reference_parse_model, text)


def test_format_matches_entry_reference():
    specs = list(_valid_specs()) + [parse_model(text) for text in VALID_TEXTS]
    for spec in specs:
        assert format_model(spec) == reference_format_model(spec)


# writes and reads back a model with a non-ASCII label
LABEL_SCRIPT = """
import sys
from gapbound import ModelSpec
from gapbound.modelfile import dump_model, load_model
spec = ModelSpec(2, 1, [(1, 2, [[1.0]])], label="caf\\u00e9 \\u03be-strip")
dump_model(spec, sys.argv[1])
assert load_model(sys.argv[1]).label == spec.label
"""


def test_non_ascii_label_round_trips_under_an_ascii_locale(tmp_path):
    src = str(Path(gapbound.__file__).resolve().parents[1])
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    path = tmp_path / "label.txt"
    proc = subprocess.run(
        [sys.executable, "-c", LABEL_SCRIPT, str(path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    spec = ModelSpec(2, 1, [(1, 2, [[1.0]])], label="caf\u00e9 \u03be-strip")
    assert path.read_bytes() == format_model(spec).encode("utf-8")

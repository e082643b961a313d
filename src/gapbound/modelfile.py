"""Line-oriented text format for lattice models.

Format::

    # comment
    L 5
    N0 2
    label optional free-form text
    V <x> <i> <j> <re> <im>      on-site entry, i <= j (conjugate implied)
    T <x> <x'> <i> <j> <re> <im> hopping entry, x < x'

``L`` and ``N0`` must appear before the first V/T line.  Indices are
1-based.  Diagonal on-site entries (i == j) must be real within 1e-12;
the imaginary part is dropped inside that tolerance, and
:func:`format_model` always writes 0.  This text rule is absolute, not
the model's relative one (:func:`gapbound.eigensolver.hermitian_part`),
so that whether one line is accepted never depends on the other lines of
the file.  :func:`load_model` and :func:`dump_model` read and write through
:mod:`gapbound.textfile`.

Parsing is column-wise.  One pass over the lines handles the headers,
labels and comments and keeps the line number and the text after the tag
of every V and T line.  All V bodies are then converted in C by one
``np.loadtxt`` call into int64 and float64 columns, and all T bodies by a
second; every check runs on whole columns, and the values are scattered
straight into the model's block-band arrays (see :mod:`gapbound.lattice`).
``loadtxt`` reads a subset of what ``int``/``float`` read, to the same
values, and fails on anything else and on a row of the wrong width.  Only
then are that kind's bodies split into tokens and converted column by
column with ``int``/``float``: that finds the first bad line, and also
converts the tokens only Python reads (``1_0``, non-ASCII digits).

Every error found is a ``(line, reason)`` candidate: a header error (it
ends the scan), the first row of a kind with the wrong width (it ends that
kind's rows), the first token that does not convert, and each whole-column
check's first flagged row, whose reason is that of the first check, in
check order, that flags it.  The earliest candidate is raised.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import ModelFormatError, ValidationError
from .eigensolver import HERMITIAN_TOL
from .lattice import ModelSpec
from .textfile import read_text, write_text

_COLUMNS = {
    "V": (("x", int), ("i", int), ("j", int), ("re", float), ("im", float)),
    "T": (("x", int), ("x'", int), ("i", int), ("j", int), ("re", float), ("im", float)),
}
_DTYPES = {
    tag: np.dtype([(what, np.int64 if cast is int else np.float64) for what, cast in spec])
    for tag, spec in _COLUMNS.items()
}
_EXPECTED = {
    "V": "expected 'V <x> <i> <j> <re> <im>'",
    "T": "expected 'T <x> <x'> <i> <j> <re> <im>'",
}
# an integer beyond int64 lies outside every index range; the masks see it
# clipped to this magnitude, the messages the parsed value
_INT_CLIP = 2**62


def _bad_token(what: str, cast, token: str) -> str:
    kind = "an integer" if cast is int else "a number"
    return f"{what} must be {kind}, got {token!r}"


def _converts(cast, token: str) -> bool:
    try:
        cast(token)
    except ValueError:
        return False
    return True


def _ints(values) -> np.ndarray:
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array([min(max(v, -_INT_CLIP), _INT_CLIP) for v in values], dtype=np.int64)


def _repeats(keys: np.ndarray) -> np.ndarray:
    """Mask of the entries whose key occurs at an earlier index."""
    bad = np.ones(len(keys), dtype=bool)
    bad[np.unique(keys, return_index=True)[1]] = False
    return bad


def _complex(re, im) -> np.ndarray:
    """``complex(re, im)`` entrywise, without arithmetic (signed zeros kept)."""
    v = np.empty(len(re), dtype=np.complex128)
    v.real = re
    v.imag = im
    return v


def _table(bodies: list, tag: str):
    """The bodies converted in C, one field per column, or ``None`` if a body
    has the wrong width or a token that does not convert."""
    with warnings.catch_warnings():
        # numpy 1.x reads '1.0' into an int column with a DeprecationWarning
        warnings.simplefilter("error")
        try:
            table = np.loadtxt(bodies, dtype=_DTYPES[tag], comments=None, ndmin=1)
        except (ValueError, Warning):
            return None
    # loadtxt skips an empty body instead of refusing it
    return table if len(table) == len(bodies) else None


def _token_columns(rows: list, spec):
    """The token columns of ``rows``, each converted by its type, cut at the
    first row holding a token that does not convert, and that row's
    ``(k, reason)`` candidate as a list of none or one."""
    n, bad, out = len(rows), [], []
    # no rows still give one empty column per field
    for (what, cast), col in zip(spec, list(zip(*rows)) or [()] * len(spec)):
        col = col[:n]
        try:
            out.append(list(map(cast, col)))
        except ValueError:
            n = next(k for k, token in enumerate(col) if not _converts(cast, token))
            bad = [(n, _bad_token(what, cast, col[n]))]
            out.append(list(map(cast, col[:n])))
    return [c[:n] for c in out], bad


def _first_bad(checks, bad: list):
    """The earliest ``(k, reason)`` among the candidates ``bad`` and the
    rows the ``(mask, reason)`` checks flag, or ``None``.

    A row's reason is that of the first check, in check order, that flags
    it; ``reason(k)`` describes row k.
    """
    flagged = [(int(np.argmax(mask)), c) for c, (mask, _) in enumerate(checks) if mask.any()]
    if flagged:
        k, c = min(flagged)
        bad = [*bad, (k, checks[c][1](k))]
    return min(bad, default=None)


def _onsite(columns, length: int, n0: int):
    """``(x, i, j, values)`` of the V rows and their ``(mask, reason)``
    checks, in check order."""
    xs, is_, js, res, ims = columns
    x, i, j = _ints(xs), _ints(is_), _ints(js)
    im = np.array(ims, dtype=float)
    diag = i == j
    checks = [
        ((x < 1) | (x > length), lambda k: f"x={xs[k]} out of range 1..{length}"),
        (
            (i < 1) | (i > n0) | (j < 1) | (j > n0),
            lambda k: f"indices ({is_[k]},{js[k]}) out of range 1..{n0}",
        ),
        (i > j, lambda k: f"on-site entries require i <= j, got ({is_[k]},{js[k]})"),
        (
            _repeats(((x - 1) * n0 + i - 1) * n0 + j - 1),
            lambda k: f"duplicate on-site entry V {xs[k]} {is_[k]} {js[k]}",
        ),
        (
            diag & (np.abs(im) > HERMITIAN_TOL),
            lambda k: (
                f"diagonal on-site entry must be real within {HERMITIAN_TOL:g}, "
                f"got imaginary part {float(ims[k])!r}"
            ),
        ),
    ]
    return (x, i, j, _complex(res, np.where(diag, 0.0, im))), checks


def _hopping(columns, length: int, n0: int):
    """``(x, x', i, j, values)`` of the T rows and their ``(mask, reason)``
    checks, in check order."""
    xs, xps, is_, js, res, ims = columns
    x, xp, i, j = _ints(xs), _ints(xps), _ints(is_), _ints(js)
    checks = [
        (
            (x < 1) | (x > length) | (xp < 1) | (xp > length),
            lambda k: f"pair ({xs[k]},{xps[k]}) out of range 1..{length}",
        ),
        (x >= xp, lambda k: f"hopping requires x < x', got ({xs[k]},{xps[k]})"),
        (
            (i < 1) | (i > n0) | (j < 1) | (j > n0),
            lambda k: f"indices ({is_[k]},{js[k]}) out of range 1..{n0}",
        ),
        (
            _repeats((((x - 1) * length + xp - 1) * n0 + i - 1) * n0 + j - 1),
            lambda k: f"duplicate hopping entry T {xs[k]} {xps[k]} {is_[k]} {js[k]}",
        ),
    ]
    return (x, xp, i, j, _complex(res, ims)), checks


_CHECKS = {"V": _onsite, "T": _hopping}


def _header(tokens: list, line_no: int, current) -> int:
    """The value of an ``L`` or ``N0`` line."""
    tag = tokens[0]
    if current is not None:
        raise ModelFormatError(line_no, f"duplicate {tag} header")
    if len(tokens) != 2:
        raise ModelFormatError(line_no, f"expected '{tag} <int>'")
    try:
        value = int(tokens[1])
    except ValueError:
        raise ModelFormatError(line_no, _bad_token(tag, int, tokens[1])) from None
    if value < 1:
        raise ModelFormatError(line_no, f"{tag} must be >= 1, got {value}")
    return value


def parse_model(text: str) -> ModelSpec:
    """Parse a model from text; see the module docstring for the format."""
    length = n0 = None
    label = ""
    # line numbers and bodies (the text after the tag) of the V and T lines
    v_lines, v_bodies, t_lines, t_bodies = [], [], [], []
    declared = False
    # (line_no, reason) of every error found; the earliest line is reported.
    # A header error ends the scan, so only earlier lines hold candidates.
    errors = []
    try:
        for line_no, line in enumerate(text.splitlines(), start=1):
            parts = line.split(None, 1)
            if not parts:
                continue
            tag = parts[0]
            if tag == "V" and declared:
                v_lines.append(line_no)
                v_bodies.append(parts[1] if len(parts) == 2 else "")
            elif tag == "T" and declared:
                t_lines.append(line_no)
                t_bodies.append(parts[1] if len(parts) == 2 else "")
            elif tag[0] == "#":
                continue
            elif tag in _EXPECTED:
                raise ModelFormatError(line_no, "L and N0 must be declared before entries")
            elif tag == "L":
                length = _header(line.split(), line_no, length)
                declared = n0 is not None
            elif tag == "N0":
                n0 = _header(line.split(), line_no, n0)
                declared = length is not None
            elif tag == "label":
                label = parts[1].strip() if len(parts) == 2 else ""
            else:
                raise ModelFormatError(line_no, f"unknown directive {tag!r}")
    except ModelFormatError as exc:
        errors.append((exc.line_no, exc.reason))

    # each kind converts in C, or else is split into tokens; its rows end
    # at the first row of the wrong width
    parsed = {}
    for tag, lines, bodies in (("V", v_lines, v_bodies), ("T", t_lines, t_bodies)):
        if not bodies:
            continue
        table, spec, bad = _table(bodies, tag), _COLUMNS[tag], []
        if table is None:
            rows = [body.split() for body in bodies]
            n = next((k for k, row in enumerate(rows) if len(row) != len(spec)), len(rows))
            columns, bad = _token_columns(rows[:n], spec)
            if n < len(rows):
                bad.append((n, _EXPECTED[tag]))
        else:
            columns = [table[what] for what, _ in spec]
        parsed[tag], checks = _CHECKS[tag](columns, length, n0)
        first = _first_bad(checks, bad)
        if first is not None:
            errors.append((lines[first[0]], first[1]))
    if errors:
        raise ModelFormatError(*min(errors))
    if not declared:
        raise ModelFormatError(0, "model file must declare L and N0")

    on = np.zeros((length, n0, n0), dtype=np.complex128)
    if "V" in parsed:
        x, i, j, v = parsed["V"]
        on[x - 1, i - 1, j - 1] = v
        on[x - 1, j - 1, i - 1] = v.conj()
    bands = {}
    if "T" in parsed:
        x, xp, i, j, v = parsed["T"]
        dist = xp - x
        for d in np.unique(dist).tolist():
            at = dist == d
            bands[d] = np.zeros((length - d, n0, n0), dtype=np.complex128)
            bands[d][x[at] - 1, i[at] - 1, j[at] - 1] = v[at]
    return ModelSpec.from_arrays(length, n0, bands, on, label)


def load_model(path) -> ModelSpec:
    """Parse a UTF-8 model file from disk."""
    return parse_model(read_text(path, ModelFormatError))


def format_model(spec: ModelSpec) -> str:
    """Render a model in the text format (round-trips through parse_model).

    Entries are read from the block-band arrays in one pass over their
    nonzero entries: V lines by site and then upper-triangle entry, T lines
    by pair ``(x, x')`` and then block entry.  A label that
    :func:`parse_model` would not return unchanged, one that holds a line
    boundary (as ``str.splitlines`` sees it) or starts or ends with
    whitespace, is refused with :class:`ValidationError`.
    """
    label = spec.label
    if label and (label.splitlines() != [label] or label.strip() != label):
        raise ValidationError(
            f"label {label!r} cannot be written to a model file: it holds a "
            "line break or starts or ends with whitespace"
        )
    lines = [f"L {spec.length}", f"N0 {spec.n0}"]
    if label:
        lines.append(f"label {label}")
    on = spec._onsite
    x, i, j = np.nonzero((on != 0) & np.triu(np.ones(on.shape[1:], dtype=bool)))
    v = on[x, i, j]
    im = np.where(i == j, 0.0, v.imag)
    lines += [
        "V %d %d %d %.17g %.17g" % entry
        for entry in zip(
            (x + 1).tolist(), (i + 1).tolist(), (j + 1).tolist(), v.real.tolist(), im.tolist()
        )
    ]
    hops = []
    for d, blocks in spec.hopping_bands.items():
        x, i, j = np.nonzero(blocks != 0)
        hops.append((x + 1, x + 1 + d, i + 1, j + 1, blocks[x, i, j]))
    if hops:
        x, xp, i, j, v = (np.concatenate(c) for c in zip(*hops))
        order = np.lexsort((j, i, xp, x))
        lines += [
            "T %d %d %d %d %.17g %.17g" % entry
            for entry in zip(
                x[order].tolist(), xp[order].tolist(), i[order].tolist(), j[order].tolist(),
                v.real[order].tolist(), v.imag[order].tolist(),
            )
        ]
    return "\n".join(lines) + "\n"


def dump_model(spec: ModelSpec, path):
    """Write a model file to disk, as UTF-8."""
    write_text(path, format_model(spec))

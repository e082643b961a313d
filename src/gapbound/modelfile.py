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
the imaginary part is dropped inside that tolerance.  Parse errors
report the line number and reason.
"""

from __future__ import annotations

import numpy as np

from .errors import ModelFormatError
from .eigensolver import HERMITIAN_TOL
from .lattice import ModelSpec


def _parse_int(token: str, line_no: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ModelFormatError(line_no, f"{what} must be an integer, got {token!r}") from None


def _parse_float(token: str, line_no: int, what: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ModelFormatError(line_no, f"{what} must be a number, got {token!r}") from None


def parse_model(text: str) -> ModelSpec:
    """Parse a model from text; see the module docstring for the format."""
    length = None
    n0 = None
    label = ""
    onsite: dict[int, np.ndarray] = {}
    offdiag: dict[tuple[int, int], np.ndarray] = {}
    seen_onsite: set[tuple[int, int, int]] = set()
    seen_hop: set[tuple[int, int, int, int]] = set()

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        tag = tokens[0]

        if tag == "L":
            if length is not None:
                raise ModelFormatError(line_no, "duplicate L header")
            if len(tokens) != 2:
                raise ModelFormatError(line_no, "expected 'L <int>'")
            length = _parse_int(tokens[1], line_no, "L")
            if length < 1:
                raise ModelFormatError(line_no, f"L must be >= 1, got {length}")
        elif tag == "N0":
            if n0 is not None:
                raise ModelFormatError(line_no, "duplicate N0 header")
            if len(tokens) != 2:
                raise ModelFormatError(line_no, "expected 'N0 <int>'")
            n0 = _parse_int(tokens[1], line_no, "N0")
            if n0 < 1:
                raise ModelFormatError(line_no, f"N0 must be >= 1, got {n0}")
        elif tag == "label":
            label = line[len("label") :].strip()
        elif tag in ("V", "T"):
            if length is None or n0 is None:
                raise ModelFormatError(line_no, "L and N0 must be declared before entries")
            if tag == "V":
                if len(tokens) != 6:
                    raise ModelFormatError(line_no, "expected 'V <x> <i> <j> <re> <im>'")
                x = _parse_int(tokens[1], line_no, "x")
                i = _parse_int(tokens[2], line_no, "i")
                j = _parse_int(tokens[3], line_no, "j")
                re = _parse_float(tokens[4], line_no, "re")
                im = _parse_float(tokens[5], line_no, "im")
                if not 1 <= x <= length:
                    raise ModelFormatError(line_no, f"x={x} out of range 1..{length}")
                if not (1 <= i <= n0 and 1 <= j <= n0):
                    raise ModelFormatError(line_no, f"indices ({i},{j}) out of range 1..{n0}")
                if i > j:
                    raise ModelFormatError(
                        line_no, f"on-site entries require i <= j, got ({i},{j})"
                    )
                if (x, i, j) in seen_onsite:
                    raise ModelFormatError(line_no, f"duplicate on-site entry V {x} {i} {j}")
                seen_onsite.add((x, i, j))
                if i == j:
                    if abs(im) > HERMITIAN_TOL:
                        raise ModelFormatError(
                            line_no,
                            f"diagonal on-site entry must be real within {HERMITIAN_TOL:g}, "
                            f"got imaginary part {im!r}",
                        )
                    im = 0.0
                block = onsite.setdefault(x, np.zeros((n0, n0), dtype=np.complex128))
                block[i - 1, j - 1] = complex(re, im)
                block[j - 1, i - 1] = complex(re, -im)
            else:
                if len(tokens) != 7:
                    raise ModelFormatError(line_no, "expected 'T <x> <x'> <i> <j> <re> <im>'")
                x = _parse_int(tokens[1], line_no, "x")
                xp = _parse_int(tokens[2], line_no, "x'")
                i = _parse_int(tokens[3], line_no, "i")
                j = _parse_int(tokens[4], line_no, "j")
                re = _parse_float(tokens[5], line_no, "re")
                im = _parse_float(tokens[6], line_no, "im")
                if not (1 <= x <= length and 1 <= xp <= length):
                    raise ModelFormatError(line_no, f"pair ({x},{xp}) out of range 1..{length}")
                if x >= xp:
                    raise ModelFormatError(line_no, f"hopping requires x < x', got ({x},{xp})")
                if not (1 <= i <= n0 and 1 <= j <= n0):
                    raise ModelFormatError(line_no, f"indices ({i},{j}) out of range 1..{n0}")
                if (x, xp, i, j) in seen_hop:
                    raise ModelFormatError(line_no, f"duplicate hopping entry T {x} {xp} {i} {j}")
                seen_hop.add((x, xp, i, j))
                block = offdiag.setdefault(
                    (x, xp), np.zeros((n0, n0), dtype=np.complex128)
                )
                block[i - 1, j - 1] = complex(re, im)
        else:
            raise ModelFormatError(line_no, f"unknown directive {tag!r}")

    if length is None or n0 is None:
        raise ModelFormatError(0, "model file must declare L and N0")
    return ModelSpec(
        length,
        n0,
        [(x, xp, b) for (x, xp), b in offdiag.items()],
        list(onsite.items()),
        label=label,
    )


def load_model(path) -> ModelSpec:
    """Parse a model file from disk."""
    with open(path, "r") as fh:
        return parse_model(fh.read())


def format_model(spec: ModelSpec) -> str:
    """Render a model in the text format (round-trips through parse_model)."""
    lines = [f"L {spec.length}", f"N0 {spec.n0}"]
    if spec.label:
        lines.append(f"label {spec.label}")
    for x in sorted(spec.onsite):
        b = spec.onsite[x]
        for i in range(spec.n0):
            for j in range(i, spec.n0):
                v = b[i, j]
                if v != 0:
                    lines.append(
                        f"V {x} {i + 1} {j + 1} {v.real:.17g} "
                        f"{0.0 if i == j else v.imag:.17g}"
                    )
    for (x, xp) in sorted(spec.offdiag):
        b = spec.offdiag[(x, xp)]
        for i in range(spec.n0):
            for j in range(spec.n0):
                v = b[i, j]
                if v != 0:
                    lines.append(f"T {x} {xp} {i + 1} {j + 1} {v.real:.17g} {v.imag:.17g}")
    return "\n".join(lines) + "\n"


def dump_model(spec: ModelSpec, path):
    """Write a model file to disk."""
    with open(path, "w", newline="\n") as fh:
        fh.write(format_model(spec))

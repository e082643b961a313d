"""The one reader and the one writer of every file gapbound reads or writes.

Files are read as UTF-8 with one leading byte-order mark dropped; a byte
that is not UTF-8 is reported with the number of the line that holds it.
Files are written as UTF-8 with LF line ends, from text formatted in full
before the file is opened, so that a failure while formatting leaves no
file.  Every CSV report has one format: a header line, then one line per
row, floats with 17 significant digits (``%.17g``, which round-trips a
float64) and every other cell as ``str``.
"""

from __future__ import annotations


def read_text(path, refuse) -> str:
    """The text of a UTF-8 file without one leading byte-order mark; a byte
    that is not UTF-8 raises ``refuse(line_no, reason)`` for the line that
    holds it."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        # the bad byte's line is one more than the line breaks before it
        line_no = len((data[: exc.start].decode("utf-8") + "x").splitlines())
        raise refuse(line_no, f"invalid UTF-8 byte 0x{data[exc.start]:02x}") from None


def write_text(path, text: str):
    """Write ``text``, already formatted in full, to ``path`` as UTF-8 with LF line ends."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def csv_text(header: str, rows) -> str:
    """The ``header`` line and one comma-joined line per row of cells."""
    lines = [header]
    for row in rows:
        lines.append(",".join("%.17g" % c if isinstance(c, float) else str(c) for c in row))
    return "\n".join(lines) + "\n"

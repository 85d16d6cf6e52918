"""The one reader of input files: listings, parameter files and CSVs."""

from __future__ import annotations

import io
from pathlib import Path

from abps_toolkit.ctmc import ValidationError


def read_utf8(path, newline: str | None) -> io.StringIO:
    """A UTF-8 file's text as ``open(path, encoding="utf-8", newline=newline)``
    gives it: ``""`` keeps each line end, as ``csv.reader`` wants, and None
    reads ``\\r\\n`` and ``\\r`` as ``\\n``. A byte that is not UTF-8 is a
    :class:`ValidationError` naming the path and the line, counted at each of
    those line ends."""
    data = Path(path).read_bytes()
    try:
        return io.StringIO(data.decode("utf-8"), newline=newline)
    except UnicodeDecodeError as err:
        before = data[:err.start]
        line = before.count(b"\n") + before.count(b"\r") - before.count(b"\r\n") + 1
        raise ValidationError(
            f"{path}:{line}: byte 0x{data[err.start]:02x} is not UTF-8") from None

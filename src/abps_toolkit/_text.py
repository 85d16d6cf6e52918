"""The one reader of input files: listings, parameter files and CSVs."""

from __future__ import annotations

import io
from pathlib import Path

from abps_toolkit.ctmc import ValidationError


def read_utf8(path, newline: str | None) -> io.StringIO:
    """A UTF-8 file's text as ``open(path, encoding="utf-8-sig",
    newline=newline)`` gives it: a leading byte-order mark is dropped, ``""``
    keeps each line end, as ``csv.reader`` wants, and None reads ``\\r\\n``
    and ``\\r`` as ``\\n``. A byte that is not UTF-8 is a
    :class:`ValidationError` naming the path and the line, counted at each of
    those line ends."""
    try:
        return io.StringIO(Path(path).read_bytes().decode("utf-8-sig"), newline=newline)
    except UnicodeDecodeError as err:
        # the offset counts in the bytes after the mark, which err.object holds
        data = err.object
        before = data[:err.start]
        line = before.count(b"\n") + before.count(b"\r") - before.count(b"\r\n") + 1
        raise ValidationError(
            f"{path}:{line}: byte 0x{data[err.start]:02x} is not UTF-8") from None

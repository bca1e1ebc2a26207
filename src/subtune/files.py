"""The one way a run writes a file: the whole content goes to a temporary
file beside the target, is flushed to disk and renamed over it, so a reader
never sees a partial file and a failed write leaves any earlier file at the
path as it was."""

from __future__ import annotations

import csv
import io
import os
from collections.abc import Iterable, Sequence
from pathlib import Path


def write_file(path: str | Path, data: bytes) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """``header`` then every row of ``rows``, formatted by ``csv.writer``."""
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows(rows)
    write_file(path, text.getvalue().encode())

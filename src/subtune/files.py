"""The one way a run writes a file: the whole content goes to a temporary
file beside the target, is flushed to disk and renamed over it, so a reader
never sees a partial file and a failed write leaves any earlier file at the
path as it was."""

from __future__ import annotations

import csv
import io
import os
from collections.abc import Iterable, Iterator, Sequence
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO


@contextmanager
def _replacing(path: str | Path) -> Iterator[BinaryIO]:
    """A binary handle on a temporary file that replaces ``path`` once the
    block exits cleanly; on any failure the temporary file is removed."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("wb") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_file(path: str | Path, data: bytes) -> None:
    with _replacing(path) as fh:
        fh.write(data)


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """``header`` then every row of ``rows``, formatted by ``csv.writer``
    and streamed to the file row by row."""
    with _replacing(path) as fh:
        text = io.TextIOWrapper(fh, encoding="utf-8", newline="")
        try:
            writer = csv.writer(text)
            writer.writerow(header)
            writer.writerows(rows)
        finally:
            # flushes the text buffer and leaves ``fh`` open for the fsync
            text.detach()

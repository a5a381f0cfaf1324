"""Durable storage: the one atomic file write and the one append-only JSONL log.

Everything a study, campaign or service job must find again after a kill
goes through these two primitives, so every durable file has the same
guarantee: its bytes are fsynced before the write returns (``append``) or
before the rename makes them visible (``atomic_write``).

* :func:`atomic_write` replaces a whole file: readers see the old content or
  the new content, never a torn mix.
* :class:`AppendLog` is a JSON-lines ledger: a kill mid-append loses at most
  the record being written.  Reading skips the torn fragment it leaves, and
  the next append terminates that fragment first, so the record written
  after a restart is never fused with it.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Iterator, Mapping, Optional, Union

from repro.utils.logging import get_logger

__all__ = ["AppendLog", "atomic_write"]

_LOGGER = get_logger("storage")


def atomic_write(path: Union[str, Path], data: Union[str, bytes]) -> Path:
    """Replace ``path`` with ``data`` (text is UTF-8 encoded); returns the path.

    The bytes go to ``<name>.tmp-<pid>`` in the target's directory, are
    fsynced, and are then renamed over the target.  On any failure the temp
    file is removed and the old target is left untouched.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
    try:
        with open(tmp, "wb") as stream:
            stream.write(data.encode() if isinstance(data, str) else data)
            stream.flush()
            os.fsync(stream.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


class AppendLog:
    """Append-only JSON-lines file of records, one fsynced line per record.

    ``len(log)`` counts the intact records; it reads the file once, on first
    use, and is kept current by :meth:`append`, so callers stamping a dense
    sequence number never re-read the log.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._count: Optional[int] = None

    def append(self, record: Mapping[str, Any]) -> None:
        line = (json.dumps(record) + "\n").encode()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("ab+") as stream:
            # A kill mid-append leaves a torn last line: terminate it, so this
            # record starts a line of its own (records() skips the fragment).
            if stream.tell() > 0:
                stream.seek(-1, os.SEEK_END)
                if stream.read(1) != b"\n":
                    line = b"\n" + line
            stream.write(line)
            stream.flush()
            os.fsync(stream.fileno())
        if self._count is not None:
            self._count += 1

    def records(self) -> Iterator[Dict[str, Any]]:
        """Every intact record in file order (nothing when the file is absent)."""
        if not self.path.exists():
            return
        with self.path.open("rb") as stream:
            for line in stream:
                line = line.strip()
                if not line:
                    continue
                try:
                    yield json.loads(line)
                except ValueError:  # JSONDecodeError, or a tear inside a UTF-8 char
                    _LOGGER.warning("skipping torn line in %s", self.path)

    def __len__(self) -> int:
        if self._count is None:
            self._count = sum(1 for _ in self.records())
        return self._count

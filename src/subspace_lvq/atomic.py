"""Atomic file replacement, for the model container and the embedding cache.

Imports nothing from the package, so any module can use it without an import cycle.
"""

from __future__ import annotations

import contextlib
import os
import uuid
from pathlib import Path

_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)


@contextlib.contextmanager
def atomic_write(path):
    """Yield a binary handle whose contents replace ``path`` when the block ends.

    The data goes to a temporary file in the same directory under a name no
    other writer uses, is flushed and fsynced, and then renamed over
    ``path``.  If the block or any of those steps fails, the temporary file
    is removed, ``path`` is left as it was, and the exception propagates.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    # Mode 0o666 (less the umask), as ``open`` would give the target itself.
    fd = os.open(tmp, _FLAGS, 0o666)
    try:
        with open(fd, "wb") as handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise

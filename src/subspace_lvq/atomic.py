"""Atomic file replacement and streaming file hashes.

Atomic writes serve the model container and the embedding cache, and the
streaming hash gives a model file's checksum.  Imports nothing from the
package, so any module can use it without an import cycle.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import uuid
from pathlib import Path

import numpy as np

_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
# The hashing buffer.  Only model checksums (model_io.model_checksum) hash
# files now: an embedding-cache hit compares the text with its copy in the
# cache instead.  The size was chosen for a 57 MB embedding text, which
# hashed as fast with it as with a 1 MiB buffer at lower peak RSS; a model
# file holds only its prototypes (120 KB each at D=300, d=50).
_HASH_CHUNK = 1 << 18


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


def sha256_file(path) -> str:
    """Hex SHA-256 of the file at ``path``, read through one reused buffer."""
    digest = hashlib.sha256()
    # Unlike bytearray, np.empty leaves the buffer unzeroed, so a small file
    # touches only the pages it fills.
    buffer = np.empty(_HASH_CHUNK, dtype=np.uint8)
    with Path(path).open("rb", buffering=0) as handle:
        while count := handle.readinto(buffer):
            digest.update(buffer[:count])
    return digest.hexdigest()

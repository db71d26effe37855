"""Artifact writes.

``atomic_open`` is the one way cronlab writes a file: through a temporary file
in the target's directory that replaces the target only once fully written.
"""

from __future__ import annotations

import os
from contextlib import contextmanager


@contextmanager
def atomic_open(path):
    """A text file open for writing that replaces path when the block ends
    normally.  The directory is created if needed; if the block raises, path
    is left as it was and the temporary file is removed.  The file gets the
    permissions a plain open would give it."""
    path = os.path.abspath(path)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise

"""Binary field snapshots.

Layout (all little-endian):

    magic   4 bytes  b"CRNL"
    version u32      currently 1
    n       u32
    N       u32
    L       f64
    rep     u8       0 = physical, 1 = frequency
    ext     u32      number of f64 extension values (e.g. a direction omega)
    ext[.]  f64 * ext
    data    f64 pairs (re, im), row-major over the grid

The extension block carries per-field metadata such as a direction vector;
plain fields write an empty block.

``atomic_open`` is the one way cronlab writes a file: through a temporary file
in the target's directory that replaces the target only once fully written.
"""

from __future__ import annotations

import os
import struct
from contextlib import contextmanager

import numpy as np

from .errors import PreconditionError, StructuralError
from .grid import FREQUENCY, PHYSICAL, GridSpec, ScalarField

MAGIC = b"CRNL"
VERSION = 1
_HEADER = struct.Struct("<4sIIIdBI")


@contextmanager
def atomic_open(path, mode: str = "w"):
    """A file open for writing ("w" for text, "wb" for bytes) that replaces
    path when the block ends normally.  The directory is created if needed;
    if the block raises, path is left as it was and the temporary file is
    removed.  The file gets the permissions a plain open would give it."""
    path = os.path.abspath(path)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_field(path, field: ScalarField, extension=()) -> None:
    """A real field is written as its whole-lattice values, like a complex one."""
    ext = np.asarray(extension, dtype=np.float64)
    rep_flag = 1 if field.rep == FREQUENCY else 0
    with atomic_open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, field.grid.n, field.grid.N,
                              field.grid.L, rep_flag, ext.size))
        if ext.size:
            fh.write(ext.tobytes())
        values = field.freq_values if field.rep == FREQUENCY else field.values
        data = np.empty(field.grid.shape + (2,), dtype=np.float64)
        data[..., 0] = values.real
        data[..., 1] = values.imag
        fh.write(data.tobytes())


def read_field(path):
    """Returns (ScalarField, extension ndarray).

    A file that cannot be opened, whose header, extension block or data is
    shorter than the header announces, or that holds a non-finite number
    raises a CronlabError."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise PreconditionError(f"cannot read field file {path}: {exc}") from exc
    if len(blob) < _HEADER.size:
        raise StructuralError(f"truncated header in {path}: {len(blob)} of "
                              f"{_HEADER.size} bytes")
    magic, version, n, N, L, rep_flag, ext_count = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise StructuralError(f"bad magic {magic!r} in {path}")
    if version != VERSION:
        raise StructuralError(f"unsupported field-dump version {version}")
    grid = GridSpec(n=n, N=N, L=L)
    data_at = _HEADER.size + 8 * ext_count
    if len(blob) != data_at + 16 * grid.num_points:
        raise StructuralError(f"truncated field data in {path}")
    ext = np.frombuffer(blob, dtype="<f8", count=ext_count, offset=_HEADER.size).copy()
    pairs = np.frombuffer(blob, dtype="<f8", offset=data_at).reshape(grid.shape + (2,))
    if not (np.isfinite(ext).all() and np.isfinite(pairs).all()):
        raise StructuralError(f"non-finite value in {path}")
    values = pairs[..., 0] + 1j * pairs[..., 1]
    rep = FREQUENCY if rep_flag else PHYSICAL
    return ScalarField(grid, values, rep=rep), ext

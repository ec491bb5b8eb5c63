"""Flat binary container for field dumps.

Layout: a 32-byte header followed by the raw float64 samples in C order,
little endian, shape (components, N, ..., N).

Header (little endian, 32 bytes):
    bytes 0-3    magic "FQLZ"
    bytes 4-7    format version (u32, currently 1)
    bytes 8-11   spatial dimension (u32)
    bytes 12-15  points per axis N (u32)
    bytes 16-23  box length L (f64)
    bytes 24-27  number of components (u32)
    bytes 28-31  reserved (zero)
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .grid import PhysicalField, TorusGrid

MAGIC = b"FQLZ"
VERSION = 1
_HEADER = struct.Struct("<4sIIIdI4x")
HEADER_SIZE = _HEADER.size  # 32


def dump_field(field: PhysicalField, path: str | Path) -> None:
    grid = field.grid
    header = _HEADER.pack(
        MAGIC, VERSION, grid.dim, grid.points_per_axis, grid.box_length, field.components
    )
    data = np.ascontiguousarray(field.values, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data)  # the array's own buffer: no bytes copy of the payload


def load_field(path: str | Path) -> PhysicalField:
    """The field of a dump; a missing file or a malformed container is a ConfigError.

    The payload is read straight into the field's one float64 array.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"field dump {path} does not exist")
    with open(path, "rb") as fh:
        head = fh.read(HEADER_SIZE)
        if len(head) < HEADER_SIZE:
            raise ConfigError(f"{path}: truncated header ({len(head)} bytes)")
        magic, version, dim, n, length, components = _HEADER.unpack(head)
        if magic != MAGIC:
            raise ConfigError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        if version != VERSION:
            raise ConfigError(f"{path}: unsupported container version {version}")
        if components == 0:
            raise ConfigError(f"{path}: the header declares zero components")
        grid = TorusGrid(dim=dim, box_length=length, points_per_axis=n)
        expected = components * n**dim
        size = os.fstat(fh.fileno()).st_size - HEADER_SIZE
        if size == 8 * expected:  # checked before allocating: the header may declare any size
            values = np.empty((components,) + grid.shape, dtype="<f8")
            if fh.readinto(values) == size:
                return PhysicalField(grid, values)
    cut = f" and {size % 8} bytes" if size % 8 else ""
    raise ConfigError(f"{path}: payload holds {size // 8} samples{cut}, expected {expected}")

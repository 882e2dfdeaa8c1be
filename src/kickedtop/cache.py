"""Binary on-disk cache of Floquet eigensystems, one file per parity sector.

Eigendecomposition dominates runtime for parameter scans, so the CLI
caches each parity sector the first time it is solved, keyed by
(j, kappa, alpha, sector).  ``cached_eigensystem`` loads, or solves and
saves, one sector per call: a recipe that needs one sector (``spectrum``)
makes one call, and one that needs both makes two and builds their
``FloquetEigensystem``, so only a sector whose file is missing is
solved.  File layout (all fields little-endian, in order), with n the
sector dimension (j + 1 for the even sector, j for the odd one):

    offset  size            field
    0       8               magic  b"KTEIGSYS"
    8       u4              format version (currently 4)
    12      u4              dim (= 2j + 1)
    16      f8              j
    24      f8              kappa
    32      f8              alpha
    40      i4              parity (+1 even, -1 odd)
    44      u4              degenerate_clusters
    48      f8              max_residual
    56      n*n * f8        the sector's real half vectors O, C (row-major)
                            order; column i pairs with quasienergy i
    ...     n * f8          the sector's quasienergies, ascending
    ...     u4              CRC-32 of all preceding bytes

so a file holds 8n^2 + 8n + 60 bytes.  The row phases diag K^(1/2)
follow from (j, kappa) and are not stored.  The header keeps O 8-byte
aligned, so a loaded file is used in place without copying.  Files of
formats 1-3 (format 3 held the mirrored N x N matrix of both sectors),
files whose header names other parameters, the other sector or a
half-integer j, and files with a bad checksum are misses and get
recomputed.  Format-3 files, named ``eig_<key>.ktc``, are left as they
are: no reader opens them.  Files are written to a temporary name in
the same directory and renamed into place, so a reader never sees a
partial file.  Files are named by the first 16 hex digits of the
SHA-256 of the parameter triple and the sector, so a parameter
mismatch simply misses the cache.
"""

from __future__ import annotations

import hashlib
import os
import struct
import zlib
from pathlib import Path

import numpy as np

from .floquet import KickedTopParams, SectorEigensystem, _half_dim, _parity, diagonalize
from .io import _atomic_write

__all__ = ["cache_path", "save_eigensystem", "load_eigensystem", "cached_eigensystem"]

MAGIC = b"KTEIGSYS"
VERSION = 4
HEADER = struct.Struct("<8sII3diId")
CRC = struct.Struct("<I")


class CacheFormatError(RuntimeError):
    """Unreadable or incompatible cache file."""


def cache_key(params: KickedTopParams) -> str:
    blob = f"{params.j:.17g}|{params.kappa:.17g}|{params.alpha:.17g}".encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def cache_path(cache_dir, params: KickedTopParams, sector: str) -> Path:
    return Path(cache_dir) / f"eig_{cache_key(params)}_{sector}.ktc"


def save_eigensystem(path, params: KickedTopParams, block: SectorEigensystem) -> None:
    """Write the parity sector ``block`` of F at ``params`` to ``path``, atomically."""
    parts = [
        HEADER.pack(
            MAGIC, VERSION, 2 * params.j + 1, params.j, params.kappa, params.alpha, block.parity,
            block.degenerate_clusters, block.max_residual,
        ),
        np.ascontiguousarray(block.vectors, dtype="<f8"),
        np.ascontiguousarray(block.quasienergies, dtype="<f8"),
    ]
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    _atomic_write(path, [*parts, CRC.pack(crc)])


def load_eigensystem(path, params: KickedTopParams, sector: str) -> SectorEigensystem:
    """Read the sector 'even' or 'odd' of F at ``params`` from ``path``.

    Raises CacheFormatError on any mismatch, a file of other parameters
    or of the other sector included.
    """
    parity = _parity(sector)
    path = Path(path)
    with open(path, "rb") as fh:
        buf = np.empty(os.fstat(fh.fileno()).st_size, dtype=np.uint8)
        if fh.readinto(buf) != buf.size:
            raise CacheFormatError(f"{path}: short read")
    if bytes(buf[: len(MAGIC)]) != MAGIC:
        raise CacheFormatError(f"{path}: bad magic {bytes(buf[:len(MAGIC)])!r}")
    if buf.size < HEADER.size + CRC.size:
        raise CacheFormatError(f"{path}: truncated file")
    _, version, dim, j, kappa, alpha, stored, clusters, residual = HEADER.unpack_from(buf)
    if version != VERSION:
        raise CacheFormatError(f"{path}: version {version}, expected {VERSION}")
    if dim != 2 * j + 1 or j != int(j) or stored not in (1, -1):
        raise CacheFormatError(f"{path}: dim {dim} or parity {stored} inconsistent with j={j}")
    n = _half_dim(stored, dim)
    vec_end = HEADER.size + 8 * n * n
    nu_end = vec_end + 8 * n
    if buf.size != nu_end + CRC.size:
        raise CacheFormatError(f"{path}: truncated file")
    if zlib.crc32(buf[: -CRC.size]) != CRC.unpack_from(buf, buf.size - CRC.size)[0]:
        raise CacheFormatError(f"{path}: checksum mismatch")
    if (j, kappa, alpha, stored) != (params.j, params.kappa, params.alpha, parity):
        raise CacheFormatError(
            f"{path}: holds parity {stored} of j={j}, kappa={kappa!r}, alpha={alpha!r}, "
            f"not the {sector} sector of {params}"
        )
    return SectorEigensystem(
        parity=parity,
        quasienergies=buf[vec_end:nu_end].view("<f8"),
        vectors=buf[HEADER.size : vec_end].view("<f8").reshape(n, n),
        degenerate_clusters=clusters,
        max_residual=residual,
    )


def cached_eigensystem(params: KickedTopParams, sector: str, cache_dir=None) -> SectorEigensystem:
    """The parity sector 'even' or 'odd' of F's eigensystem, computed or fetched.

    With ``cache_dir`` set, a valid file for these exact parameters and
    sector is used when present; otherwise the sector is solved and
    written back.  Unreadable, corrupt, older-format or mismatched files
    are silently recomputed and overwritten.
    """
    if cache_dir is None:
        return diagonalize(params, sector)
    path = cache_path(cache_dir, params, sector)
    if path.exists():
        try:
            return load_eigensystem(path, params, sector)
        except (CacheFormatError, OSError):
            pass
    block = diagonalize(params, sector)
    save_eigensystem(path, params, block)
    return block

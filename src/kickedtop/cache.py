"""Binary on-disk cache of Floquet eigensystems keyed by (j, kappa, alpha).

Eigendecomposition dominates runtime for parameter scans, so the CLI
caches each eigensystem the first time it is computed.  File layout
(all fields little-endian, in order):

    offset  size            field
    0       8               magic  b"KTEIGSYS"
    8       u4              format version (currently 3)
    12      u4              dim (= 2j + 1)
    16      f8              j
    24      f8              kappa
    32      f8              alpha
    40      u4              degenerate_clusters
    44      u4              zero padding
    48      f8              max_residual
    56      dim*dim * f8    real eigenvector matrix R, C (row-major)
                            order; column i pairs with quasienergy i
    ...     dim * f8        quasienergies, ascending
    ...     dim * i1        parities (+1 even, -1 odd)
    ...     u4              CRC-32 of all preceding bytes

The row phases diag K^(1/2) follow from (j, kappa) and are not stored.
The padding keeps R 8-byte aligned, so a loaded file is used in place
without copying.  Format-2 files, which held the complex eigenvectors,
are misses and get recomputed.  Files are written to a
temporary name in the same directory and renamed into place, so a
reader never sees a partial file.  Files are named by the first 16 hex
digits of the SHA-256 of the parameter triple, so a parameter mismatch
simply misses the cache.
"""

from __future__ import annotations

import hashlib
import os
import struct
import threading
import zlib
from pathlib import Path

import numpy as np

from .floquet import FloquetEigensystem, KickedTopParams, diagonalize

__all__ = ["cache_path", "save_eigensystem", "load_eigensystem", "cached_eigensystem"]

MAGIC = b"KTEIGSYS"
VERSION = 3
HEADER = struct.Struct("<8sII3dIId")
CRC = struct.Struct("<I")


class CacheFormatError(RuntimeError):
    """Unreadable or incompatible cache file."""


def cache_key(params: KickedTopParams) -> str:
    blob = f"{params.j:.17g}|{params.kappa:.17g}|{params.alpha:.17g}".encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def cache_path(cache_dir, params: KickedTopParams) -> Path:
    return Path(cache_dir) / f"eig_{cache_key(params)}.ktc"


def save_eigensystem(path, eig: FloquetEigensystem) -> None:
    if eig.params is None:
        raise ValueError("cannot cache an eigensystem without params")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    p = eig.params
    parts = [
        HEADER.pack(
            MAGIC, VERSION, eig.dim, p.j, p.kappa, p.alpha, eig.degenerate_clusters, 0, eig.max_residual
        ),
        np.ascontiguousarray(eig.real_vectors, dtype="<f8"),
        np.ascontiguousarray(eig.quasienergies, dtype="<f8"),
        np.ascontiguousarray(eig.parities, dtype="<i1"),
    ]
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        crc = 0
        with open(tmp, "wb") as fh:
            for part in parts:
                crc = zlib.crc32(part, crc)
                fh.write(part)
            fh.write(CRC.pack(crc))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_eigensystem(path) -> FloquetEigensystem:
    """Read a cached eigensystem; raises CacheFormatError on any mismatch."""
    path = Path(path)
    with open(path, "rb") as fh:
        buf = np.empty(os.fstat(fh.fileno()).st_size, dtype=np.uint8)
        if fh.readinto(buf) != buf.size:
            raise CacheFormatError(f"{path}: short read")
    if bytes(buf[: len(MAGIC)]) != MAGIC:
        raise CacheFormatError(f"{path}: bad magic {bytes(buf[:len(MAGIC)])!r}")
    if buf.size < HEADER.size + CRC.size:
        raise CacheFormatError(f"{path}: truncated file")
    _, version, dim, j, kappa, alpha, clusters, _, residual = HEADER.unpack_from(buf)
    if version != VERSION:
        raise CacheFormatError(f"{path}: version {version}, expected {VERSION}")
    if dim != round(2 * j) + 1:
        raise CacheFormatError(f"{path}: dim {dim} inconsistent with j={j}")
    vec_end = HEADER.size + 8 * dim * dim
    nu_end = vec_end + 8 * dim
    if buf.size != nu_end + dim + CRC.size:
        raise CacheFormatError(f"{path}: truncated file")
    if zlib.crc32(buf[: -CRC.size]) != CRC.unpack_from(buf, buf.size - CRC.size)[0]:
        raise CacheFormatError(f"{path}: checksum mismatch")
    params = KickedTopParams(alpha=float(alpha), kappa=float(kappa), j=int(round(j)))
    return FloquetEigensystem(
        quasienergies=buf[vec_end:nu_end].view("<f8"),
        real_vectors=buf[HEADER.size : vec_end].view("<f8").reshape(dim, dim),
        row_phases=params.half_kick,
        parities=buf[nu_end : nu_end + dim].view(np.int8),
        params=params,
        degenerate_clusters=clusters,
        max_residual=residual,
    )


def cached_eigensystem(params: KickedTopParams, cache_dir=None) -> FloquetEigensystem:
    """Compute (or fetch) the full parity-resolved eigensystem of F.

    With ``cache_dir`` set, a valid cache file for these exact parameters
    is used when present, and new results are written back.  Unreadable,
    corrupt, older-format or mismatched files are silently recomputed and
    overwritten.
    """
    if cache_dir is not None:
        path = cache_path(cache_dir, params)
        if path.exists():
            try:
                eig = load_eigensystem(path)
                if eig.params == params:
                    return eig
            except (CacheFormatError, OSError):
                pass
    eig = diagonalize(params)
    if cache_dir is not None:
        save_eigensystem(cache_path(cache_dir, params), eig)
    return eig

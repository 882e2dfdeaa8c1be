import struct
import zlib

import numpy as np
import pytest

from kickedtop import cache

from kickedtop.cache import (
    CacheFormatError,
    cache_path,
    cached_eigensystem,
    load_eigensystem,
    save_eigensystem,
)
from kickedtop.floquet import KickedTopParams, diagonalize

PARAMS = KickedTopParams(alpha=4 * np.pi / 7, kappa=3.0, j=12)


def fresh_eigensystem():
    return diagonalize(PARAMS)


def buffer_of(a):
    while a.base is not None:
        a = a.base
    return a


def test_round_trip(tmp_path):
    eig = fresh_eigensystem()
    assert 0.0 < eig.max_residual <= 1e-9
    path = cache_path(tmp_path, PARAMS)
    save_eigensystem(path, eig)
    n = eig.dim
    assert path.stat().st_size == cache.HEADER.size + 8 * n * n + 9 * n + 4
    assert cache.HEADER.size == 56  # the format-2 header plus the f8 residual
    loaded = load_eigensystem(path)
    assert loaded.params == PARAMS
    assert loaded.real_vectors.dtype == np.float64
    assert np.array_equal(loaded.real_vectors, eig.real_vectors)
    assert np.array_equal(loaded.row_phases, eig.row_phases)
    assert np.array_equal(loaded.quasienergies, eig.quasienergies)
    assert np.array_equal(loaded.parities, eig.parities)
    assert loaded.degenerate_clusters == eig.degenerate_clusters
    assert loaded.max_residual == eig.max_residual
    assert np.array_equal(loaded.eigenvectors, eig.eigenvectors)
    # R is used in place: a view of the one buffer the file was read into
    buf = buffer_of(loaded.real_vectors)
    assert buf.dtype == np.uint8 and buf.size == path.stat().st_size
    assert buffer_of(loaded.quasienergies) is buf


def test_cached_eigensystem_hits_cache(tmp_path):
    first = cached_eigensystem(PARAMS, tmp_path)
    path = cache_path(tmp_path, PARAMS)
    assert path.exists()
    mtime = path.stat().st_mtime_ns
    second = cached_eigensystem(PARAMS, tmp_path)
    assert path.stat().st_mtime_ns == mtime  # not rewritten
    assert np.array_equal(first.quasienergies, second.quasienergies)
    assert np.array_equal(first.eigenvectors, second.eigenvectors)


def test_distinct_params_distinct_files(tmp_path):
    other = KickedTopParams(alpha=4 * np.pi / 7, kappa=3.5, j=12)
    assert cache_path(tmp_path, PARAMS) != cache_path(tmp_path, other)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "eig_bogus.ktc"
    path.write_bytes(b"NOTACACHE" + b"\x00" * 64)
    with pytest.raises(CacheFormatError):
        load_eigensystem(path)


def test_version_mismatch_rejected(tmp_path):
    eig = fresh_eigensystem()
    path = cache_path(tmp_path, PARAMS)
    save_eigensystem(path, eig)
    blob = bytearray(path.read_bytes())
    blob[8:12] = (99).to_bytes(4, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(CacheFormatError):
        load_eigensystem(path)


def test_truncated_file_rejected(tmp_path):
    eig = fresh_eigensystem()
    path = cache_path(tmp_path, PARAMS)
    save_eigensystem(path, eig)
    path.write_bytes(path.read_bytes()[:-100])
    with pytest.raises(CacheFormatError):
        load_eigensystem(path)


def test_corrupt_cache_recomputed(tmp_path):
    path = cache_path(tmp_path, PARAMS)
    path.write_bytes(b"garbage")
    eig = cached_eigensystem(PARAMS, tmp_path)
    assert eig.dim == 25
    assert load_eigensystem(path).params == PARAMS  # overwritten with good data


def test_no_cache_dir_works():
    eig = cached_eigensystem(PARAMS, None)
    assert eig.dim == 25


def test_degenerate_clusters_round_trip(tmp_path):
    params = KickedTopParams(alpha=4 * np.pi / 7, kappa=0.0, j=30)
    eig = diagonalize(params)
    assert eig.degenerate_clusters > 0
    path = cache_path(tmp_path, params)
    save_eigensystem(path, eig)
    loaded = load_eigensystem(path)
    assert loaded.degenerate_clusters == eig.degenerate_clusters
    assert loaded.max_residual == eig.max_residual


def test_flipped_eigenvector_byte_detected(tmp_path):
    path = cache_path(tmp_path, PARAMS)
    save_eigensystem(path, fresh_eigensystem())
    blob = bytearray(path.read_bytes())
    blob[cache.HEADER.size + 1000] ^= 0x01
    path.write_bytes(bytes(blob))
    with pytest.raises(CacheFormatError, match="checksum"):
        load_eigensystem(path)
    eig = cached_eigensystem(PARAMS, tmp_path)
    assert np.array_equal(load_eigensystem(path).eigenvectors, eig.eigenvectors)


def write_v1(path, eig):
    """Format-1 layout: magic, version, j/kappa/alpha, dim, phases, parities, vectors."""
    p = eig.params
    with open(path, "wb") as fh:
        fh.write(cache.MAGIC)
        np.array([1], dtype="<u4").tofile(fh)
        np.array([p.j, p.kappa, p.alpha], dtype="<f8").tofile(fh)
        np.array([eig.dim], dtype="<u4").tofile(fh)
        eig.quasienergies.astype("<f8").tofile(fh)
        eig.parities.astype("<i1").tofile(fh)
        eig.eigenvectors.astype("<c16").tofile(fh)


def test_v1_file_recomputed(tmp_path):
    eig = fresh_eigensystem()
    path = cache_path(tmp_path, PARAMS)
    write_v1(path, eig)
    with pytest.raises(CacheFormatError, match="version 1"):
        load_eigensystem(path)
    again = cached_eigensystem(PARAMS, tmp_path)
    assert np.array_equal(again.quasienergies, eig.quasienergies)
    assert int.from_bytes(path.read_bytes()[8:12], "little") == cache.VERSION


def write_v2(path, eig):
    """Format-2 layout: 48-byte header, complex eigenvectors, phases, parities, CRC-32."""
    p = eig.params
    blob = b"".join([
        struct.pack("<8sII3dII", cache.MAGIC, 2, eig.dim, p.j, p.kappa, p.alpha, eig.degenerate_clusters, 0),
        eig.eigenvectors.astype("<c16").tobytes(),
        eig.quasienergies.astype("<f8").tobytes(),
        eig.parities.astype("<i1").tobytes(),
    ])
    path.write_bytes(blob + struct.pack("<I", zlib.crc32(blob)))


def test_v2_file_recomputed_as_v3(tmp_path):
    eig = fresh_eigensystem()
    path = cache_path(tmp_path, PARAMS)
    write_v2(path, eig)
    with pytest.raises(CacheFormatError, match="version 2"):
        load_eigensystem(path)
    again = cached_eigensystem(PARAMS, tmp_path)
    assert np.array_equal(again.real_vectors, eig.real_vectors)
    assert int.from_bytes(path.read_bytes()[8:12], "little") == cache.VERSION == 3
    assert np.array_equal(load_eigensystem(path).real_vectors, eig.real_vectors)


def test_save_leaves_no_temporary_files(tmp_path):
    save_eigensystem(cache_path(tmp_path, PARAMS), fresh_eigensystem())
    assert [f.name for f in tmp_path.iterdir()] == [cache_path(tmp_path, PARAMS).name]

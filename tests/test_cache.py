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


def test_round_trip(tmp_path):
    eig = fresh_eigensystem()
    path = cache_path(tmp_path, PARAMS)
    save_eigensystem(path, eig)
    loaded = load_eigensystem(path)
    assert loaded.params == PARAMS
    assert np.array_equal(loaded.quasienergies, eig.quasienergies)
    assert np.array_equal(loaded.eigenvectors, eig.eigenvectors)
    assert np.array_equal(loaded.parities, eig.parities)


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
    assert load_eigensystem(path).degenerate_clusters == eig.degenerate_clusters


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


def test_save_leaves_no_temporary_files(tmp_path):
    save_eigensystem(cache_path(tmp_path, PARAMS), fresh_eigensystem())
    assert [f.name for f in tmp_path.iterdir()] == [cache_path(tmp_path, PARAMS).name]

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
SECTORS = ("even", "odd")


def fresh_eigensystem():
    return diagonalize(PARAMS)


def buffer_of(a):
    while a.base is not None:
        a = a.base
    return a


def assert_sector_file(path, sector):
    """``path`` holds a valid format-4 file of this sector of PARAMS."""
    loaded = load_eigensystem(path)
    assert loaded.params == PARAMS
    assert [b.parity for b in loaded.sectors] == [1 if sector == "even" else -1]
    assert int.from_bytes(path.read_bytes()[8:12], "little") == cache.VERSION == 4


def test_round_trip(tmp_path):
    eig = fresh_eigensystem()
    assert 0.0 < eig.max_residual <= 1e-9
    assert cache.HEADER.size == 56  # the format-3 header with the parity in its padding
    for sector, n in zip(SECTORS, (13, 12)):
        path = cache_path(tmp_path, PARAMS, sector)
        save_eigensystem(path, eig, sector)
        assert path.stat().st_size == cache.HEADER.size + 8 * n * n + 8 * n + 4
        loaded = load_eigensystem(path)
        assert loaded.params == PARAMS
        assert np.array_equal(loaded.row_phases, eig.row_phases)
        (got,), want = loaded.sectors, eig.block(sector)
        assert got.parity == want.parity
        assert got.vectors.dtype == np.float64 and got.vectors.shape == (n, n)
        assert np.array_equal(got.vectors, want.vectors)
        assert np.array_equal(got.quasienergies, want.quasienergies)
        assert got.degenerate_clusters == want.degenerate_clusters
        assert got.max_residual == want.max_residual
        assert np.array_equal(loaded.sector(sector), eig.sector(sector))
        # O and nu are used in place: views of the one buffer the file was read into
        buf = buffer_of(got.vectors)
        assert buf.dtype == np.uint8 and buf.size == path.stat().st_size
        assert buffer_of(got.quasienergies) is buf
    both = cached_eigensystem(PARAMS, tmp_path)
    assert np.array_equal(both.eigenvectors, eig.eigenvectors)
    assert np.array_equal(both.quasienergies, eig.quasienergies)
    assert np.array_equal(both.parities, eig.parities)
    assert both.max_residual == eig.max_residual


def test_cached_eigensystem_hits_cache(tmp_path):
    first = cached_eigensystem(PARAMS, tmp_path)
    paths = [cache_path(tmp_path, PARAMS, s) for s in SECTORS]
    assert all(p.exists() for p in paths)
    mtimes = [p.stat().st_mtime_ns for p in paths]
    second = cached_eigensystem(PARAMS, tmp_path)
    assert [p.stat().st_mtime_ns for p in paths] == mtimes  # not rewritten
    assert np.array_equal(first.quasienergies, second.quasienergies)
    assert np.array_equal(first.eigenvectors, second.eigenvectors)


def test_one_sector_written_and_read_alone(tmp_path, monkeypatch):
    odd = cached_eigensystem(PARAMS, tmp_path, ("odd",))
    assert [b.parity for b in odd.sectors] == [-1]
    assert [p.name for p in tmp_path.iterdir()] == [cache_path(tmp_path, PARAMS, "odd").name]
    solved = []

    def spy(params, sectors):
        solved.append(sectors)
        return diagonalize(params, sectors=sectors)

    monkeypatch.setattr(cache, "diagonalize", spy)
    both = cached_eigensystem(PARAMS, tmp_path)
    assert solved == [["even"]]  # the odd sector came from its file
    assert [b.parity for b in both.sectors] == [1, -1]
    assert np.array_equal(both.quasienergies, fresh_eigensystem().quasienergies)


def test_distinct_params_distinct_files(tmp_path):
    other = KickedTopParams(alpha=4 * np.pi / 7, kappa=3.5, j=12)
    assert cache_path(tmp_path, PARAMS, "even") != cache_path(tmp_path, other, "even")
    assert cache_path(tmp_path, PARAMS, "even") != cache_path(tmp_path, PARAMS, "odd")


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "eig_bogus.ktc"
    path.write_bytes(b"NOTACACHE" + b"\x00" * 64)
    with pytest.raises(CacheFormatError):
        load_eigensystem(path)


def test_version_mismatch_rejected(tmp_path):
    path = cache_path(tmp_path, PARAMS, "even")
    save_eigensystem(path, fresh_eigensystem(), "even")
    blob = bytearray(path.read_bytes())
    blob[8:12] = (99).to_bytes(4, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(CacheFormatError):
        load_eigensystem(path)


def test_truncated_file_rejected(tmp_path):
    eig = fresh_eigensystem()
    for sector in SECTORS:
        path = cache_path(tmp_path, PARAMS, sector)
        save_eigensystem(path, eig, sector)
        path.write_bytes(path.read_bytes()[:-100])
        with pytest.raises(CacheFormatError, match="truncated"):
            load_eigensystem(path)
    again = cached_eigensystem(PARAMS, tmp_path)
    assert np.array_equal(again.quasienergies, eig.quasienergies)
    for sector in SECTORS:
        assert_sector_file(cache_path(tmp_path, PARAMS, sector), sector)  # overwritten


def test_corrupt_cache_recomputed(tmp_path):
    path = cache_path(tmp_path, PARAMS, "even")
    path.write_bytes(b"garbage")
    eig = cached_eigensystem(PARAMS, tmp_path)
    assert eig.dim == 25
    assert_sector_file(path, "even")  # overwritten with good data


def test_no_cache_dir_works():
    eig = cached_eigensystem(PARAMS, None)
    assert eig.dim == 25
    assert cached_eigensystem(PARAMS, None, ("odd",)).sector("odd").size == 12


def test_degenerate_clusters_round_trip(tmp_path):
    params = KickedTopParams(alpha=4 * np.pi / 7, kappa=0.0, j=30)
    eig = diagonalize(params)
    assert eig.degenerate_clusters > 0
    for sector in SECTORS:
        path = cache_path(tmp_path, params, sector)
        save_eigensystem(path, eig, sector)
        loaded = load_eigensystem(path)
        assert loaded.degenerate_clusters == eig.block(sector).degenerate_clusters
        assert loaded.max_residual == eig.block(sector).max_residual
    both = cached_eigensystem(params, tmp_path)
    assert both.degenerate_clusters == eig.degenerate_clusters
    assert both.max_residual == eig.max_residual


def test_flipped_eigenvector_byte_detected(tmp_path):
    # a flipped byte in O, in the header (kappa) or in the CRC itself
    reference = fresh_eigensystem()
    for sector in SECTORS:
        path = cache_path(tmp_path, PARAMS, sector)
        for offset in (cache.HEADER.size + 100, 28, -2):
            save_eigensystem(path, reference, sector)
            blob = bytearray(path.read_bytes())
            blob[offset] ^= 0x01
            path.write_bytes(bytes(blob))
            with pytest.raises(CacheFormatError, match="checksum"):
                load_eigensystem(path)
            eig = cached_eigensystem(PARAMS, tmp_path)
            assert np.array_equal(eig.eigenvectors, reference.eigenvectors)
            assert_sector_file(path, sector)  # overwritten


@pytest.mark.parametrize("sector", SECTORS)
def test_header_of_other_sector_or_params_is_a_miss(tmp_path, sector):
    eig = fresh_eigensystem()
    other = "odd" if sector == "even" else "even"
    other_params = KickedTopParams(alpha=PARAMS.alpha, kappa=3.5, j=12)
    path = cache_path(tmp_path, PARAMS, sector)
    for params, stored in ((PARAMS, other), (other_params, sector)):
        save_eigensystem(path, diagonalize(params), stored)
        load_eigensystem(path)  # a valid file, of the wrong sector or params
        got = cached_eigensystem(PARAMS, tmp_path, (sector,))
        assert np.array_equal(got.sector(sector), eig.sector(sector))
        assert np.array_equal(got.block(sector).vectors, eig.block(sector).vectors)
        assert_sector_file(path, sector)  # overwritten


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
    path = cache_path(tmp_path, PARAMS, "even")
    write_v1(path, eig)
    with pytest.raises(CacheFormatError, match="version 1"):
        load_eigensystem(path)
    again = cached_eigensystem(PARAMS, tmp_path)
    assert np.array_equal(again.quasienergies, eig.quasienergies)
    assert_sector_file(path, "even")


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


def test_v2_file_recomputed_as_v4(tmp_path):
    eig = fresh_eigensystem()
    path = cache_path(tmp_path, PARAMS, "odd")
    write_v2(path, eig)
    with pytest.raises(CacheFormatError, match="version 2"):
        load_eigensystem(path)
    again = cached_eigensystem(PARAMS, tmp_path)
    assert np.array_equal(again.block("odd").vectors, eig.block("odd").vectors)
    assert_sector_file(path, "odd")
    assert np.array_equal(load_eigensystem(path).block("odd").vectors, eig.block("odd").vectors)


def write_v3(path, eig):
    """Format-3 layout: 56-byte header, mirrored real N x N R, phases, parities, CRC-32."""
    p = eig.params
    blob = b"".join([
        struct.pack("<8sII3dIId", cache.MAGIC, 3, eig.dim, p.j, p.kappa, p.alpha, eig.degenerate_clusters, 0,
                    eig.max_residual),
        eig.real_vectors.astype("<f8").tobytes(),
        eig.quasienergies.astype("<f8").tobytes(),
        eig.parities.astype("<i1").tobytes(),
    ])
    path.write_bytes(blob + struct.pack("<I", zlib.crc32(blob)))


@pytest.mark.parametrize("sector", SECTORS)
def test_v3_file_is_a_miss(tmp_path, sector):
    eig = fresh_eigensystem()
    path = cache_path(tmp_path, PARAMS, sector)
    write_v3(path, eig)
    with pytest.raises(CacheFormatError, match="version 3"):
        load_eigensystem(path)
    again = cached_eigensystem(PARAMS, tmp_path, (sector,))
    assert np.array_equal(again.sector(sector), eig.sector(sector))
    assert_sector_file(path, sector)


def test_save_leaves_no_temporary_files(tmp_path):
    cached_eigensystem(PARAMS, tmp_path)
    assert sorted(f.name for f in tmp_path.iterdir()) == sorted(
        cache_path(tmp_path, PARAMS, s).name for s in SECTORS
    )


def test_format3_file_removed_when_its_key_is_written(tmp_path):
    """A format-3 file (both sectors in ``eig_<key>.ktc``) is never read
    again, so writing the sector files of its key removes it; format-3
    files of other keys stay until their own key is written."""
    other = KickedTopParams(alpha=PARAMS.alpha, kappa=5.0, j=PARAMS.j)
    stale = tmp_path / f"eig_{cache.cache_key(PARAMS)}.ktc"
    kept = tmp_path / f"eig_{cache.cache_key(other)}.ktc"
    write_v3(stale, fresh_eigensystem())
    write_v3(kept, diagonalize(other))
    cached_eigensystem(PARAMS, tmp_path, ("odd",))
    assert not stale.exists()
    assert kept.exists()
    assert sorted(f.name for f in tmp_path.iterdir()) == sorted(
        [kept.name, cache_path(tmp_path, PARAMS, "odd").name]
    )


@pytest.mark.parametrize("name", ["Even", "both", "", "ODD"])
def test_unknown_sector_name_is_a_value_error(tmp_path, name):
    eig = fresh_eigensystem()
    for call in (eig.block, eig.sector, lambda s: save_eigensystem(tmp_path / "x.ktc", eig, s)):
        with pytest.raises(ValueError, match="'even' or 'odd'"):
            call(name)
    assert list(tmp_path.iterdir()) == []

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
from kickedtop.floquet import SECTORS, FloquetEigensystem, KickedTopParams, diagonalize

PARAMS = KickedTopParams(alpha=4 * np.pi / 7, kappa=3.0, j=12)


def solve(params):
    return FloquetEigensystem(tuple(diagonalize(params, s) for s in SECTORS), params)


def fresh_eigensystem():
    return solve(PARAMS)


def cached_both(params, cache_dir):
    """Both sectors from two ``cached_eigensystem`` calls, as the CLI builds them."""
    return FloquetEigensystem(tuple(cached_eigensystem(params, s, cache_dir) for s in SECTORS), params)


def buffer_of(a):
    while a.base is not None:
        a = a.base
    return a


def assert_sector_file(path, sector):
    """``path`` holds a valid format-4 file of this sector of PARAMS."""
    loaded = load_eigensystem(path, PARAMS, sector)
    assert loaded.parity == (1 if sector == "even" else -1)
    assert int.from_bytes(path.read_bytes()[8:12], "little") == cache.VERSION == 4


def test_round_trip(tmp_path):
    eig = fresh_eigensystem()
    assert 0.0 < eig.max_residual <= 1e-9
    assert cache.HEADER.size == 56  # the format-3 header with the parity in its padding
    for sector, n in zip(SECTORS, (13, 12)):
        path = cache_path(tmp_path, PARAMS, sector)
        save_eigensystem(path, PARAMS, eig.block(sector))
        assert path.stat().st_size == cache.HEADER.size + 8 * n * n + 8 * n + 4
        got, want = load_eigensystem(path, PARAMS, sector), eig.block(sector)
        assert got.parity == want.parity
        assert got.vectors.dtype == np.float64 and got.vectors.shape == (n, n)
        assert np.array_equal(got.vectors, want.vectors)
        assert np.array_equal(got.quasienergies, want.quasienergies)
        assert got.degenerate_clusters == want.degenerate_clusters
        assert got.max_residual == want.max_residual
        # O and nu are used in place: views of the one buffer the file was read into
        buf = buffer_of(got.vectors)
        assert buf.dtype == np.uint8 and buf.size == path.stat().st_size
        assert buffer_of(got.quasienergies) is buf
    both = cached_both(PARAMS, tmp_path)
    assert np.array_equal(both.row_phases, eig.row_phases)
    assert np.array_equal(both.eigenvectors, eig.eigenvectors)
    assert np.array_equal(both.quasienergies, eig.quasienergies)
    assert np.array_equal(both.parities, eig.parities)
    assert both.max_residual == eig.max_residual


@pytest.mark.parametrize("params", [PARAMS, KickedTopParams(alpha=0.25, kappa=7.0, j=3)])
def test_saved_bytes_follow_format_4_layout(tmp_path, params):
    # the documented layout packed by hand: header, O row-major, nu, CRC-32 of all before it
    for sector, parity in zip(SECTORS, (1, -1)):
        block = diagonalize(params, sector)
        n = params.j + (parity == 1)
        assert block.vectors.shape == (n, n)
        head = struct.pack(
            "<8sIIdddiId", b"KTEIGSYS", 4, 2 * params.j + 1, float(params.j), params.kappa, params.alpha,
            parity, block.degenerate_clusters, block.max_residual,
        )
        body = head + block.vectors.astype("<f8").tobytes(order="C") + block.quasienergies.astype("<f8").tobytes()
        path = tmp_path / f"{sector}.ktc"
        save_eigensystem(path, params, block)
        assert path.read_bytes() == body + struct.pack("<I", zlib.crc32(body))
        assert len(body) + 4 == 8 * n * n + 8 * n + 60


def test_cached_eigensystem_hits_cache(tmp_path):
    first = cached_both(PARAMS, tmp_path)
    paths = [cache_path(tmp_path, PARAMS, s) for s in SECTORS]
    assert all(p.exists() for p in paths)
    mtimes = [p.stat().st_mtime_ns for p in paths]
    second = cached_both(PARAMS, tmp_path)
    assert [p.stat().st_mtime_ns for p in paths] == mtimes  # not rewritten
    assert np.array_equal(first.quasienergies, second.quasienergies)
    assert np.array_equal(first.eigenvectors, second.eigenvectors)


def test_one_sector_written_and_read_alone(tmp_path, monkeypatch):
    odd = cached_eigensystem(PARAMS, "odd", tmp_path)
    assert odd.parity == -1
    assert [p.name for p in tmp_path.iterdir()] == [cache_path(tmp_path, PARAMS, "odd").name]
    solved = []

    def spy(params, sector):
        solved.append(sector)
        return diagonalize(params, sector)

    monkeypatch.setattr(cache, "diagonalize", spy)
    both = cached_both(PARAMS, tmp_path)
    assert solved == ["even"]  # the odd sector came from its file
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
        load_eigensystem(path, PARAMS, "even")


def test_version_mismatch_rejected(tmp_path):
    path = cache_path(tmp_path, PARAMS, "even")
    save_eigensystem(path, PARAMS, diagonalize(PARAMS, "even"))
    blob = bytearray(path.read_bytes())
    blob[8:12] = (99).to_bytes(4, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(CacheFormatError):
        load_eigensystem(path, PARAMS, "even")


def test_truncated_file_rejected(tmp_path):
    eig = fresh_eigensystem()
    for sector in SECTORS:
        path = cache_path(tmp_path, PARAMS, sector)
        save_eigensystem(path, PARAMS, eig.block(sector))
        path.write_bytes(path.read_bytes()[:-100])
        with pytest.raises(CacheFormatError, match="truncated"):
            load_eigensystem(path, PARAMS, sector)
    again = cached_both(PARAMS, tmp_path)
    assert np.array_equal(again.quasienergies, eig.quasienergies)
    for sector in SECTORS:
        assert_sector_file(cache_path(tmp_path, PARAMS, sector), sector)  # overwritten


def test_corrupt_cache_recomputed(tmp_path):
    path = cache_path(tmp_path, PARAMS, "even")
    path.write_bytes(b"garbage")
    eig = cached_both(PARAMS, tmp_path)
    assert eig.dim == 25
    assert_sector_file(path, "even")  # overwritten with good data


def test_no_cache_dir_works():
    eig = cached_both(PARAMS, None)
    assert eig.dim == 25
    assert cached_eigensystem(PARAMS, "odd").quasienergies.size == 12


def test_degenerate_clusters_round_trip(tmp_path):
    params = KickedTopParams(alpha=4 * np.pi / 7, kappa=0.0, j=30)
    eig = solve(params)
    assert eig.degenerate_clusters > 0
    for sector in SECTORS:
        path = cache_path(tmp_path, params, sector)
        save_eigensystem(path, params, eig.block(sector))
        loaded = load_eigensystem(path, params, sector)
        assert loaded.degenerate_clusters == eig.block(sector).degenerate_clusters
        assert loaded.max_residual == eig.block(sector).max_residual
    both = cached_both(params, tmp_path)
    assert both.degenerate_clusters == eig.degenerate_clusters
    assert both.max_residual == eig.max_residual


def test_flipped_eigenvector_byte_detected(tmp_path):
    # a flipped byte in O, in the header (kappa) or in the CRC itself
    reference = fresh_eigensystem()
    for sector in SECTORS:
        path = cache_path(tmp_path, PARAMS, sector)
        for offset in (cache.HEADER.size + 100, 28, -2):
            save_eigensystem(path, PARAMS, reference.block(sector))
            blob = bytearray(path.read_bytes())
            blob[offset] ^= 0x01
            path.write_bytes(bytes(blob))
            with pytest.raises(CacheFormatError, match="checksum"):
                load_eigensystem(path, PARAMS, sector)
            eig = cached_both(PARAMS, tmp_path)
            assert np.array_equal(eig.eigenvectors, reference.eigenvectors)
            assert_sector_file(path, sector)  # overwritten


@pytest.mark.parametrize("sector", SECTORS)
def test_header_of_other_sector_or_params_is_a_miss(tmp_path, sector):
    eig = fresh_eigensystem()
    other = "odd" if sector == "even" else "even"
    other_params = KickedTopParams(alpha=PARAMS.alpha, kappa=3.5, j=12)
    path = cache_path(tmp_path, PARAMS, sector)
    for params, stored in ((PARAMS, other), (other_params, sector)):
        save_eigensystem(path, params, diagonalize(params, stored))
        load_eigensystem(path, params, stored)  # a valid file, of another sector or other params
        with pytest.raises(CacheFormatError, match=f"not the {sector} sector"):
            load_eigensystem(path, PARAMS, sector)
        got = cached_eigensystem(PARAMS, sector, tmp_path)
        assert np.array_equal(got.quasienergies, eig.block(sector).quasienergies)
        assert np.array_equal(got.vectors, eig.block(sector).vectors)
        assert_sector_file(path, sector)  # overwritten


def test_header_outside_the_parameter_domain_is_a_miss(tmp_path):
    # a well-formed file whose header alpha lies outside [0, 2pi) names no
    # KickedTopParams; it is another point's file, so a miss, not a crash
    block = diagonalize(PARAMS, "even")
    path = cache_path(tmp_path, PARAMS, "even")
    blob = b"".join([
        cache.HEADER.pack(cache.MAGIC, cache.VERSION, 25, 12.0, 3.0, 7.0, 1, 0, block.max_residual),
        block.vectors.astype("<f8").tobytes(),
        block.quasienergies.astype("<f8").tobytes(),
    ])
    path.write_bytes(blob + cache.CRC.pack(zlib.crc32(blob)))
    with pytest.raises(CacheFormatError, match="alpha=7.0, not the even sector"):
        load_eigensystem(path, PARAMS, "even")
    assert np.array_equal(cached_eigensystem(PARAMS, "even", tmp_path).vectors, block.vectors)
    assert_sector_file(path, "even")  # overwritten


def test_header_of_half_integer_j_is_rejected(tmp_path):
    # a well-formed format-4 file of a half-integer j, whose parity sectors
    # are no flip halves, must not load as the integer j it rounds to
    path = tmp_path / "half.ktc"
    blob = b"".join([
        cache.HEADER.pack(cache.MAGIC, cache.VERSION, 4, 1.5, 3.0, 1.0, 1, 0, 0.0),
        np.eye(2).astype("<f8").tobytes(),
        np.zeros(2).astype("<f8").tobytes(),
    ])
    path.write_bytes(blob + cache.CRC.pack(zlib.crc32(blob)))
    with pytest.raises(CacheFormatError, match="inconsistent with j=1.5"):
        load_eigensystem(path, PARAMS, "even")


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
        load_eigensystem(path, PARAMS, "even")
    again = cached_both(PARAMS, tmp_path)
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
        load_eigensystem(path, PARAMS, "odd")
    again = cached_both(PARAMS, tmp_path)
    assert np.array_equal(again.block("odd").vectors, eig.block("odd").vectors)
    assert_sector_file(path, "odd")
    assert np.array_equal(load_eigensystem(path, PARAMS, "odd").vectors, eig.block("odd").vectors)


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
        load_eigensystem(path, PARAMS, sector)
    again = cached_eigensystem(PARAMS, sector, tmp_path)
    assert np.array_equal(again.quasienergies, eig.block(sector).quasienergies)
    assert_sector_file(path, sector)


def test_save_leaves_no_temporary_files(tmp_path):
    cached_both(PARAMS, tmp_path)
    assert sorted(f.name for f in tmp_path.iterdir()) == sorted(
        cache_path(tmp_path, PARAMS, s).name for s in SECTORS
    )


@pytest.mark.parametrize("name", ["Even", "both", "", "ODD"])
def test_unknown_sector_name_is_a_value_error(tmp_path, name):
    eig = fresh_eigensystem()
    calls = (
        eig.block,
        lambda s: diagonalize(PARAMS, s),
        lambda s: load_eigensystem(tmp_path / "x.ktc", PARAMS, s),
        lambda s: cached_eigensystem(PARAMS, s, tmp_path),
        lambda s: cached_eigensystem(PARAMS, s),
    )
    for call in calls:
        with pytest.raises(ValueError, match="'even' or 'odd'"):
            call(name)
    assert list(tmp_path.iterdir()) == []

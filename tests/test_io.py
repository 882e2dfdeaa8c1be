from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from kickedtop import io
from kickedtop.io import _fmt, read_csv, write_csv, write_manifest


def test_csv_round_trip(tmp_path):
    path = tmp_path / "data.csv"
    cols = {"x": np.array([1.0, 0.25, 3.5e-7]), "n": np.array([1, 2, 3])}
    write_csv(path, cols, {"tool": "kickedtop 0.1.0", "seed": 7})
    meta, back = read_csv(path)
    assert meta["tool"] == "kickedtop 0.1.0"
    assert meta["seed"] == "7"
    assert np.array_equal(back["x"], cols["x"])
    assert np.array_equal(back["n"], cols["n"].astype(float))


def test_csv_header_lines_prefixed(tmp_path):
    path = write_csv(tmp_path / "h.csv", {"a": [1.0]}, {"k": "v"})
    lines = path.read_text().splitlines()
    assert lines[0] == "# k: v"
    assert lines[1] == "a"
    assert lines[2] == "1.0"


def test_csv_floats_round_trip_exactly(tmp_path):
    values = np.array([np.pi, 1 / 3, 1e-300, 12345.6789012345])
    path = write_csv(tmp_path / "f.csv", {"v": values}, {})
    _, back = read_csv(path)
    assert np.array_equal(back["v"], values)


def test_csv_bytes_match_per_cell_format(tmp_path):
    values = [np.nan, np.inf, -np.inf, -0.0, 1e-300, 5e-324, np.pi, 2.5]
    cols = {
        "f64": np.array(values),
        "f32": np.array(values, dtype=np.float32),
        "i64": np.array([0, -1, 2**62, -(2**63), 7, 8, 9, 10], dtype=np.int64),
        "flag": np.array([True, False] * 4),
        "label": np.array(["inf", "a", "b", "-0.0", "", "x y", "z", "q"]),
        "obj": np.array([1.5, 2, "s", None, np.float64(-0.0), np.int32(3), True, np.nan],
                        dtype=object),
    }
    meta = {"seed": 3}
    path = write_csv(tmp_path / "mixed.csv", cols, meta)
    lines = ["# seed: 3", ",".join(cols)]
    lines += [",".join(_fmt(np.asarray(a)[i]) for a in cols.values()) for i in range(len(values))]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
    assert path.read_text().splitlines()[2].split(",")[3] == "True"


def test_csv_unequal_columns_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "bad.csv", {"a": [1.0, 2.0], "b": [1.0]}, {})


def test_manifest_json(tmp_path):
    path = write_manifest(tmp_path / "m.json", {"files": ["a.csv"], "seed": 0})
    import json

    data = json.loads(path.read_text())
    assert data["files"] == ["a.csv"]


def per_cell_bytes(cols, meta):
    """The CSV bytes that ``_fmt`` gives cell by cell: the oracle of the block kernel."""
    lines = [f"# {k}: {v}" for k, v in meta.items()] + [",".join(cols)]
    arrays = [np.asarray(a) for a in cols.values()]
    lines += [",".join(_fmt(a[i]) for a in arrays) for i in range(len(arrays[0]))]
    return ("\n".join(lines) + "\n").encode()


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    values=hnp.arrays(
        np.float64,
        st.integers(1, 40),
        elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
        | st.floats(min_value=1e-4, max_value=1e15),
    ),
    block=st.integers(1, 8),
)
def test_block_kernel_matches_repr_on_any_float64(tmp_path_factory, values, block):
    path = tmp_path_factory.mktemp("prop") / "p.csv"
    with mock.patch.object(io, "_MIN_ROWS", 1), mock.patch.object(io, "_BLOCK_ROWS", block):
        write_csv(path, {"x": values, "neg": -values}, {"s": 1})
    assert path.read_bytes() == per_cell_bytes({"x": values, "neg": -values}, {"s": 1})


def test_block_kernel_matches_repr_on_a_million_values(tmp_path):
    rng = np.random.default_rng(12)
    decades = 10.0 ** np.arange(-5, 17)
    edges = np.concatenate([
        2.0 ** np.arange(-20, 51),
        decades,
        np.nextafter(decades, 0),
        np.nextafter(decades, np.inf),
        [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 0.1, 0.3, 0.9999999999999999, 1 / 3],
    ])
    n = 1_000_000 - 2 * edges.size
    log_uniform = 10.0 ** rng.uniform(-5, 16, n // 2) * rng.choice([-1.0, 1.0], n // 2)
    values = np.concatenate([edges, -edges, log_uniform, rng.uniform(0, 2 * np.pi, n - n // 2)])
    path = write_csv(tmp_path / "m.csv", {"x": values}, {})
    assert values.size >= io._MIN_ROWS
    assert path.read_bytes() == per_cell_bytes({"x": values}, {})


def test_block_kernel_integer_and_float32_columns(tmp_path):
    i64 = np.iinfo(np.int64)
    cols = {
        "i64": np.array([i64.min, i64.max, 0, -1, 1, -10, 10, -(10**18), 10**18 - 1], dtype=np.int64),
        "u64": np.array([2**64 - 1, 2**63, 2**63 - 1, 0, 1, 9, 10, 99, 10**19], dtype=np.uint64),
        "u64_small": np.array([0, 1, 2, 3, 4, 5, 6, 7, 2**63 - 1], dtype=np.uint64),
        "i8": np.array([-128, 127, 0, -1, 1, 5, -5, 100, -100], dtype=np.int8),
        "f32": np.array([0.1, -2.5, 1e-5, 3e38, np.nan, 1 / 3, 7.0, -0.0, 1e-4], dtype=np.float32),
    }
    with mock.patch.object(io, "_MIN_ROWS", 1), mock.patch.object(io, "_BLOCK_ROWS", 4):
        path = write_csv(tmp_path / "i.csv", cols, {})
    assert path.read_bytes() == per_cell_bytes(cols, {})
    assert path.read_text().splitlines()[1].split(",")[:2] == [str(i64.min), str(2**64 - 1)]


def test_failed_block_leaves_old_file_and_no_temporary(tmp_path, monkeypatch):
    path = write_csv(tmp_path / "keep.csv", {"x": [1.5, 2.5]}, {"v": 1})
    before = path.read_bytes()
    calls = []
    real = io._block_bytes

    def fail_second(arrays):
        calls.append(len(arrays[0]))
        if len(calls) == 2:
            raise RuntimeError("formatter failed")
        return real(arrays)

    monkeypatch.setattr(io, "_block_bytes", fail_second)
    monkeypatch.setattr(io, "_BLOCK_ROWS", 3)
    monkeypatch.setattr(io, "_MIN_ROWS", 1)
    with pytest.raises(RuntimeError, match="formatter failed"):
        write_csv(path, {"x": np.arange(7.0) + 0.5}, {"v": 2})
    assert calls == [3, 3]
    assert path.read_bytes() == before
    assert [f.name for f in tmp_path.iterdir()] == ["keep.csv"]

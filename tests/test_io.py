import numpy as np
import pytest

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

import json

import numpy as np

from cavitybec.csvio import read_table, write_json_lines, write_table


def test_roundtrip_with_json_header(tmp_path):
    path = tmp_path / "out.csv"
    meta = {"command": "bands", "params": {"y": 21.0, "site_count": 1001}}
    rows = [[0.1, 1.0], [0.2, 2.5]]
    write_table(path, ["q", "omega1"], rows, meta)
    meta2, names, rows2 = read_table(path)
    assert meta2 == meta
    assert names == ["q", "omega1"]
    assert rows2 == [{"q": 0.1, "omega1": 1.0}, {"q": 0.2, "omega1": 2.5}]


def test_header_line_is_hash_prefixed_json(tmp_path):
    path = tmp_path / "out.csv"
    write_table(path, ["x"], [[1.0]], {"a": 1})
    first = path.read_text().splitlines()[0]
    assert first.startswith("#")
    assert json.loads(first[1:]) == {"a": 1}


def test_outputs_are_bit_identical_across_runs(tmp_path):
    rows = [[0.1, 1.0 / 3.0], [0.2, 2.0 / 7.0]]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_table(a, ["x", "y"], rows, {"k": 0.1 + 0.2})
    write_table(b, ["x", "y"], rows, {"k": 0.1 + 0.2})
    assert a.read_bytes() == b.read_bytes()


def test_dict_rows_follow_field_order(tmp_path):
    path = tmp_path / "out.csv"
    write_table(path, ["b", "a"], [{"a": 1.0, "b": 2.0}], {})
    _, names, rows = read_table(path)
    assert names == ["b", "a"]
    assert rows == [{"b": 2.0, "a": 1.0}]


def test_json_lines_dump(tmp_path):
    path = tmp_path / "grid.jsonl"
    write_json_lines(path, [{"re_z": 1.0, "im_z": -0.1}], {"cmd": "poles"})
    lines = path.read_text().splitlines()
    assert json.loads(lines[0][1:]) == {"cmd": "poles"}
    assert json.loads(lines[1]) == {"re_z": 1.0, "im_z": -0.1}


def test_numpy_values_in_the_header_are_written_as_python_ones(tmp_path):
    # np.float64 is a float; the other numpy scalars and arrays are
    # converted, inside dicts, lists and tuples alike
    path = tmp_path / "out.csv"
    meta = {"f64": np.float64(0.1) + np.float64(0.2), "i64": np.int64(7),
            "f32": np.float32(1.1), "arr": np.array([[1.5, 2.0], [-0.0, 3.0]]),
            "tup": (1, np.float64(2.5), [np.int32(3)])}
    write_table(path, ["x"], [[1.0]], meta)
    assert path.read_text().splitlines()[0] == (
        '#{"arr": [[1.5, 2.0], [-0.0, 3.0]], "f32": 1.100000023841858, '
        '"f64": 0.30000000000000004, "i64": 7, "tup": [1, 2.5, [3]]}')

import json

import numpy as np
import pytest

from eigentomo import jsonio


def test_floats_written_as_shortest_repr(tmp_path):
    path = tmp_path / "doc.json"
    jsonio.dump({"p": 0.9, "w": 1.0}, path)
    assert path.read_text() == '{"p": 0.9, "w": 1.0}\n'


def test_floats_round_trip(tmp_path):
    path = tmp_path / "doc.json"
    values = [0.9, 1 / 3, 1e-300, 2.2250738585072014e-308, 5e-324, 123456.789, -0.0]
    jsonio.dump(values, path)
    loaded = jsonio.load(path)
    assert [v.hex() for v in loaded] == [v.hex() for v in values]


def test_whole_floats_stay_floats(tmp_path):
    path = tmp_path / "doc.json"
    jsonio.dump({"x": 2.0}, path)
    assert isinstance(jsonio.load(path)["x"], float)


def test_deterministic_encoding(tmp_path):
    doc = {"b": [1, 2.5, None, True, 1 / 3], "a": {"nested": "text"}}
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    jsonio.dump(doc, a)
    jsonio.dump(doc, b)
    assert a.read_bytes() == b.read_bytes()


def test_non_finite_rejected(tmp_path):
    for value in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError):
            jsonio.dump({"x": [value]}, tmp_path / "doc.json")


def test_file_round_trip(tmp_path):
    path = tmp_path / "doc.json"
    doc = {"p": 0.45449999999999979, "tag": "xx", "n": None, "ok": False}
    jsonio.dump(doc, path)
    assert jsonio.load(path) == doc


def test_arrays_written_as_their_lists(tmp_path):
    path = tmp_path / "doc.json"
    doc = {
        "m": np.arange(6.0).reshape(2, 3) / 7,
        "v": [np.array([-0.0, 5e-324]), np.zeros((0, 2)), np.ones((2, 0))],
        "t": {"k": np.arange(8).reshape(2, 2, 2), "s": np.array(1.5)},
        1: "int key",
        "plain": [1, 2.5, None, True, "x"],
    }
    jsonio.dump(doc, path)
    assert path.read_text() == json.dumps(doc, default=lambda a: a.tolist()) + "\n"


@pytest.mark.parametrize("where", ["array", "list"])
def test_non_finite_rejected_before_the_file_is_opened(tmp_path, where):
    entries = np.eye(3)
    entries[2, 1] = np.nan
    doc = {"re": entries} if where == "array" else {"re": np.eye(3), "x": [float("inf")]}
    kept = tmp_path / "kept.json"
    kept.write_text("kept\n")
    with pytest.raises(ValueError):
        jsonio.dump(doc, kept)
    assert kept.read_text() == "kept\n"
    new = tmp_path / "new.json"
    with pytest.raises(ValueError):
        jsonio.dump(doc, new)
    assert not new.exists()

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

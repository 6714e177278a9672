"""JSON documents on disk, through the standard library's codec.

``json.dumps`` writes each float as its repr, the shortest text that reads
back to the same double, so files round-trip exactly and repeated runs
write the same bytes.  Non-finite floats are rejected, because JSON has no
text for them.
"""

from __future__ import annotations

import json

import numpy as np


def dump(obj, path) -> None:
    """Write ``obj`` and a newline, the text of ``json.dumps(obj,
    allow_nan=False)`` with each ndarray in ``obj`` written as its nested
    list.  An array goes out one row at a time, so neither the file's text
    nor a list of all its entries is ever built.  A non-finite float raises
    ValueError before the file is opened."""
    pieces = list(_pieces(obj))
    with open(path, "w", encoding="utf-8") as fh:
        for piece in pieces:
            if isinstance(piece, str):
                fh.write(piece)
            else:
                _write_rows(fh, piece)
        fh.write("\n")


def _pieces(obj):
    """The text of ``obj`` in order, each ndarray passed through whole once
    its entries are checked finite."""
    if isinstance(obj, np.ndarray):
        if not np.isfinite(obj).all():
            raise ValueError("Out of range float values are not JSON compliant")
        yield obj
    elif not _holds_array(obj):
        yield json.dumps(obj, allow_nan=False)
    elif isinstance(obj, dict):
        yield "{"
        for i, (key, value) in enumerate(obj.items()):
            # The key as json writes it: {"key": 0} less its braces and value.
            yield (", " if i else "") + json.dumps({key: 0})[1:-2]
            yield from _pieces(value)
        yield "}"
    else:  # a list or tuple
        yield "["
        for i, value in enumerate(obj):
            if i:
                yield ", "
            yield from _pieces(value)
        yield "]"


def _holds_array(obj) -> bool:
    """Whether ``obj`` is an ndarray or a dict, list or tuple that holds one."""
    if isinstance(obj, dict):
        obj = obj.values()
    elif not isinstance(obj, (list, tuple)):
        return isinstance(obj, np.ndarray)
    return any(_holds_array(value) for value in obj)


def _write_rows(fh, array: np.ndarray) -> None:
    """Write ``array`` as ``json.dumps(array.tolist())``, one row at a time."""
    if array.ndim <= 1:
        fh.write(json.dumps(array.tolist()))
        return
    fh.write("[")
    for i, row in enumerate(array):
        if i:
            fh.write(", ")
        _write_rows(fh, row)
    fh.write("]")


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)

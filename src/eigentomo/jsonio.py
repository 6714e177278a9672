"""Deterministic JSON encoding with fixed-precision floats.

All floating-point values are written with 17 significant digits so that
files round-trip exactly and repeated runs produce byte-identical output.
Reading uses the standard library parser.
"""

from __future__ import annotations

import json
import math

import numpy as np


def format_float(value) -> str:
    """Render one float with 17 significant digits, always as a JSON float."""
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {value!r} cannot be serialized")
    text = format(x, ".17g")
    if "." not in text and "e" not in text and "E" not in text:
        text += ".0"
    return text


def _encode(obj, out: list) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.append("[")
        for i, item in enumerate(np.asarray(obj).tolist() if isinstance(obj, np.ndarray) else obj):
            if i:
                out.append(", ")
            _encode(item, out)
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            if i:
                out.append(", ")
            out.append(json.dumps(key))
            out.append(": ")
            _encode(value, out)
        out.append("}")
    else:
        raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def dumps(obj) -> str:
    """Serialize ``obj`` to a JSON string with deterministic float formatting."""
    out: list = []
    _encode(obj, out)
    return "".join(out)


def dump(obj, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))
        fh.write("\n")


def loads(text: str):
    return json.loads(text)


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)

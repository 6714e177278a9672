"""JSON documents on disk, through the standard library's codec.

``json.dumps`` writes each float as its repr, the shortest text that reads
back to the same double, so files round-trip exactly and repeated runs
write the same bytes.  Non-finite floats are rejected, because JSON has no
text for them.
"""

from __future__ import annotations

import json


def dump(obj, path) -> None:
    """Write ``obj`` and a newline; ValueError on a non-finite float."""
    text = json.dumps(obj, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)

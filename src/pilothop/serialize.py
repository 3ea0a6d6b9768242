"""JSON writer for artifacts.

Floats are written by ``json`` as ``repr`` writes them: the shortest
string that reads back as the same double, so serialized artifacts are
bit-comparable across runs and machines. Arrays are emitted as nested
lists in row-major order, numpy scalars as Python numbers.
"""
import json

import numpy as np


def _plain(o):
    if isinstance(o, np.ndarray):
        return o.tolist()
    if isinstance(o, (np.integer, np.floating)):
        return o.item()
    raise TypeError(f"{type(o).__name__} is not JSON serializable")


def dumps(obj, indent=None):
    """Serialize to JSON with shortest round-trip floats.

    Raises ValueError on NaN or infinity, which strict JSON cannot hold.
    """
    try:
        return json.dumps(obj, indent=indent, allow_nan=False, default=_plain)
    except ValueError as exc:
        raise ValueError(f"non-finite float has no JSON representation: {exc}") from exc


def dump(obj, path, indent=2):
    """Write ``dumps(obj)`` and a newline to ``path``.

    Serializes before opening, so a value ``dumps`` refuses leaves an
    existing file as it was and creates no new one.
    """
    text = dumps(obj, indent=indent)
    with open(path, "w", newline="\n") as f:
        f.write(text)
        f.write("\n")

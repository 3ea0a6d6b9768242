"""JSON helpers with explicit IEEE-754 round-trip formatting.

All floats are printed with 17 significant digits, which round-trips any
double exactly, so serialized artifacts are bit-comparable across runs
and machines. Arrays are emitted as nested lists in row-major order.
"""
import json
import math
import re

import numpy as np

_FLOAT_TAG = "~f17~"


class _TaggedFloat:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


class _Encoder(json.JSONEncoder):
    def default(self, o):
        if isinstance(o, _TaggedFloat):
            # placeholder token, replaced by the raw number after encoding;
            # a bare "-0" would read back as the integer 0 and lose the sign
            text = format(o.value, ".17g")
            return _FLOAT_TAG + ("-0.0" if text == "-0" else text) + _FLOAT_TAG
        return super().default(o)


def _tag(obj):
    if isinstance(obj, (float, np.floating)):
        if not math.isfinite(obj):
            raise ValueError(f"non-finite float {obj} has no JSON representation")
        return _TaggedFloat(float(obj))
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _tag(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return [_tag(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _tag(v) for k, v in obj.items()}
    return obj


_TOKEN_RE = re.compile('"' + _FLOAT_TAG + "(.*?)" + _FLOAT_TAG + '"')


def dumps(obj, indent=None):
    """Serialize to JSON with 17-significant-digit floats.

    Raises ValueError on NaN or infinity, which strict JSON cannot hold.
    """
    text = json.dumps(_tag(obj), indent=indent, cls=_Encoder)
    return _TOKEN_RE.sub(lambda m: m.group(1), text)


def dump(obj, path, indent=2):
    """Write ``dumps(obj)`` and a newline to ``path``.

    Serializes before opening, so a value ``dumps`` refuses leaves an
    existing file as it was and creates no new one.
    """
    text = dumps(obj, indent=indent)
    with open(path, "w", newline="\n") as f:
        f.write(text)
        f.write("\n")


def load(path):
    with open(path) as f:
        return json.load(f)

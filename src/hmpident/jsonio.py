"""JSON writing with fixed float formatting.

Floats are rendered with 17 significant digits so every IEEE double round
trips exactly through the files the tools exchange, and -0.0 is written as
"-0.0" so it reads back as a float; a flat float ndarray is written as a JSON
list in one formatting call.  Reading uses the stdlib parser unchanged.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import NonFiniteError

# "%.17g" writes -0.0 as "-0", which a JSON reader takes for the integer 0
_NEGATIVE_ZERO = "%.1f"


def _render(obj, pieces: list, indent: int):
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            pieces.append("{}")
            return
        pieces.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            pieces.append(f'{pad}  "{key}": ')
            _render(value, pieces, indent + 1)
            pieces.append(",\n" if i < len(obj) - 1 else "\n")
        pieces.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            pieces.append("[]")
            return
        pieces.append("[")
        for i, value in enumerate(obj):
            _render(value, pieces, indent)
            if i < len(obj) - 1:
                pieces.append(", ")
        pieces.append("]")
    elif isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.dtype.kind == "f":
        # a whole table in one finiteness check and one format call
        finite = np.isfinite(obj)
        if not finite.all():
            raise NonFiniteError(f"cannot write {obj[np.argmin(finite)]} as a JSON number")
        formats = ["%.17g"] * obj.size
        for i in np.flatnonzero((obj == 0.0) & np.signbit(obj)):
            formats[i] = _NEGATIVE_ZERO
        pieces.append("[" + ", ".join(formats) % tuple(obj.tolist()) + "]")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        pieces.append("true" if obj else "false")
    elif obj is None:
        pieces.append("null")
    elif isinstance(obj, (int, np.integer)):
        pieces.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        if not math.isfinite(obj):
            raise NonFiniteError(f"cannot write {obj} as a JSON number")
        pieces.append(_NEGATIVE_ZERO % obj if obj == 0.0 and math.copysign(1.0, obj) < 0
                      else format(float(obj), ".17g"))
    elif isinstance(obj, str):
        import json
        pieces.append(json.dumps(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps(obj) -> str:
    pieces: list = []
    _render(obj, pieces, 0)
    return "".join(pieces)


def write_json(obj, path):
    with open(path, "w") as fh:
        fh.write(dumps(obj))
        fh.write("\n")

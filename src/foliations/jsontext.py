"""Indented JSON text, byte-identical to what ``json.dumps`` prints with an
indent of two spaces and its other defaults.

With an indent, CPython's ``json`` runs its pure-Python encoder, which
chains one generator per container.  This writer appends the pieces of the
document to one list and joins them once; strings go through the C
``encode_basestring_ascii`` that ``json.dumps`` uses by default.

It accepts what ``json.dumps`` accepts, except that object keys must be
strings (the toolkit's documents have no other keys); anything else raises
``TypeError``.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _string


_INF = float("inf")


def _float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


def _write(obj, out: list[str], newline: str) -> None:
    if isinstance(obj, str):
        out.append(_string(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        out.append(_float(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for value in obj:
            out.append(sep)
            _write(value, out, inner)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {key.__class__.__name__}")
            out.append(sep)
            out.append(_string(key))
            out.append(": ")
            _write(value, out, inner)
            sep = "," + inner
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {obj.__class__.__name__} "
                        "is not JSON serializable")


def dumps(obj) -> str:
    """``obj`` as ``json.dumps`` indents it by two spaces, joined once."""
    out: list[str] = []
    _write(obj, out, "\n")
    return "".join(out)

"""Shared JSON document formats for matrices, kets, channels, and codes.

A matrix document carries ``rows``, ``cols``, and ``data`` as a flat
row-major list of ``[re, im]`` pairs.  Channel documents wrap an ordered
list of matrix documents plus declared ``in_dim``/``out_dim``; code
documents wrap an encoder matrix plus ``logical_dim``.  Parsers reject
length and dimension mismatches and entries that are not finite numbers
with the offending field named.
"""

from __future__ import annotations

import json
from itertools import chain
from typing import TYPE_CHECKING

import numpy as np

from .channels import KrausChannel

if TYPE_CHECKING:
    from .qec import CodeSpec

__all__ = [
    "FormatError",
    "matrix_to_doc",
    "doc_to_matrix",
    "ket_to_doc",
    "doc_to_ket",
    "channel_to_doc",
    "doc_to_channel",
    "code_to_doc",
    "doc_to_code",
    "load_json",
    "dump_json",
]


class FormatError(ValueError):
    """Malformed document; the message names the offending field."""


def _is_dim(n) -> bool:
    # bool subclasses int, so JSON true/false would pass a plain int check.
    return isinstance(n, int) and not isinstance(n, bool) and n >= 1


def _pairs(m: np.ndarray) -> list:
    """``[re, im]`` pairs of ``m`` in row-major order, one list per leading
    index when ``m`` has more than two axes."""
    return np.stack([m.real, m.imag], -1).reshape(*m.shape[:-2], -1, 2).tolist()


def matrix_to_doc(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    if m.ndim != 2:
        raise FormatError(f"matrix must be 1-D or 2-D, got ndim={m.ndim}")
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "data": _pairs(m)}


def _finite_values(data: list):
    """``data`` flattened into one float array, or ``None`` when some entry
    is not an ``[re, im]`` pair of finite numbers."""
    if not all(issubclass(t, (list, tuple)) for t in set(map(type, data))):
        return None
    if set(map(len, data)) != {2}:
        return None
    flat = list(chain.from_iterable(data))
    if not all(issubclass(t, (int, float)) and not issubclass(t, bool) for t in set(map(type, flat))):
        return None
    try:
        values = np.array(flat, dtype=float)
    except OverflowError:
        return None
    return values if np.isfinite(values).all() else None


def doc_to_matrix(doc, field: str = "matrix") -> np.ndarray:
    if not isinstance(doc, dict):
        raise FormatError(f"{field}: expected an object with rows/cols/data")
    for key in ("rows", "cols", "data"):
        if key not in doc:
            raise FormatError(f"{field}.{key}: missing")
    rows, cols = doc["rows"], doc["cols"]
    if not (_is_dim(rows) and _is_dim(cols)):
        raise FormatError(f"{field}.rows/cols: need positive integers")
    data = doc["data"]
    if not isinstance(data, list) or len(data) != rows * cols:
        raise FormatError(
            f"{field}.data: expected {rows * cols} entries, got "
            f"{len(data) if isinstance(data, list) else type(data).__name__}"
        )
    values = _finite_values(data)
    if values is None:
        # name the first bad entry
        i = next(i for i, pair in enumerate(data) if _finite_values([pair]) is None)
        raise FormatError(f"{field}.data[{i}]: expected an [re, im] pair of finite numbers")
    return values.view(complex).reshape(rows, cols)


def ket_to_doc(psi: np.ndarray) -> dict:
    return matrix_to_doc(np.asarray(psi, dtype=complex).reshape(-1, 1))


def doc_to_ket(doc, field: str = "state") -> np.ndarray:
    m = doc_to_matrix(doc, field)
    if m.shape[1] != 1:
        raise FormatError(f"{field}.cols: a ket needs cols = 1, got {m.shape[1]}")
    return m.reshape(-1)


def channel_to_doc(ch: KrausChannel) -> dict:
    return {
        "in_dim": ch.in_dim,
        "out_dim": ch.out_dim,
        "elements": [
            {"rows": ch.out_dim, "cols": ch.in_dim, "data": data} for data in _pairs(ch.stack)
        ],
    }


def doc_to_channel(doc, field: str = "channel") -> KrausChannel:
    if not isinstance(doc, dict):
        raise FormatError(f"{field}: expected an object")
    for key in ("in_dim", "out_dim", "elements"):
        if key not in doc:
            raise FormatError(f"{field}.{key}: missing")
    if not (_is_dim(doc["in_dim"]) and _is_dim(doc["out_dim"])):
        raise FormatError(f"{field}.in_dim/out_dim: need positive integers")
    elements = doc["elements"]
    if not isinstance(elements, list) or not elements:
        raise FormatError(f"{field}.elements: need a nonempty list")
    mats = [doc_to_matrix(e, f"{field}.elements[{k}]") for k, e in enumerate(elements)]
    for k, m in enumerate(mats):
        if m.shape != (doc["out_dim"], doc["in_dim"]):
            raise FormatError(
                f"{field}.elements[{k}]: shape {m.shape} does not match "
                f"declared ({doc['out_dim']}, {doc['in_dim']})"
            )
    return KrausChannel(mats)


def code_to_doc(code: CodeSpec) -> dict:
    return {"logical_dim": code.logical_dim, "encoder": matrix_to_doc(code.encoder)}


def doc_to_code(doc, field: str = "code") -> CodeSpec:
    from .qec import CodeSpec
    if not isinstance(doc, dict):
        raise FormatError(f"{field}: expected an object")
    for key in ("logical_dim", "encoder"):
        if key not in doc:
            raise FormatError(f"{field}.{key}: missing")
    if not _is_dim(doc["logical_dim"]):
        raise FormatError(f"{field}.logical_dim: need a positive integer")
    enc = doc_to_matrix(doc["encoder"], f"{field}.encoder")
    if enc.shape[1] != doc["logical_dim"]:
        raise FormatError(
            f"{field}.logical_dim: declared {doc['logical_dim']} but encoder has "
            f"{enc.shape[1]} columns"
        )
    try:
        return CodeSpec(enc)
    except ValueError as exc:
        raise FormatError(f"{field}.encoder: {exc}") from exc


def load_json(path: str, field: str = "input"):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise FormatError(f"{field}: cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"{field}: invalid JSON in {path}: {exc}") from exc


def _is_float_rows(rows) -> bool:
    return (
        set(map(type, rows)) == {list}
        and all(rows)
        and set(map(type, chain.from_iterable(rows))) == {float}
    )


def _encode(obj, indent: str) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` with every line after
    the first prefixed by ``indent``.

    That call runs the pure-Python encoder; here lists of float rows, such
    as matrix ``data``, go through the C encoder in one call and get their
    line breaks from ``str.replace``, which is safe because a float's JSON
    text never holds a bracket or ``", "``.
    """
    inner = indent + "  "
    if isinstance(obj, dict) and obj and all(isinstance(k, str) for k in obj):
        items = sorted(obj.items())
        body = (",\n" + inner).join(f"{json.dumps(k)}: {_encode(v, inner)}" for k, v in items)
        return "{\n" + inner + body + "\n" + indent + "}"
    if isinstance(obj, (list, tuple)) and obj:
        if _is_float_rows(obj):
            innermost = "\n" + inner + "  "
            body = json.dumps(obj)[2:-2].replace("], [", "\n" + inner + "],\n" + inner + "[" + innermost)
            body = body.replace(", ", "," + innermost)
            return "[\n" + inner + "[" + innermost + body + "\n" + inner + "]\n" + indent + "]"
        return "[\n" + inner + (",\n" + inner).join(_encode(v, inner) for v in obj) + "\n" + indent + "]"
    return json.dumps(obj, indent=2, sort_keys=True).replace("\n", "\n" + indent)


def dump_json(doc) -> str:
    """Canonical serialization: sorted keys, two-space indent, newline end;
    the text of ``json.dumps(doc, indent=2, sort_keys=True)`` plus a newline."""
    return _encode(doc, "") + "\n"

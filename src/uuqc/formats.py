"""Shared JSON document formats for matrices, kets, channels, and codes.

A matrix document carries ``rows``, ``cols``, and ``data`` as a flat
row-major list of ``[re, im]`` pairs.  Channel documents wrap an ordered
list of matrix documents plus declared ``in_dim``/``out_dim``; code
documents wrap an encoder matrix plus ``logical_dim``.  Parsers reject
length and dimension mismatches with the offending field named.
"""

from __future__ import annotations

import json

import numpy as np

from .channels import KrausChannel
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


def matrix_to_doc(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    if m.ndim != 2:
        raise FormatError(f"matrix must be 1-D or 2-D, got ndim={m.ndim}")
    data = [[float(z.real), float(z.imag)] for z in m.reshape(-1)]
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "data": data}


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
    out = np.empty(rows * cols, dtype=complex)
    for i, pair in enumerate(data):
        if (
            not isinstance(pair, (list, tuple))
            or len(pair) != 2
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in pair)
        ):
            raise FormatError(f"{field}.data[{i}]: expected an [re, im] pair")
        out[i] = complex(pair[0], pair[1])
    return out.reshape(rows, cols)


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
        "elements": [matrix_to_doc(e) for e in ch.elements],
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
    return KrausChannel(tuple(mats))


def code_to_doc(code: CodeSpec) -> dict:
    return {"logical_dim": code.logical_dim, "encoder": matrix_to_doc(code.encoder)}


def doc_to_code(doc, field: str = "code") -> CodeSpec:
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


def dump_json(doc) -> str:
    """Canonical serialization: sorted keys, two-space indent, newline end."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"

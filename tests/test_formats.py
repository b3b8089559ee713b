import numpy as np
import pytest

from uuqc.channels import KrausChannel
from uuqc.formats import (
    FormatError,
    channel_to_doc,
    code_to_doc,
    doc_to_channel,
    doc_to_code,
    doc_to_ket,
    doc_to_matrix,
    dump_json,
    ket_to_doc,
    matrix_to_doc,
)
from uuqc.qec import CodeSpec

from builders import rand_complex


def test_matrix_round_trip():
    rng = np.random.default_rng(0)
    m = rand_complex(rng, (3, 2))
    np.testing.assert_allclose(doc_to_matrix(matrix_to_doc(m)), m, atol=1e-15)


def test_ket_round_trip():
    rng = np.random.default_rng(1)
    psi = rand_complex(rng, 5)
    np.testing.assert_allclose(doc_to_ket(ket_to_doc(psi)), psi, atol=1e-15)


def test_channel_round_trip():
    rng = np.random.default_rng(2)
    ch = KrausChannel(tuple(rand_complex(rng, (3, 2)) for _ in range(2)))
    back = doc_to_channel(channel_to_doc(ch))
    assert back.in_dim == 2 and back.out_dim == 3
    for a, b in zip(ch.elements, back.elements):
        np.testing.assert_allclose(a, b, atol=1e-15)


def test_code_round_trip():
    enc = np.zeros((4, 2), dtype=complex)
    enc[0, 0] = 1.0
    enc[3, 1] = 1.0
    code = CodeSpec(enc)
    back = doc_to_code(code_to_doc(code))
    np.testing.assert_allclose(back.encoder, enc, atol=1e-15)


def test_rejects_length_mismatch():
    doc = matrix_to_doc(np.eye(2))
    doc["data"] = doc["data"][:-1]
    with pytest.raises(FormatError, match="data"):
        doc_to_matrix(doc)


def test_rejects_missing_fields_and_bad_pairs():
    with pytest.raises(FormatError, match="rows"):
        doc_to_matrix({"cols": 1, "data": []})
    with pytest.raises(FormatError, match=r"data\[0\]"):
        doc_to_matrix({"rows": 1, "cols": 1, "data": [[1.0]]})
    with pytest.raises(FormatError, match="cols"):
        doc_to_ket(matrix_to_doc(np.eye(2)))


def test_rejects_json_booleans():
    with pytest.raises(FormatError, match="rows/cols"):
        doc_to_matrix({"rows": True, "cols": 1, "data": [[1.0, 0.0]]})
    with pytest.raises(FormatError, match="rows/cols"):
        doc_to_matrix({"rows": 1, "cols": False, "data": []})
    with pytest.raises(FormatError, match=r"data\[1\]"):
        doc_to_matrix({"rows": 2, "cols": 1, "data": [[1.0, 0.0], [0.0, True]]})

    ch_doc = channel_to_doc(KrausChannel((np.eye(2),)))
    for key, value in [("in_dim", 2.0), ("out_dim", True), ("in_dim", "2"), ("out_dim", 0)]:
        with pytest.raises(FormatError, match="in_dim/out_dim"):
            doc_to_channel({**ch_doc, key: value})
    enc = np.zeros((4, 2), dtype=complex)
    enc[0, 0] = enc[3, 1] = 1.0
    code_doc = code_to_doc(CodeSpec(enc))
    one = code_to_doc(CodeSpec(enc[:, :1]))
    for doc in ({**code_doc, "logical_dim": 2.0}, {**one, "logical_dim": True}):
        with pytest.raises(FormatError, match="logical_dim"):
            doc_to_code(doc)


def test_rejects_channel_shape_mismatch():
    doc = channel_to_doc(KrausChannel((np.eye(2),)))
    doc["out_dim"] = 3
    with pytest.raises(FormatError, match="elements"):
        doc_to_channel(doc)


def test_rejects_code_dim_mismatch():
    enc = np.zeros((4, 2), dtype=complex)
    enc[0, 0] = 1.0
    enc[3, 1] = 1.0
    doc = code_to_doc(CodeSpec(enc))
    doc["logical_dim"] = 3
    with pytest.raises(FormatError, match="logical_dim"):
        doc_to_code(doc)


def test_dump_json_canonical():
    text = dump_json({"b": 1, "a": [1.5, -0.25]})
    assert text.index('"a"') < text.index('"b"')
    assert text.endswith("\n")

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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
    for a, b in zip(ch.stack, back.stack):
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


def test_accepts_what_the_per_pair_check_accepted():
    # ints, tuples and float subclasses pass; bool is not a number here
    doc = {"rows": 1, "cols": 2, "data": [(1, 2.5), [np.float64(0.5), -3]]}
    np.testing.assert_array_equal(doc_to_matrix(doc), [[1 + 2.5j, 0.5 - 3j]])


@pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400],
                         ids=["nan", "inf", "-inf", "1e400", "int-1e400"])
def test_rejects_non_finite_and_overflowing_entries(text):
    # a JSON integer too large for a float used to raise OverflowError
    doc = json.loads('{"rows": 3, "cols": 1, "data": [[1.0, 0.0], [0.5, %s], [0.0, 1.0]]}' % text)
    with pytest.raises(FormatError, match=r"m\.data\[1\]: expected an \[re, im\] pair of finite numbers"):
        doc_to_matrix(doc, "m")


def test_names_the_first_bad_entry():
    doc = {"rows": 4, "cols": 1, "data": [[1.0, 0.0], [0.0, float("nan")], [True, 0.0], [1.0]]}
    with pytest.raises(FormatError, match=r"data\[1\]"):
        doc_to_matrix(doc)
    doc["data"][1] = [0.0, 0.0]
    with pytest.raises(FormatError, match=r"data\[2\]"):
        doc_to_matrix(doc)


_floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from([-0.0, float("nan"), float("inf")])
_texts = st.sampled_from(["], [", ", ", "[1.0, 2.0]"]) | st.text(alphabet=st.sampled_from('a], [", \\\n\u00e9'), max_size=8)
_scalars = st.none() | st.booleans() | st.integers() | _floats | _texts
_float_rows = st.lists(st.lists(_floats, max_size=3), max_size=4)
# rows of floats mixed with ints, or with strings that look like row breaks
_mixed_rows = st.lists(st.lists(_floats | st.integers(), max_size=3), max_size=4) | st.lists(
    st.lists(_floats | _texts, max_size=3), max_size=4
)
_json_docs = st.recursive(
    _scalars | _float_rows | _mixed_rows,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=30,
)


@given(_json_docs)
def test_dump_json_is_the_indented_sorted_text(doc):
    assert dump_json(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


@st.composite
def _stacks(draw):
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    size = 2 * shape[0] * shape[1] * shape[2]
    values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=size, max_size=size))
    return np.array(values).view(complex).reshape(shape)


@given(_stacks())
def test_channel_document_round_trip_is_bit_exact(stack):
    ch = KrausChannel(stack)
    back = doc_to_channel(json.loads(dump_json(channel_to_doc(ch))))
    assert back.stack.shape == ch.stack.shape
    assert np.array_equal(back.stack.view(np.uint64), ch.stack.view(np.uint64))

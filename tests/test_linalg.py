import numpy as np
import pytest

from uuqc.linalg import (
    SubspaceIsometry,
    factor_as_tensor,
    partial_trace,
    random_unitary,
    shift_clock_unitaries,
    tensor_product,
)
from uuqc.unambiguous import _subspace_columns

from builders import rand_complex
from oracles import kron_entry, partial_trace_sum, shift_clock_by_powers


def test_tensor_product_identities():
    np.testing.assert_allclose(tensor_product(np.eye(2), np.eye(2)), np.eye(4))


def test_tensor_product_basis_kets():
    a = np.array([[1.0], [0.0]])
    b = np.array([[0.0], [1.0]])
    np.testing.assert_allclose(tensor_product(a, b), [[0.0], [1.0], [0.0], [0.0]])


def test_tensor_product_index_formula():
    rng = np.random.default_rng(11)
    a = rand_complex(rng, (2, 3))
    b = rand_complex(rng, (2, 2))
    out = tensor_product(a, b)
    for i in range(4):
        for j in range(6):
            assert out[i, j] == pytest.approx(kron_entry(a, b, i, j))


def test_tensor_product_associative():
    rng = np.random.default_rng(12)
    a, b, c = (rand_complex(rng, (2, 2)) for _ in range(3))
    lhs = tensor_product(tensor_product(a, b), c)
    rhs = tensor_product(a, tensor_product(b, c))
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_partial_trace_maximally_entangled_marginal():
    phi = np.eye(2).reshape(-1) / np.sqrt(2)
    rho = np.outer(phi, phi)
    np.testing.assert_allclose(partial_trace(rho, (2, 2), keep=(0,)), np.eye(2) / 2, atol=1e-12)


def test_partial_trace_product_state():
    rng = np.random.default_rng(5)
    a = rand_complex(rng, (3, 3))
    rho = a @ a.conj().T
    sigma = rand_complex(rng, (2, 2))
    sigma = sigma @ sigma.conj().T
    sigma /= np.trace(sigma)
    np.testing.assert_allclose(
        partial_trace(np.kron(rho, sigma), (3, 2), keep=(0,)), rho, atol=1e-12
    )


def test_partial_trace_matches_sum_oracle():
    rng = np.random.default_rng(6)
    m = rand_complex(rng, (6, 6))
    np.testing.assert_allclose(
        partial_trace(m, (2, 3), keep=(1,)), partial_trace_sum(m, (2, 3), traced=0), atol=1e-12
    )


def test_partial_trace_linear_and_trace_preserving():
    rng = np.random.default_rng(7)
    for _ in range(10):
        m1 = rand_complex(rng, (12, 12))
        m2 = rand_complex(rng, (12, 12))
        c = complex(rng.standard_normal(), rng.standard_normal())
        lhs = partial_trace(m1 + c * m2, (3, 4), keep=(0,))
        rhs = partial_trace(m1, (3, 4), keep=(0,)) + c * partial_trace(m2, (3, 4), keep=(0,))
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)
        assert np.trace(partial_trace(m1, (3, 4), keep=(1,))) == pytest.approx(np.trace(m1))


def test_partial_trace_dims_mismatch():
    with pytest.raises(ValueError):
        partial_trace(np.eye(6), (2, 2), keep=(0,))


def test_factor_exact_product():
    rng = np.random.default_rng(10)
    a = rand_complex(rng, (3, 2))
    b = rand_complex(rng, (2, 4))
    pair = factor_as_tensor(np.kron(a, b), 3, 2, 2, 4)
    assert pair.residual <= 1e-12
    np.testing.assert_allclose(
        tensor_product(pair.sys_factor, pair.env_factor), np.kron(a, b), atol=1e-9
    )
    # the system factor is the normalized direction of a
    ratio = pair.sys_factor / a
    np.testing.assert_allclose(ratio, np.full_like(a, ratio[0, 0]), atol=1e-9)


def test_factor_known_operator_schmidt_spectrum():
    # Orthogonal pairs with unequal weights give an exactly known residual.
    a = np.diag([1.0, 0.0]).astype(complex)
    c = np.diag([0.0, 1.0]).astype(complex)
    b = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    d = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
    m = 3.0 * np.kron(a, b) + 2.0 * np.kron(c, d)
    pair = factor_as_tensor(m, 2, 2, 2, 2)
    assert pair.residual == pytest.approx(np.linalg.norm(2.0 * np.kron(c, d)))
    np.testing.assert_allclose(pair.schmidt_values, [3.0, 2.0, 0.0, 0.0], atol=1e-12)


def test_factor_swap_has_full_operator_schmidt_rank():
    swap = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            swap[j * 2 + i, i * 2 + j] = 1.0
    pair = factor_as_tensor(swap, 2, 2, 2, 2)
    assert pair.residual > 0.5
    # brute-force check of the reshuffled spectrum
    shuffled = swap.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    s = np.linalg.svd(shuffled, compute_uv=False)
    assert np.sum(s > 1e-12) == 4
    np.testing.assert_allclose(pair.schmidt_values, s, atol=1e-12)


def test_factor_random_product_invariant():
    rng = np.random.default_rng(13)
    for _ in range(20):
        a = rand_complex(rng, (3, 3))
        b = rand_complex(rng, (2, 2))
        m = np.kron(a, b)
        pair = factor_as_tensor(m, 3, 2, 3, 2)
        assert pair.residual <= 1e-10
        assert np.linalg.norm(tensor_product(pair.sys_factor, pair.env_factor) - m) <= 1e-9


def test_factor_stack_matches_one_by_one():
    rng = np.random.default_rng(14)
    stack = rand_complex(rng, (2, 3, 3 * 2, 2 * 4))
    batched = factor_as_tensor(stack, 3, 2, 2, 4)
    assert batched.sys_factor.shape == (2, 3, 3, 2)
    assert batched.env_factor.shape == (2, 3, 2, 4)
    assert batched.residual.shape == (2, 3)
    for idx in np.ndindex(2, 3):
        one = factor_as_tensor(stack[idx], 3, 2, 2, 4)
        np.testing.assert_allclose(batched.schmidt_values[idx], one.schmidt_values, atol=1e-12)
        assert batched.residual[idx] == pytest.approx(one.residual, abs=1e-12)
        np.testing.assert_allclose(
            tensor_product(batched.sys_factor[idx], batched.env_factor[idx]),
            tensor_product(one.sys_factor, one.env_factor),
            atol=1e-12,
        )


def test_random_unitary_properties():
    u = random_unitary(4, 21)
    assert np.linalg.norm(u.conj().T @ u - np.eye(4)) <= 1e-12
    scalar = random_unitary(1, 3)
    assert abs(abs(scalar[0, 0]) - 1.0) <= 1e-12
    np.testing.assert_allclose(random_unitary(3, 17), random_unitary(3, 17))


def test_shift_clock_unitaries_basic():
    ops = shift_clock_unitaries(2)
    np.testing.assert_allclose(ops[0], np.eye(2), atol=1e-12)
    np.testing.assert_allclose(ops[2], [[0, 1], [1, 0]], atol=1e-12)


@pytest.mark.parametrize("dim", range(1, 7))
def test_shift_clock_unitaries_match_matrix_powers(dim):
    ops = shift_clock_unitaries(dim)
    ref = shift_clock_by_powers(dim)
    assert len(ops) == dim * dim
    for op, want in zip(ops, ref):
        np.testing.assert_allclose(op, want, atol=1e-12)


def test_subspace_isometry_validation_and_complement():
    with pytest.raises(ValueError):
        SubspaceIsometry(np.array([[1.0, 1.0], [0.0, 0.0]]))
    iso = SubspaceIsometry.from_indices(4, (1, 3))
    proj = iso.projector()
    np.testing.assert_allclose(proj @ proj, proj, atol=1e-12)
    comp = iso.complement()
    assert comp.sub_dim == 2
    np.testing.assert_allclose(comp.columns.conj().T @ iso.columns, 0, atol=1e-12)
    ext = iso.extend_left(3)
    assert ext.ambient_dim == 12 and ext.sub_dim == 6


def test_basis_subspace_spans_the_given_states():
    np.testing.assert_array_equal(SubspaceIsometry.from_indices(3, [2, 0]).columns, np.eye(3)[:, [2, 0]])


@pytest.mark.parametrize("indices", [[-1], [5], [0, 3], [1.5]])
def test_basis_subspace_rejects_indices_out_of_range(indices):
    # -1 used to wrap round to e2; 5 and 1.5 raised IndexError
    with pytest.raises(ValueError, match="basis indices"):
        SubspaceIsometry.from_indices(3, indices)


def test_basis_subspace_rejects_repeated_indices():
    with pytest.raises(ValueError, match="not orthonormal"):
        SubspaceIsometry.from_indices(3, [1, 1])


@pytest.mark.parametrize("d", [1, 2, 8])
def test_full_subspace_is_a_read_only_complex_identity(d):
    iso = SubspaceIsometry(np.eye(d))
    assert iso.columns.dtype == complex
    np.testing.assert_array_equal(iso.columns, np.eye(d))
    assert not iso.columns.flags.writeable
    with pytest.raises(ValueError):
        iso.columns[0, 0] = 2
    assert iso.ambient_dim == iso.sub_dim == d


@pytest.mark.parametrize("d", [0, -1])
def test_full_subspace_rejects_empty_dimensions(d):
    # An omitted subspace is the identity on the full system space, which must not be empty.
    with pytest.raises(ValueError, match=rf"invalid subspace shape \({d}, {d}\)"):
        _subspace_columns(None, None, (d, d), 1, 1)

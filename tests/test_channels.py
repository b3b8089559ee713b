import numpy as np
import pytest

from uuqc.channels import (
    KrausChannel,
    _choi_vectors,
    apply,
    choi_state,
    compose,
    is_physical,
    povm_of,
)
from uuqc.densecode import SharedState, optimal_protocol, simulate, weyl_operators
from uuqc.entanglement import _ues_ket, schmidt, teleportation_parts
from uuqc.linalg import SubspaceIsometry, factor_as_tensor, random_unitary, shift_clock_unitaries
from uuqc.qec import CodeSpec, kl_check
from uuqc.unambiguous import certify_uum, certify_uuqc

from builders import PAULI_X, PAULI_Y, PAULI_Z, maximally_entangled_ket, rand_complex
from oracles import choi_by_kron


def random_density(rng, dim):
    g = rand_complex(rng, (dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def test_apply_identity():
    rng = np.random.default_rng(0)
    rho = random_density(rng, 3)
    np.testing.assert_allclose(apply(KrausChannel((np.eye(3),)), rho), rho, atol=1e-12)


def test_apply_unitary_conjugation():
    u = random_unitary(2, 4)
    rho = np.diag([1.0, 0.0]).astype(complex)
    np.testing.assert_allclose(
        apply(KrausChannel((u,)), rho), u @ rho @ u.conj().T, atol=1e-12
    )


def test_apply_bit_flip_mix():
    ch = KrausChannel((np.sqrt(0.7) * np.eye(2), np.sqrt(0.3) * PAULI_X))
    rho = np.diag([1.0, 0.0]).astype(complex)
    # two-term sum by hand: 0.7 |0><0| + 0.3 X|0><0|X
    np.testing.assert_allclose(apply(ch, rho), np.diag([0.7, 0.3]), atol=1e-12)


def test_apply_preserves_hermiticity_and_positivity():
    rng = np.random.default_rng(1)
    ch = KrausChannel(tuple(0.6 * rand_complex(rng, (3, 3)) for _ in range(2)))
    for _ in range(100):
        rho = random_density(rng, 3)
        out = apply(ch, rho)
        np.testing.assert_allclose(out, out.conj().T, atol=1e-10)
        assert np.min(np.linalg.eigvalsh(out)) >= -1e-10


def test_apply_trace_preserving_channels_keep_trace():
    rng = np.random.default_rng(2)
    ch = KrausChannel((np.sqrt(0.4) * np.eye(2), np.sqrt(0.6) * PAULI_Z))
    for _ in range(20):
        rho = random_density(rng, 2)
        assert np.trace(apply(ch, rho)).real == pytest.approx(1.0, abs=1e-10)


def test_apply_stack_of_states_matches_one_by_one():
    rng = np.random.default_rng(3)
    ch = KrausChannel(tuple(0.4 * rand_complex(rng, (2, 3)) for _ in range(3)))
    rhos = np.array([random_density(rng, 3) for _ in range(5)])
    batched = apply(ch, rhos)
    assert batched.shape == (5, 2, 2)
    for rho, out in zip(rhos, batched):
        by_hand = sum(e @ rho @ e.conj().T for e in ch.stack)
        np.testing.assert_allclose(out, by_hand, atol=1e-12)


def test_apply_dimension_mismatch():
    with pytest.raises(ValueError):
        apply(KrausChannel((np.eye(2),)), np.eye(3))


def test_is_physical_identity():
    rep = is_physical(KrausChannel((np.eye(2),)))
    assert rep.physical and rep.trace_preserving
    assert rep.max_eigenvalue == pytest.approx(1.0)


def test_is_physical_scaled_identity():
    rep = is_physical(KrausChannel((1.1 * np.eye(2),)))
    assert not rep.physical
    assert rep.max_eigenvalue == pytest.approx(1.21)


def test_is_physical_filter():
    gamma = 0.36
    rep = is_physical(KrausChannel((np.diag([1.0, np.sqrt(1 - gamma)]),)))
    assert rep.physical and not rep.trace_preserving
    assert rep.max_eigenvalue == pytest.approx(1.0)


def test_choi_identity():
    phi = maximally_entangled_ket(2)
    np.testing.assert_allclose(
        choi_state(KrausChannel((np.eye(2),))), np.outer(phi, phi.conj()), atol=1e-12
    )


def test_choi_depolarizing():
    ch = KrausChannel((np.eye(2) / 2, PAULI_X / 2, PAULI_Y / 2, PAULI_Z / 2))
    np.testing.assert_allclose(choi_state(ch), np.eye(4) / 4, atol=1e-12)


def test_choi_filter_pure_unnormalized():
    gamma = 0.36
    sigma = choi_state(KrausChannel((np.diag([1.0, np.sqrt(1 - gamma)]),)))
    ket = np.array([1.0, 0.0, 0.0, 0.8]) / np.sqrt(2)
    np.testing.assert_allclose(sigma, np.outer(ket, ket.conj()), atol=1e-12)
    assert np.trace(sigma).real == pytest.approx(0.82)


def test_choi_trace_matches_gram_trace():
    rng = np.random.default_rng(3)
    for _ in range(10):
        ch = KrausChannel(tuple(0.5 * rand_complex(rng, (3, 2)) for _ in range(3)))
        expected = np.trace(ch.gram_sum()).real / ch.in_dim
        assert np.trace(choi_state(ch)).real == pytest.approx(expected, abs=1e-10)


def _kron_ket(e):
    """``(I (x) E)|Phi>`` with ``|Phi> = sum_i |ii>``, the reference slot slow."""
    n = e.shape[1]
    return np.kron(np.eye(n), e) @ np.eye(n).reshape(-1)


def test_choi_matches_kron_reference():
    # in_dim != out_dim, up to eight elements, trace-decreasing; the Choi
    # vectors, the dense-coding basis and the certified UES ket share the layout
    rng = np.random.default_rng(5)
    for in_dim, out_dim, k in [(2, 3, 1), (3, 2, 4), (4, 5, 8), (5, 1, 2)]:
        elems = rand_complex(rng, (k, out_dim, in_dim))
        gram = sum(e.conj().T @ e for e in elems)
        elems *= np.sqrt(0.8 / np.max(np.linalg.eigvalsh(gram)))
        ch = KrausChannel(tuple(elems))
        rep = is_physical(ch)
        assert rep.physical and not rep.trace_preserving
        np.testing.assert_allclose(choi_state(ch), choi_by_kron(ch.stack), atol=1e-12)
        np.testing.assert_allclose(_choi_vectors(ch.stack), [_kron_ket(e) for e in elems], atol=1e-15)
    for squares in ([0.8, 0.2], [0.5, 0.3, 0.2]):
        D = len(squares)
        basis = optimal_protocol(SharedState.from_squares(squares)).discrimination_basis
        np.testing.assert_allclose(basis.T * np.sqrt(D), [_kron_ket(a) for a in weyl_operators(D)], atol=1e-15)
    for d in (2, 3, 5):
        u = random_unitary(d, d)
        peak = u.reshape(-1)[abs(u).argmax()]
        u *= abs(peak) / peak  # _ues_ket fixes the phase of the peak
        np.testing.assert_allclose(_ues_ket(u) * np.sqrt(d), _kron_ket(u), atol=1e-15)


def test_choi_matches_kron_reference_at_large_dims():
    # in_dim * out_dim >= 600, the sizes of certify's heaviest Choi states
    rng = np.random.default_rng(7)
    for in_dim, out_dim, k in [(20, 32, 6), (25, 24, 3)]:
        ch = KrausChannel(tuple(rand_complex(rng, (k, out_dim, in_dim)) / np.sqrt(k * out_dim)))
        want = choi_by_kron(ch.stack)
        np.testing.assert_allclose(choi_state(ch), want, atol=1e-12 * np.abs(want).max())


def test_compose_with_identity():
    rng = np.random.default_rng(4)
    ch = KrausChannel(tuple(0.7 * rand_complex(rng, (2, 2)) for _ in range(2)))
    comp = compose(KrausChannel((np.eye(2),)), ch)
    for _ in range(5):
        rho = random_density(rng, 2)
        np.testing.assert_allclose(apply(comp, rho), apply(ch, rho), atol=1e-12)


def test_compose_double_flip_is_identity():
    comp = compose(KrausChannel((PAULI_X,)), KrausChannel((PAULI_X,)))
    rng = np.random.default_rng(5)
    rho = random_density(rng, 2)
    np.testing.assert_allclose(apply(comp, rho), rho, atol=1e-12)


def test_compose_matches_sequential_application():
    rng = np.random.default_rng(6)
    first = KrausChannel(tuple(0.6 * rand_complex(rng, (3, 2)) for _ in range(2)))
    second = KrausChannel(tuple(0.6 * rand_complex(rng, (2, 3)) for _ in range(2)))
    comp = compose(first, second)
    assert len(comp.stack) == 4
    # second's index runs fastest
    want = [b @ a for a in first.stack for b in second.stack]
    np.testing.assert_allclose(comp.stack, want, atol=1e-15)
    for _ in range(20):
        rho = random_density(rng, 2)
        np.testing.assert_allclose(
            apply(comp, rho), apply(second, apply(first, rho)), atol=1e-10
        )


def test_povm_of_unitary():
    povm = povm_of(KrausChannel((random_unitary(3, 7),)))
    np.testing.assert_allclose(povm[0], np.eye(3), atol=1e-12)


def test_povm_of_mix():
    povm = povm_of(KrausChannel((np.sqrt(0.7) * np.eye(2), np.sqrt(0.3) * PAULI_X)))
    np.testing.assert_allclose(povm[0], 0.7 * np.eye(2), atol=1e-12)
    np.testing.assert_allclose(povm[1], 0.3 * np.eye(2), atol=1e-12)


def test_povm_of_filter_pair():
    k = np.diag([1.0, 0.5]).astype(complex)
    rest = np.diag([0.0, np.sqrt(0.75)]).astype(complex)
    povm = povm_of(KrausChannel((k, rest)))
    np.testing.assert_allclose(povm[0], np.diag([1.0, 0.25]), atol=1e-12)
    np.testing.assert_allclose(povm[1], np.diag([0.0, 0.75]), atol=1e-12)
    np.testing.assert_allclose(povm[0] + povm[1], np.eye(2), atol=1e-12)


def test_channel_shape_validation():
    with pytest.raises(ValueError):
        KrausChannel((np.eye(2), np.eye(3)))
    with pytest.raises(ValueError):
        KrausChannel(())


def test_stack_is_read_only():
    ch = KrausChannel((np.eye(2), np.diag([1.0, -1.0])))
    assert ch.stack.shape == (2, 2, 2) and ch.stack.dtype == complex
    assert not ch.stack.flags.writeable
    with pytest.raises(ValueError):
        ch.stack[0, 0, 0] = 5.0
    with pytest.raises(ValueError):
        ch.stack[0][0, 0] = 5.0
    extra = np.ones((2, 2))
    longer = KrausChannel((*ch.stack, extra))
    assert longer.stack.shape == (3, 2, 2) and not longer.stack.flags.writeable
    np.testing.assert_array_equal(longer.stack[2], extra)


def test_stack_from_array_is_a_read_only_copy():
    arr = rand_complex(np.random.default_rng(43), (3, 2, 4))
    ch = KrausChannel(arr)
    assert ch.stack.shape == (3, 2, 4) and not ch.stack.flags.writeable
    assert not np.shares_memory(ch.stack, arr)
    keep = arr.copy()
    arr[0, 0, 0] = 99.0
    np.testing.assert_array_equal(ch.stack, keep)
    assert len(ch.stack) == 3 and all(e.base is ch.stack for e in ch.stack)


@pytest.mark.parametrize("elements, message", [
    ((np.eye(2), np.ones((2, 3))), r"element 1 has shape \(2, 3\)"),
    ((np.eye(2), np.eye(2), [[1.0, 0.0]]), r"element 2 has shape \(1, 2\)"),
    ((np.eye(2), np.ones(2)), "element 1 is not a matrix"),
    ((np.ones(2),), "element 0 is not a matrix"),
    ((np.eye(2), np.ones((1, 2, 2))), "element 1 is not a matrix"),
    (np.ones((2, 2)), "element 0 is not a matrix"),
])
def test_malformed_elements_are_named(elements, message):
    with pytest.raises(ValueError, match=message):
        KrausChannel(elements)


def test_operator_families_are_single_arrays():
    bras, corrections = teleportation_parts(3)
    families = {
        "shift_clock_unitaries": (shift_clock_unitaries(3), (9, 3, 3)),
        "weyl_operators": (weyl_operators(3), (9, 3, 3)),
        "encoders": (optimal_protocol(SharedState.from_squares([0.6, 0.4])).encoders, (4, 2, 2)),
        "teleportation bras": (bras, (9, 1, 9)),
        "teleportation corrections": (corrections, (9, 3, 3)),
        "povm_of": (povm_of(KrausChannel((np.eye(2), PAULI_X))), (2, 2, 2)),
    }
    for name, (family, shape) in families.items():
        assert type(family) is np.ndarray and family.shape == shape, name


def _state():
    return SharedState.from_squares([0.6, 0.4])


@pytest.mark.parametrize("make", [
    lambda: SubspaceIsometry(np.eye(2)),
    lambda: factor_as_tensor(np.eye(4), 2, 2, 2, 2),
    lambda: KrausChannel((np.eye(2), PAULI_X)),
    lambda: certify_uum(np.eye(2)),
    lambda: certify_uuqc(KrausChannel((np.eye(2),))),
    lambda: schmidt(maximally_entangled_ket(2), 2, 2),
    lambda: CodeSpec(np.eye(2)),
    lambda: kl_check(CodeSpec(np.eye(2)), KrausChannel(np.stack([np.eye(2)] * 2) / np.sqrt(2))),
    _state,
    lambda: optimal_protocol(_state()),
    lambda: simulate(_state(), optimal_protocol(_state()), 10),
], ids=["SubspaceIsometry", "FactoredPair", "KrausChannel", "UumCertificate", "UuqcCertificate",
        "SchmidtForm", "CodeSpec", "KlReport", "SharedState", "DenseCodingProtocol", "SimulationResult"])
def test_array_records_compare_and_hash_by_identity(make):
    a, b = make(), make()
    assert a == a and a != b
    assert len({a, b, a}) == 2 and a in {a} and b not in {a}

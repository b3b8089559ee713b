import dataclasses
import gc
import warnings
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from uuqc import unambiguous
from uuqc.channels import KrausChannel, apply, maximally_entangled_ket
from uuqc.entanglement import _ues_ket, uuqc_to_ues
from uuqc.linalg import (
    DEFAULT_TOL,
    SubspaceIsometry,
    factor_as_tensor,
    partial_trace,
    random_ket,
    random_unitary,
    tensor_product,
)
from uuqc.unambiguous import (
    UumCertificate,
    certify_uum,
    certify_uuqc,
    extend_by_identity,
    probability_profile,
    refine,
    restrict_operator,
)

from builders import PAULI_X, PAULI_Z, env_factors, make_uum, make_uuqc, rand_complex, random_subspace
from oracles import (
    partial_trace_sum,
    projected_choi_by_kron,
    refine_by_kron,
    restrict_by_kron,
    uum_by_index_loops,
)


def test_certify_plain_unitary():
    u = random_unitary(3, 2)
    cert = certify_uum(u)
    assert cert.is_uum
    assert cert.probability == pytest.approx(1.0, abs=1e-12)
    assert cert.env_factor.shape == (1, 1)
    assert abs(cert.env_factor[0, 0]) == pytest.approx(1.0, abs=1e-12)


def test_certify_recovers_constructed_unitary():
    rng = np.random.default_rng(1)
    theta = env_factors(rng, 3, 2, [0.42])[0]
    u = random_unitary(2, 8)
    omega = tensor_product(u, theta)
    cert = certify_uum(omega, env_in=2, env_out=3)
    assert cert.is_uum
    assert cert.probability == pytest.approx(np.linalg.norm(theta) ** 2, abs=1e-9)
    # recovered up to phase
    assert abs(np.trace(cert.unitary.conj().T @ u)) == pytest.approx(2.0, abs=1e-9)
    # p = Tr(T T^dag) for the extracted factor
    assert np.trace(cert.env_factor @ cert.env_factor.conj().T).real == pytest.approx(
        cert.probability, abs=1e-9
    )


def test_certify_ignores_annihilated_noise():
    rng = np.random.default_rng(2)
    omega, u, theta, v1, v2 = make_uum(rng, 2, 4, 5, 2, 2, 0.37, with_noise=True)
    cert = certify_uum(omega, v1, v2, 2, 2)
    assert cert.is_uum
    assert cert.probability == pytest.approx(0.37, abs=1e-9)
    # direct evaluation of the defining equation on random subspace kets
    proj_out = tensor_product(v2.projector(), np.eye(2))
    for k in range(20):
        psi = v1.columns @ random_ket(2, k)
        block = proj_out @ omega @ tensor_product(psi.reshape(-1, 1), np.eye(2))
        assert np.linalg.norm(block) ** 2 == pytest.approx(0.37, abs=1e-9)


def test_reconstruction_invariant():
    rng = np.random.default_rng(3)
    omega, u, theta, v1, v2 = make_uum(rng, 3, 4, 4, 2, 2, 0.6, with_noise=True)
    cert = certify_uum(omega, v1, v2, 2, 2)
    restricted = restrict_operator(omega, v1, v2, 2, 2)
    recon = tensor_product(cert.unitary, cert.env_factor)
    assert np.linalg.norm(recon - restricted) <= cert.residual + 1e-9
    gram = cert.unitary.conj().T @ cert.unitary
    np.testing.assert_allclose(gram, np.eye(3), atol=1e-9)


def test_certified_matrices_round_trip_both_directions():
    # built as a product (plus annihilated noise) -> certifies; certified ->
    # reconstructs as a product within the residual
    rng = np.random.default_rng(4)
    for trial in range(10):
        omega, u, theta, v1, v2 = make_uum(rng, 2, 3, 3, 2, 3, 0.5, with_noise=True)
        cert = certify_uum(omega, v1, v2, 2, 3)
        assert cert.is_uum
        restricted = restrict_operator(omega, v1, v2, 2, 3)
        assert (
            np.linalg.norm(tensor_product(cert.unitary, cert.env_factor) - restricted)
            <= 1e-9
        )


def test_profile_flat_for_identity():
    prof = probability_profile(np.eye(4, dtype=complex), samples=10, seed=0)
    np.testing.assert_allclose(prof, 1.0, atol=1e-12)


def test_profile_flat_for_constructed_map():
    rng = np.random.default_rng(5)
    omega, *_ , v1, v2 = make_uum(rng, 2, 4, 4, 2, 2, 0.42)
    prof = probability_profile(omega, v1, v2, 2, 2, samples=100, seed=1)
    np.testing.assert_allclose(prof, 0.42, atol=1e-10)


def test_profile_matches_per_ket_evaluation():
    # every ket drawn from one generator, in the order of one-by-one draws
    rng = np.random.default_rng(26)
    omega = rand_complex(rng, (4 * 3, 3 * 2))
    v1, v2 = SubspaceIsometry(np.eye(3)), random_subspace(rng, 4, 3)
    prof = probability_profile(omega, v1, v2, 2, 3, samples=20, seed=9)
    draws = np.random.default_rng(9)
    restricted = restrict_by_kron(omega, v1.columns, v2.columns, 2, 3)
    for value in prof:
        psi = random_ket(3, draws)
        block = restricted @ tensor_product(psi.reshape(3, 1), np.eye(2))
        assert value == pytest.approx(np.linalg.norm(block) ** 2, rel=1e-12)


def test_profile_exposes_filter_preference():
    prof_0 = probability_profile(np.diag([1.0, 0.5]).astype(complex), samples=200, seed=2)
    assert prof_0.max() <= 1.0 + 1e-12
    assert prof_0.max() - prof_0.min() > 0.5
    # endpoint values from direct evaluation
    filt = np.diag([1.0, 0.5])
    assert np.linalg.norm(filt @ [1, 0]) ** 2 == pytest.approx(1.0)
    assert np.linalg.norm(filt @ [0, 1]) ** 2 == pytest.approx(0.25)


def test_profile_with_fixed_environment_state():
    rng = np.random.default_rng(20)
    u = random_unitary(2, 21)
    theta = env_factors(rng, 2, 2, [0.6])[0]
    omega = tensor_product(u, theta)
    sigma = np.diag([0.75, 0.25]).astype(complex)
    prof = probability_profile(omega, env_in=2, env_out=2, samples=30, seed=3, env_state=sigma)
    expected = np.trace(theta @ sigma @ theta.conj().T).real
    np.testing.assert_allclose(prof, expected, atol=1e-10)


def test_degenerate_spectrum_reported_not_uum():
    # the swap operator has a flat operator-Schmidt spectrum; the verdict is
    # negative and the certificate keeps both leading values visible
    swap = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            swap[j * 2 + i, i * 2 + j] = 1.0
    cert = certify_uum(swap, env_in=2, env_out=2)
    assert not cert.is_uum
    assert cert.residual > 0.5
    assert cert.schmidt_values[0] == pytest.approx(cert.schmidt_values[1], abs=1e-12)


def test_input_preference_constant_invariant():
    # flat profile over Haar inputs for any certified map
    rng = np.random.default_rng(6)
    for d, env in ((2, 2), (3, 3), (2, 3)):
        omega, *_, v1, v2 = make_uum(rng, d, d + 1, d + 2, env, env, 0.3, with_noise=True)
        prof = probability_profile(omega, v1, v2, env, env, samples=100, seed=7)
        assert prof.max() - prof.min() <= 1e-9


def test_uuqc_single_unitary():
    cert = certify_uuqc(KrausChannel((random_unitary(2, 3),)))
    assert cert.is_uuqc
    assert cert.total_probability == pytest.approx(1.0, abs=1e-9)


def test_uuqc_two_elements_sum_probability():
    rng = np.random.default_rng(7)
    ch, u, thetas, v1, v2 = make_uuqc(rng, 2, 3, 3, 2, 2, [0.3, 0.5])
    cert = certify_uuqc(ch, v1, v2, 2, 2)
    assert cert.is_uuqc
    assert cert.total_probability == pytest.approx(0.8, abs=1e-9)
    assert cert.definition_residual <= 1e-9


def test_uuqc_probability_matches_direct_definition():
    # q from the per-element sum equals q read off the defining identity
    rng = np.random.default_rng(8)
    ch, u, thetas, v1, v2 = make_uuqc(rng, 2, 4, 3, 2, 2, [0.25, 0.15, 0.2])
    cert = certify_uuqc(ch, v1, v2, 2, 2)
    rho = np.diag([0.5, 0.5]).astype(complex)
    embedded = v1.columns @ rho @ v1.columns.conj().T
    out = apply(ch, tensor_product(embedded, np.eye(2)))
    reduced = partial_trace(out, (3, 2), keep=(0,))
    lhs = v2.columns.conj().T @ reduced @ v2.columns
    q_direct = np.trace(lhs).real
    assert cert.total_probability == pytest.approx(q_direct, abs=1e-9)
    assert cert.total_probability == pytest.approx(0.6, abs=1e-9)


def test_uuqc_rejects_mismatched_unitaries():
    u = np.eye(2, dtype=complex)
    w = np.diag([1.0, 1j])  # trace modulus sqrt(2) != 2
    ch = KrausChannel((np.sqrt(0.5) * u, np.sqrt(0.5) * w))
    cert = certify_uuqc(ch)
    assert not cert.is_uuqc
    assert cert.mismatched_pair == (0, 1)


def test_uuqc_allows_zero_probability_elements():
    rng = np.random.default_rng(9)
    ch, u, thetas, v1, v2 = make_uuqc(rng, 2, 4, 4, 1, 1, [0.5])
    # an element supported entirely outside the output subspace
    junk = v2.complement().columns @ rand_complex(rng, (2, 4)) * 0.1
    ch2 = KrausChannel((*ch.stack, junk))
    cert = certify_uuqc(ch2, v1, v2)
    assert cert.is_uuqc
    assert cert.total_probability == pytest.approx(0.5, abs=1e-9)


def test_uuqc_counts_elements_below_tol_that_share_the_unitary():
    # Five U (x) T_k elements at p = 4e-10, each below tol: left out of q,
    # their 2e-9 would put the definition residual at d * 2e-9 = 4e-9 > tol.
    rng = np.random.default_rng(31)
    ch, u, thetas, v1, v2 = make_uuqc(rng, 2, 3, 4, 2, 2, [0.5] + [4e-10] * 5)
    cert = certify_uuqc(ch, v1, v2, 2, 2)
    assert cert.is_uuqc
    assert cert.total_probability == pytest.approx(0.5 + 2e-9, abs=1e-15)
    assert cert.definition_residual <= 1e-14
    # The same weights on another unitary stay out of q, and the residual sees them.
    other = v2.columns @ random_unitary(2, rng) @ v1.columns.conj().T
    ch2 = KrausChannel((ch.stack[0], *(tensor_product(other, t) for t in thetas[1:])))
    cert = certify_uuqc(ch2, v1, v2, 2, 2)
    assert not cert.is_uuqc and cert.mismatched_pair is None
    assert cert.total_probability == pytest.approx(0.5, abs=1e-15)
    assert cert.definition_residual > 1e-9


def _with_non_factorable_and_zero_weight():
    """A certifying channel with env legs (2 in, 3 out), the same channel
    plus a non-factorable and a zero-weight element, and the subspaces."""
    rng = np.random.default_rng(21)
    ch, u, thetas, v1, v2 = make_uuqc(rng, 3, 5, 4, 2, 3, [0.2, 0.3, 0.1], with_noise=True)
    non_factorable = tensor_product(v2.columns @ rand_complex(rng, (3, 3)) @ v1.columns.conj().T,
                                    np.eye(3, 2)) + 0.1 * rand_complex(rng, (12, 10))
    junk = tensor_product(v2.complement().columns @ rand_complex(rng, (1, 5)), np.ones((3, 2)))
    return ch, KrausChannel((*ch.stack, non_factorable, junk)), v1, v2


def test_uuqc_per_element_equals_certify_uum():
    ch, mixed, v1, v2 = _with_non_factorable_and_zero_weight()
    for channel in (ch, mixed):
        cert = certify_uuqc(channel, v1, v2, 2, 3)
        per = cert.per_element
        assert len(per.probability) == len(channel.stack)
        for k, e in enumerate(channel.stack):
            want = certify_uum(e, v1, v2, 2, 3)
            assert per.is_uum[k] == want.is_uum
            assert per.probability[k] == pytest.approx(want.probability, abs=1e-12)
            assert per.residual[k] == pytest.approx(want.residual, abs=1e-12)
            np.testing.assert_allclose(per.unitary[k], want.unitary, atol=1e-12)
            np.testing.assert_allclose(per.env_factor[k], want.env_factor, atol=1e-12)
    assert certify_uuqc(ch, v1, v2, 2, 3).is_uuqc
    assert not certify_uuqc(mixed, v1, v2, 2, 3).is_uuqc


def test_uuqc_per_element_is_one_stacked_certificate():
    _, mixed, v1, v2 = _with_non_factorable_and_zero_weight()
    per = certify_uuqc(mixed, v1, v2, 2, 3).per_element
    assert isinstance(per, UumCertificate)
    shapes = {f.name: np.shape(getattr(per, f.name)) for f in dataclasses.fields(UumCertificate)}
    assert all(shape[:1] == (5,) for shape in shapes.values()), shapes
    assert shapes["unitary"] == (5, 3, 3) and shapes["env_factor"] == (5, 3, 2)
    assert per.is_uum.tolist() == [True, True, True, False, False]
    assert per.probability[4] <= 1e-12


def test_certify_uum_returns_python_scalars():
    _, mixed, v1, v2 = _with_non_factorable_and_zero_weight()
    for element in mixed.stack:
        cert = certify_uum(element, v1, v2, 2, 3)
        assert type(cert.is_uum) is bool
        for name in ("probability", "residual", "unitarity_deviation"):
            assert type(getattr(cert, name)) is float, name
        assert cert.unitary.shape == (3, 3) and cert.env_factor.shape == (3, 2)


def test_uuqc_names_unitaries_1e6_apart_as_mismatched():
    # Unitaries 1e-6 apart pass a test on d - |Tr(U_a^dag U_b)|, which is
    # quadratic in their distance; the phase-minimised distance names them.
    rng = np.random.default_rng(22)
    u = random_unitary(3, 23)
    h = rand_complex(rng, (3, 3))
    h = (h + h.conj().T) / 2
    evals, evecs = np.linalg.eigh(h)
    nudge = evecs @ np.diag(np.exp(1e-6j * evals / np.linalg.norm(h))) @ evecs.conj().T
    w = u @ nudge
    assert 1e-7 < np.linalg.norm(u - w) < 1e-5
    ch = KrausChannel((np.sqrt(0.5) * u, np.sqrt(0.5) * w))
    cert = certify_uuqc(ch)
    assert not cert.is_uuqc
    assert cert.mismatched_pair == (0, 1)
    assert cert.per_element.is_uum.all()
    assert cert.definition_residual > 1e-9


def _non_certifying_channels():
    rng = np.random.default_rng(25)
    full2 = SubspaceIsometry(np.eye(2))
    mismatched = KrausChannel((np.sqrt(0.5) * np.eye(2), np.sqrt(0.5) * np.diag([1.0, 1j])))
    yield mismatched, full2, full2, 1, 1
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    yield KrausChannel((0.6 * np.diag([1.0, 0.5]), 0.6 * flip)), full2, full2, 1, 1
    # env legs > 1 on proper subspaces: one element gains a second system
    # operator on an independent environment factor
    ch, *_, v1, v2 = make_uuqc(rng, 3, 5, 4, 2, 3, [0.2, 0.3, 0.1], with_noise=True)
    w = v2.columns @ rand_complex(rng, (3, 3)) @ v1.columns.conj().T
    broken = ch.stack[0] + 0.01 * tensor_product(w, rand_complex(rng, (3, 2)))
    yield KrausChannel((broken, *ch.stack[1:])), v1, v2, 2, 3
    # a certified element next to one built for other subspaces
    other, *_ = make_uuqc(rng, 2, 4, 3, 2, 2, [0.4])
    ch, _, _, v1, v2 = make_uuqc(rng, 2, 4, 3, 2, 2, [0.3], with_noise=True)
    yield KrausChannel((*ch.stack, *other.stack)), v1, v2, 2, 2
    # every element below tol: q = 0 against the identity
    faint = v2.columns @ rand_complex(rng, (2, 2)) @ v1.columns.conj().T * 1e-6
    junk = v2.complement().columns @ rand_complex(rng, (1, 4)) + faint
    yield KrausChannel((tensor_product(junk, np.ones((2, 2))),)), v1, v2, 2, 2


@pytest.mark.parametrize("case", range(5))
def test_definition_residual_is_the_choi_distance(case):
    ch, v1, v2, env_in, env_out = list(_non_certifying_channels())[case]
    cert = certify_uuqc(ch, v1, v2, env_in, env_out)
    assert not cert.is_uuqc and cert.definition_residual > 1e-12
    d = v1.sub_dim
    sigma = projected_choi_by_kron(ch.stack, v1.columns, v2.columns, env_in, env_out)
    target = tensor_product(np.eye(d), cert.unitary) @ maximally_entangled_ket(d)
    want = d * np.linalg.norm(sigma - cert.total_probability * np.outer(target, target.conj()))
    assert cert.definition_residual == pytest.approx(want, rel=1e-10)


def test_definition_residual_vanishes_on_large_certified_channel():
    # ||J||^2 - 2q<u,Ju> + q^2|u|^4 cancels to about 4e-7 here.
    rng = np.random.default_rng(30)
    ch, *_, v1, v2 = make_uuqc(rng, 16, 18, 20, 2, 2, list(rng.uniform(0.05, 0.2, 8)),
                               with_noise=True)
    cert = certify_uuqc(ch, v1, v2, 2, 2)
    assert cert.is_uuqc
    assert cert.definition_residual <= 1e-12


@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 3),
    extra=st.tuples(st.integers(0, 2), st.integers(0, 2)),
    env=st.tuples(st.integers(1, 2), st.integers(1, 2)),
    k=st.integers(1, 3),
    eps=st.sampled_from([0.0, 1e-7, 1e-3, 1.0]),
)
def test_definition_residual_bounds_every_state(seed, d, extra, env, k, eps):
    # The exact residual bounds the deviation on every density operator, so
    # it accepts no channel that a check on sampled states would reject.
    rng = np.random.default_rng(seed)
    (env_in, env_out), amb_in, amb_out = env, d + extra[0], d + extra[1]
    ch, *_, v1, v2 = make_uuqc(rng, d, amb_in, amb_out, env_in, env_out,
                               list(rng.uniform(0.05, 0.3, k)), with_noise=True)
    ch = KrausChannel(ch.stack + eps * rand_complex(rng, ch.stack.shape))
    cert = certify_uuqc(ch, v1, v2, env_in, env_out)
    g = rand_complex(rng, (d, d))
    rho = g @ g.conj().T / np.trace(g @ g.conj().T).real
    embedded = np.kron(v1.columns @ rho @ v1.columns.conj().T, np.eye(env_in))
    out = sum(e @ embedded @ e.conj().T for e in ch.stack)
    lhs = v2.columns.conj().T @ partial_trace_sum(out, (amb_out, env_out), 1) @ v2.columns
    rhs = cert.total_probability * cert.unitary @ rho @ cert.unitary.conj().T
    assert np.linalg.norm(lhs - rhs) <= cert.definition_residual + 1e-12


def test_restrict_operator_matches_kron_reference():
    rng = np.random.default_rng(24)
    v1 = SubspaceIsometry(np.linalg.qr(rand_complex(rng, (5, 3)))[0])
    v2 = SubspaceIsometry(np.linalg.qr(rand_complex(rng, (4, 3)))[0])
    omega = rand_complex(rng, (4 * 3, 5 * 2))
    np.testing.assert_allclose(
        restrict_operator(omega, v1, v2, 2, 3),
        restrict_by_kron(omega, v1.columns, v2.columns, 2, 3),
        atol=1e-12,
    )


# (d, ambient_in, ambient_out, env_in, env_out, K) of the channels the
# benchmark's certify workload certifies.
CERTIFIED_SHAPES = [
    (2, 2, 2, 1, 1, 1),
    (2, 3, 5, 1, 2, 2),
    (2, 4, 6, 2, 2, 3),
    (2, 6, 4, 3, 4, 5),
    (2, 16, 16, 4, 4, 8),
    (4, 4, 4, 1, 1, 2),
    (4, 6, 8, 2, 3, 4),
    (4, 8, 12, 4, 4, 6),
    (4, 16, 16, 4, 2, 8),
    (8, 8, 8, 1, 1, 3),
    (8, 10, 16, 2, 2, 6),
    (8, 16, 16, 2, 2, 8),
    (16, 16, 16, 1, 1, 1),
    (16, 16, 16, 1, 1, 4),
]


@pytest.mark.parametrize("shape", CERTIFIED_SHAPES)
def test_restrict_operator_matches_kron_reference_on_stacks(shape):
    d, amb_in, amb_out, env_in, env_out, k = shape
    rng = np.random.default_rng(sum(shape))
    v1, v2 = random_subspace(rng, amb_in, d), random_subspace(rng, amb_out, d)
    # a leading batch axis ahead of the element axis
    omega = rand_complex(rng, (2, k, amb_out * env_out, amb_in * env_in))
    got = restrict_operator(omega, v1, v2, env_in, env_out)
    assert got.shape == (2, k, d * env_out, d * env_in)
    for b in range(2):
        for e in range(k):
            want = restrict_by_kron(omega[b, e], v1.columns, v2.columns, env_in, env_out)
            np.testing.assert_allclose(got[b, e], want, atol=1e-12)
    np.testing.assert_allclose(restrict_operator(omega[1, 0], v1, v2, env_in, env_out), got[1, 0], atol=1e-12)


@pytest.mark.parametrize("shape", [(2, 3, 4, 2, 3, 2), (3, 5, 4, 3, 2, 3), (2, 2, 2, 4, 4, 4), (4, 6, 8, 2, 3, 4)])
def test_refine_matches_kron_oracle_in_random_bases(shape):
    d, amb_in, amb_out, env_in, env_out, k = shape
    rng = np.random.default_rng(sum(shape) + 40)
    ch, u, thetas, v1, v2 = make_uuqc(rng, d, amb_in, amb_out, env_in, env_out,
                                      list(rng.uniform(0.05, 0.2, k)), with_noise=True)
    b_in = np.linalg.qr(rand_complex(rng, (env_in, env_in)))[0]
    b_out = np.linalg.qr(rand_complex(rng, (env_out, env_out)))[0]
    refined = refine(ch, v1, v2, env_in, env_out, env_in_basis=b_in, env_out_basis=b_out)
    unitary = certify_uuqc(ch, v1, v2, env_in, env_out).unitary
    # the certified unitary differs from the constructed one by a global
    # phase, which each certified environment factor carries conjugated
    assert abs(abs(np.trace(unitary.conj().T @ u)) - d) <= 1e-9
    want = refine_by_kron(unitary, thetas, v1.columns, v2.columns, b_in, b_out)
    assert len(refined.stack) == len(want) == env_in * env_out
    np.testing.assert_allclose(refined.stack, np.array(want), atol=1e-12)


@pytest.mark.parametrize("which", ["in", "out"])
def test_refine_rejects_non_unitary_environment_basis(which):
    # A skewed basis rescales the weights: this q = 0.38 channel would come
    # out "refined" and certified at q = 1.04 (input basis) or 1.00 (output basis).
    rng = np.random.default_rng(41)
    ch, _, _, v1, v2 = make_uuqc(rng, 2, 3, 3, 2, 2, [0.2, 0.18])
    skewed = np.array([[1.0, 0.9], [0.0, 1.0]])
    with pytest.raises(ValueError, match="not orthonormal"):
        refine(ch, v1, v2, 2, 2, **{f"env_{which}_basis": skewed})
    nearly = np.linalg.qr(rand_complex(rng, (2, 2)))[0] * (1 + 1e-12)
    assert certify_uuqc(refine(ch, v1, v2, 2, 2, **{f"env_{which}_basis": nearly}), v1, v2, 2, 2).is_uuqc


@pytest.mark.parametrize("env_state", [
    [[0.75, 0.2], [0.0, 0.25]],  # not Hermitian: eigh would read one triangle
    [[1.5, 0.0], [0.0, -0.5]],  # unit trace, not positive semidefinite
    [[0.5, 0.0], [0.0, 0.25]],  # positive, trace 0.75
    [[np.nan, 0.0], [0.0, 1.0]],  # not finite
])
def test_profile_rejects_invalid_environment_state(env_state):
    u = random_unitary(2, 42)
    omega = tensor_product(u, np.eye(2) / 2)
    with pytest.raises(ValueError, match="density matrix"):
        probability_profile(omega, env_in=2, env_out=2, samples=5, env_state=np.array(env_state))


@pytest.mark.parametrize("zeros", [0, 2])
def test_uuqc_names_trace_orthogonal_unitaries_as_mismatched(zeros):
    # Tr(X^dag Z) = 0: the phase of a zero overlap is taken as 1, never NaN,
    # so the pair stays a distance 2 apart instead of slipping past the check.
    # Leading zero-weight elements shift the indices the pair is named by.
    ch = KrausChannel((np.zeros((2, 2)),) * zeros + (np.sqrt(0.5) * PAULI_X, np.sqrt(0.5) * PAULI_Z))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cert = certify_uuqc(ch)
    assert cert.per_element.is_uum[zeros:].all()
    assert not cert.is_uuqc
    assert cert.mismatched_pair == (zeros, zeros + 1)


def test_refine_already_rank_one():
    u = random_unitary(2, 11)
    env = np.zeros((2, 2), dtype=complex)
    env[1, 0] = 1.0  # |1><0| on the environment legs
    ch = KrausChannel((tensor_product(u, env),))
    refined = refine(ch, env_in=2, env_out=2)
    assert len(refined.stack) == 1
    original = ch.stack[0]
    overlap = abs(np.vdot(refined.stack[0], original))
    assert overlap == pytest.approx(np.linalg.norm(original) ** 2, abs=1e-9)


def test_refine_expands_full_rank_environment():
    rng = np.random.default_rng(12)
    u = random_unitary(2, 13)
    theta = rand_complex(rng, (2, 2))
    theta *= np.sqrt(0.9) / np.linalg.norm(theta)
    ch = KrausChannel((tensor_product(u, theta),))
    refined = refine(ch, env_in=2, env_out=2)
    assert len(refined.stack) == 4
    # weights are the entry moduli of the environment factor
    weights = sorted(np.linalg.norm(e) / np.sqrt(2) for e in refined.stack)
    expected = sorted(np.abs(theta).reshape(-1))
    np.testing.assert_allclose(weights, expected, atol=1e-9)
    cert = certify_uuqc(refined, env_in=2, env_out=2)
    assert cert.is_uuqc
    assert cert.total_probability == pytest.approx(0.9, abs=1e-10)


def test_refine_combines_elements_entrywise():
    rng = np.random.default_rng(14)
    u = random_unitary(2, 15)
    t1, t2 = env_factors(rng, 2, 2, [0.4, 0.35])
    ch = KrausChannel((tensor_product(u, t1), tensor_product(u, t2)))
    refined = refine(ch, env_in=2, env_out=2)
    # entry-wise expansion: weight(i_out, i_in) = sqrt(|t1|^2 + |t2|^2)
    expected = np.sqrt(np.abs(t1) ** 2 + np.abs(t2) ** 2)
    got = np.zeros((2, 2))
    for e in refined.stack:
        pair = factor_as_tensor(e, 2, 2, 2, 2)
        env = pair.env_factor
        j, i = np.unravel_index(np.argmax(np.abs(env)), env.shape)
        # the unit-norm system factor is U / sqrt(2), so the environment
        # side carries an extra sqrt(2)
        got[j, i] = np.linalg.norm(env) / np.sqrt(2)
    np.testing.assert_allclose(got, expected, atol=1e-9)
    cert = certify_uuqc(refined, env_in=2, env_out=2)
    assert cert.total_probability == pytest.approx(0.75, abs=1e-10)


def test_refine_rank_one_environment_invariant():
    rng = np.random.default_rng(16)
    ch, u, thetas, v1, v2 = make_uuqc(rng, 2, 3, 3, 2, 3, [0.3, 0.25, 0.2])
    before = certify_uuqc(ch, v1, v2, 2, 3)
    refined = refine(ch, v1, v2, 2, 3)
    after = certify_uuqc(refined, v1, v2, 2, 3)
    assert after.is_uuqc
    assert after.total_probability == pytest.approx(before.total_probability, abs=1e-9)
    for e in refined.stack:
        pair = factor_as_tensor(e, 3, 3, 3, 2)
        assert pair.schmidt_values[1] <= 1e-9


def test_refine_in_chosen_environment_bases():
    rng = np.random.default_rng(19)
    ch, u, thetas, v1, v2 = make_uuqc(rng, 2, 3, 4, 2, 3, [0.3, 0.2], with_noise=True)
    b_in = np.linalg.qr(rand_complex(rng, (2, 2)))[0]
    b_out = np.linalg.qr(rand_complex(rng, (3, 3)))[0]
    refined = refine(ch, v1, v2, 2, 3, env_in_basis=b_in, env_out_basis=b_out)
    assert len(refined.stack) == 6
    embedded = v2.columns @ u @ v1.columns.conj().T
    for e, (j, i) in zip(refined.stack, [(j, i) for j in range(3) for i in range(2)]):
        w2 = sum(abs(b_out[:, j].conj() @ t @ b_in[:, i]) ** 2 for t in thetas)
        part = np.outer(b_out[:, j], b_in[:, i].conj())
        target = np.sqrt(w2) * tensor_product(embedded, part)
        assert abs(abs(np.vdot(target, e)) - np.vdot(target, target).real) <= 1e-9
        np.testing.assert_allclose(np.linalg.norm(e), np.linalg.norm(target), atol=1e-9)
    cert = certify_uuqc(refined, v1, v2, 2, 3)
    assert cert.is_uuqc
    assert cert.total_probability == pytest.approx(0.5, abs=1e-9)


def test_refine_refuses_non_uuqc():
    ch = KrausChannel((np.diag([1.0, 0.5]).astype(complex),))
    with pytest.raises(ValueError):
        refine(ch)


@pytest.mark.parametrize("subspaces", ["given", "omitted"])
def test_chain_certifies_each_channel_once(subspaces):
    rng = np.random.default_rng(31)
    if subspaces == "given":
        ch, _, _, v1, v2 = make_uuqc(rng, 2, 3, 4, 2, 3, [0.3, 0.2], with_noise=True)
    else:
        ch, v1, v2 = make_uuqc(rng, 2, 2, 2, 2, 3, [0.3, 0.2])[0], None, None
    with mock.patch.object(unambiguous, "_certify_uuqc", wraps=unambiguous._certify_uuqc) as spy:
        cert = certify_uuqc(ch, v1, v2, 2, 3)
        refined = refine(ch, v1, v2, 2, 3)
        recert = certify_uuqc(refined, v1, v2, 2, 3)
        weight, _ = uuqc_to_ues(ch, v1, v2, 2, 3)
    assert [call.args[0] for call in spy.call_args_list] == [ch, refined]
    assert cert.is_uuqc and recert.is_uuqc and weight == cert.total_probability
    assert certify_uuqc(ch, v1, v2, 2, 3) is cert


def test_certificate_memo_misses_on_any_other_key():
    rng = np.random.default_rng(32)
    ch, _, _, v1, v2 = make_uuqc(rng, 2, 3, 4, 2, 3, [0.3, 0.2], with_noise=True)
    full = KrausChannel((tensor_product(random_unitary(2, 33), np.eye(2) / 2),))
    # (call that fills the memo, call that must certify anew)
    pairs = [
        ((ch, v1, v2, 2, 3), (KrausChannel(ch.stack), v1, v2, 2, 3)),
        ((ch, v1, v2, 2, 3), (ch, SubspaceIsometry(v1.columns), v2, 2, 3)),
        ((ch, v1, v2, 2, 3), (ch, v1, SubspaceIsometry(v2.columns), 2, 3)),
        ((ch, v1, v2, 2, 3), (ch, v1, v2, 2, 3, 1e-7)),
        ((full, None, None, 2, 2), (full, SubspaceIsometry(np.eye(2)), None, 2, 2)),
        ((full, None, None, 2, 2), (full, None, SubspaceIsometry(np.eye(2)), 2, 2)),
        ((full, None, None, 2, 2), (full, None, None, 1, 1)),
    ]
    for first, second in pairs:
        certify_uuqc(*first)
        with mock.patch.object(unambiguous, "_certify_uuqc", wraps=unambiguous._certify_uuqc) as spy:
            certify_uuqc(*second)
        assert spy.call_count == 1, second
    # A leg that does not fit the channel is still refused after a certificate for the right one.
    certify_uuqc(full, None, None, 2, 2)
    for legs in ((2, 1), (1, 2)):
        with pytest.raises(ValueError, match="subspace dimensions differ"):
            certify_uuqc(full, None, None, *legs)
    # Nor does a collected subspace stand for an omitted one.
    certify_uuqc(full, SubspaceIsometry(np.eye(2)), None, 2, 2)
    gc.collect()
    with mock.patch.object(unambiguous, "_certify_uuqc", wraps=unambiguous._certify_uuqc) as spy:
        certify_uuqc(full, None, None, 2, 2)
    assert spy.call_count == 1


def test_uuqc_certificate_arrays_are_read_only():
    rng = np.random.default_rng(34)
    ch, _, _, v1, v2 = make_uuqc(rng, 2, 3, 4, 2, 3, [0.3, 0.2], with_noise=True)
    # the second channel has no contributing element, so its unitary is the identity
    for cert in (certify_uuqc(ch, v1, v2, 2, 3), certify_uuqc(KrausChannel((np.zeros((2, 2)),)))):
        for array in (cert.unitary, *vars(cert.per_element).values()):
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0


def test_certificate_memo_keeps_no_object_alive():
    rng = np.random.default_rng(35)
    ch, _, _, v1, v2 = make_uuqc(rng, 2, 3, 4, 2, 3, [0.3, 0.2])
    certify_uuqc(ch, v1, v2, 2, 3)
    refs = [weakref.ref(obj) for obj in (ch, v1, v2)]
    del ch, v1, v2
    gc.collect()
    assert [ref() for ref in refs] == [None, None, None]


@given(
    seed=st.integers(0, 2**16),
    steps=st.lists(st.tuples(st.sampled_from(["certify", "refine", "to_ues"]), st.integers(0, 2)),
                   min_size=1, max_size=10),
)
def test_memo_interleavings_match_fresh_certificates(seed, steps):
    rng = np.random.default_rng(seed)
    cases = []
    for d, dim1, dim2, env_in, env_out, probs in [(2, 3, 4, 2, 3, [0.3, 0.2]), (2, 2, 2, 1, 1, [0.6]),
                                                  (3, 4, 3, 2, 1, [0.2, 0.1, 0.3])]:
        ch, _, _, v1, v2 = make_uuqc(rng, d, dim1, dim2, env_in, env_out, probs, with_noise=True)
        cases.append((ch, v1, v2, env_in, env_out))
    # the third channel does not certify: one element implements another unitary
    ch, v1, v2, env_in, env_out = cases[2]
    stack = ch.stack.copy()
    stack[0] = tensor_product(v2.columns @ random_unitary(3, rng) @ v1.columns.conj().T, [[0.4, 0.0]])
    cases[2] = (KrausChannel(stack), v1, v2, env_in, env_out)

    def same(cert, want):
        assert cert.is_uuqc == want.is_uuqc and cert.total_probability == want.total_probability
        np.testing.assert_array_equal(cert.unitary, want.unitary)

    for call, i in steps:
        args = cases[i]
        fresh = unambiguous._certify_uuqc(*args, DEFAULT_TOL)
        if call == "certify":
            same(certify_uuqc(*args), fresh)
        elif not fresh.is_uuqc:
            with pytest.raises(ValueError):
                (refine if call == "refine" else uuqc_to_ues)(*args)
        elif call == "refine":
            refined = refine(*args)
            same(certify_uuqc(refined, *args[1:]), unambiguous._certify_uuqc(refined, *args[1:], DEFAULT_TOL))
        else:
            weight, ket = uuqc_to_ues(*args)
            assert weight == fresh.total_probability
            np.testing.assert_array_equal(ket, _ues_ket(fresh.unitary))


def test_extend_by_identity_trivial_and_preserving():
    rng = np.random.default_rng(17)
    ch, u, thetas, v1, v2 = make_uuqc(rng, 2, 3, 3, 1, 1, [0.5, 0.3])
    assert extend_by_identity(ch, 1) is ch
    for ancilla in (2, 3, 4):
        ext = extend_by_identity(ch, ancilla)
        cert = certify_uuqc(ext, v1.extend_left(ancilla), v2.extend_left(ancilla))
        assert cert.is_uuqc
        assert cert.total_probability == pytest.approx(0.8, abs=1e-9)
        # the extended unitary is the ancilla identity tensored with the original
        target = tensor_product(np.eye(ancilla), u)
        assert abs(np.trace(cert.unitary.conj().T @ target)) == pytest.approx(
            2 * ancilla, abs=1e-8
        )


def test_extend_applied_to_entangled_input():
    # forward construction: a d=2 maximally entangled ancilla-system input
    # comes out as (I (x) U) Phi with weight q on the success branch
    rng = np.random.default_rng(18)
    ch, u, thetas, v1, v2 = make_uuqc(rng, 2, 2, 2, 1, 1, [0.45, 0.25])
    ext = extend_by_identity(ch, 2)
    phi = np.eye(2, dtype=complex).reshape(-1) / np.sqrt(2)
    embedded = tensor_product(np.eye(2), v1.columns) @ phi
    out = apply(ext, np.outer(embedded, embedded.conj()))
    restrict = tensor_product(np.eye(2), v2.columns)
    block = restrict.conj().T @ out @ restrict
    assert np.trace(block).real == pytest.approx(0.7, abs=1e-9)
    target = tensor_product(np.eye(2), u) @ phi
    np.testing.assert_allclose(
        block, 0.7 * np.outer(target, target.conj()), atol=1e-9
    )


def test_dimension_errors():
    with pytest.raises(ValueError):
        certify_uum(np.eye(4), SubspaceIsometry(np.eye(3)), SubspaceIsometry(np.eye(4)))
    with pytest.raises(ValueError):
        certify_uum(np.eye(4), SubspaceIsometry(np.eye(4)), SubspaceIsometry(np.eye(3)))
    with pytest.raises(ValueError):
        restrict_operator(np.eye(4), SubspaceIsometry(np.eye(2)), SubspaceIsometry(np.eye(2)), 3, 2)
    with pytest.raises(ValueError, match="subspace dimensions differ: 2 vs 3"):
        restrict_operator(np.eye(4), SubspaceIsometry(np.eye(4)[:, :2]), SubspaceIsometry(np.eye(4)[:, :3]))


def test_omitted_subspaces_reject_empty_system_spaces():
    # Environment legs larger than the operator leave a system space of dimension 0.
    ch = KrausChannel((np.eye(2),))
    for call in (lambda: certify_uum(np.eye(2), None, None, 4, 1), lambda: certify_uuqc(ch, None, None, 1, 4),
                 lambda: refine(ch, None, None, 4, 4), lambda: uuqc_to_ues(ch, None, None, 4, 1),
                 lambda: probability_profile(np.eye(2), None, None, 1, 4),
                 lambda: restrict_operator(np.eye(2), None, None, 4, 1)):
        with pytest.raises(ValueError, match=r"invalid subspace shape \(0, 0\)"):
            call()
    with pytest.raises(ValueError, match=r"invalid subspace shape \(0, 0\)"):
        SubspaceIsometry(np.eye(0))


def test_environment_legs_must_divide_the_operator_dimensions():
    ch = KrausChannel((np.eye(6, 4),))
    sub = SubspaceIsometry(np.eye(2))
    for call, message in ((lambda: certify_uum(np.eye(6), env_in=4, env_out=4), "env_in=4 .* dimension 6"),
                          (lambda: certify_uum(np.eye(6), sub, sub, 3, 4), "env_out=4 .* dimension 6"),
                          (lambda: certify_uuqc(ch, None, None, 2, 4), "env_out=4 .* dimension 6"),
                          (lambda: refine(ch, None, None, 3, 3), "env_in=3 .* dimension 4"),
                          (lambda: restrict_operator(np.eye(6), None, None, 1, 4), "env_out=4 .* dimension 6")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()


@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 4),
    env=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    k=st.integers(1, 3),
    omitted=st.sampled_from(["both", "v1", "v2"]),
    zeros=st.booleans(),
)
# A phased permutation with exact zeros, whose signs the BLAS identity
# products set: omitted and identity subspaces must agree on every one.
@example(seed=0, d=3, env=(2, 2), k=2, omitted="both", zeros=True)
def test_omitted_subspaces_certify_as_the_full_spaces(seed, d, env, k, omitted, zeros):
    # Bit for bit, also on exact zeros of either sign, whose sign the SVDs read.
    rng = np.random.default_rng(seed)
    (env_in, env_out), full = env, SubspaceIsometry(np.eye(d))
    given_sub = random_subspace(rng, d + 1, d)
    v1 = None if omitted != "v2" else given_sub
    v2 = None if omitted != "v1" else given_sub
    amb = [d if v is None else d + 1 for v in (v1, v2)]
    stack = rand_complex(rng, (k, amb[1] * env_out, amb[0] * env_in))
    if zeros:
        stack.real *= rng.uniform(size=stack.shape) < 0.5
        stack.imag *= rng.uniform(size=stack.shape) < 0.5
        stack *= rng.choice([-1.0, 1.0], size=stack.shape)
    ch = KrausChannel(stack)
    # A certified channel for refine: a Haar unitary, or with zeros a signed
    # permutation times phases, and environment factors with signed zeros.
    thetas = rand_complex(rng, (k, env_out, env_in))
    if zeros:
        thetas.real *= rng.uniform(size=thetas.shape) < 0.5
        thetas *= rng.choice([-1.0, 1.0], size=thetas.shape)
        embedded = np.eye(d)[rng.permutation(d)] * rng.choice([1, -1, 1j, -1j], size=d)
    else:
        embedded = random_unitary(d, rng)
    thetas[:, 0, 0] += 1.0
    if v1 is not None:
        embedded = embedded @ v1.columns.conj().T
    if v2 is not None:
        embedded = v2.columns @ embedded
    certified = KrausChannel([tensor_product(embedded, t / np.linalg.norm(t) / k) for t in thetas])
    with mock.patch.object(SubspaceIsometry, "__post_init__", side_effect=AssertionError("built a subspace")):
        got = certify_uuqc(ch, v1, v2, env_in, env_out)
        got_uum = certify_uum(stack[0], v1, v2, env_in, env_out)
        got_refined = refine(certified, v1, v2, env_in, env_out)
        got_restricted = restrict_operator(stack, v1, v2, env_in, env_out)
    w1, w2 = (full if v is None else v for v in (v1, v2))
    assert got_restricted.tobytes() == restrict_operator(stack, w1, w2, env_in, env_out).tobytes()
    want = unambiguous._certify_uuqc(ch, w1, w2, env_in, env_out, DEFAULT_TOL)
    want_uum = certify_uum(stack[0], w1, w2, env_in, env_out)
    for a, b in ((got, want), (got.per_element, want.per_element), (got_uum, want_uum)):
        for field, value in vars(b).items():
            if field != "per_element":
                assert np.asarray(getattr(a, field)).tobytes() == np.asarray(value).tobytes(), field
    # Bit for bit, the signed zeros of the unitary and the environment parts included.
    assert got_refined.stack.tobytes() == refine(certified, w1, w2, env_in, env_out).stack.tobytes()


def _unit(m, *against):
    """``m`` with its components along the unit-norm ``against`` removed,
    scaled to unit Frobenius norm."""
    for a in against:
        m = m - np.vdot(a, m) * a
    return m / np.linalg.norm(m)


def _restricted_at_gate(rng, d, env_in, env_out, gate, value):
    """A restricted operator whose ``gate`` reads ``value`` and whose other
    gates pass by a wide margin, or a generic one (``gate`` "none")."""
    a0 = random_unitary(d, rng) / np.sqrt(d)
    b0 = _unit(rand_complex(rng, (env_out, env_in)))
    scale = np.sqrt(d * rng.uniform(0.2, 1.0))
    if gate == "none":
        return rand_complex(rng, (d * env_out, d * env_in)) * rng.choice([1e-6, 1e-2, 1.0])
    if gate == "residual":
        # Schmidt values (scale, value): both factors orthogonal to the first pair
        a1 = _unit(rand_complex(rng, (d, d)), a0)
        b1 = _unit(rand_complex(rng, (env_out, env_in)), b0)
        return scale * np.kron(a0, b0) + value * np.kron(a1, b1)
    if gate == "unitarity":
        # singular values squared 1/d + delta with sum(delta) = 0, ||delta|| = value
        delta = np.zeros(d)
        delta[:2] = value / np.sqrt(2) * np.array([1.0, -1.0])
        s = random_unitary(d, rng) @ np.diag(np.sqrt(1.0 / d + delta)) @ random_unitary(d, rng)
        return scale * np.kron(s, b0)
    return np.sqrt(d * value) * np.kron(a0, b0)  # probability = value


@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(2, 3),
    env=st.tuples(st.integers(1, 3), st.integers(2, 3)),
    extra=st.tuples(st.integers(0, 2), st.integers(0, 2)),
    gate=st.sampled_from(["none", "residual", "unitarity", "probability"]),
    factor=st.sampled_from([0.5, 2.0]),
    tol=st.sampled_from([1e-9, 1e-6]),
)
def test_per_element_fields_match_index_loop_oracle(seed, d, env, extra, gate, factor, tol):
    # Each gate is driven to tol/2 and 2 tol, so the analytic scale 1/d and
    # the fused norms keep every threshold where the measured scale put it.
    rng = np.random.default_rng(seed)
    (env_in, env_out), amb_in, amb_out = env, d + extra[0], d + extra[1]
    v1, v2 = random_subspace(rng, amb_in, d), random_subspace(rng, amb_out, d)
    lift = np.kron(v2.columns, np.eye(env_out))
    elements = []
    for k in range(2):
        core = _restricted_at_gate(rng, d, env_in, env_out, gate if k == 0 else "none", factor * tol)
        out_side = np.kron(v2.columns @ v2.columns.conj().T, np.eye(env_out))
        noise = rand_complex(rng, (amb_out * env_out, amb_in * env_in))
        # parts outside the subspaces, invisible to the certification
        noise = noise - out_side @ noise @ np.kron(v1.columns @ v1.columns.conj().T, np.eye(env_in))
        elements.append(lift @ core @ np.kron(v1.columns, np.eye(env_in)).conj().T + noise)
    per = certify_uuqc(KrausChannel(tuple(elements)), v1, v2, env_in, env_out, tol).per_element

    for k, element in enumerate(elements):
        restricted = restrict_by_kron(element, v1.columns, v2.columns, env_in, env_out)
        want = uum_by_index_loops(restricted, d, env_in, env_out)
        for field in ("probability", "residual", "unitarity_deviation"):
            assert getattr(per, field)[k] == pytest.approx(want[field], rel=1e-9, abs=1e-12), field
        np.testing.assert_allclose(per.schmidt_values[k], want["schmidt_values"], rtol=1e-9, atol=1e-12)
        # U (x) T is the rank-one part, so it misses the operator by the residual
        miss = np.linalg.norm(np.kron(per.unitary[k], per.env_factor[k]) - restricted)
        assert miss == pytest.approx(want["residual"], rel=1e-6, abs=1e-12)
        values = want["schmidt_values"]
        if values[0] - values[1] > 1e-3 * values[0]:
            overlap = np.vdot(want["unitary"], per.unitary[k])
            phase = overlap / abs(overlap)
            np.testing.assert_allclose(per.unitary[k], phase * want["unitary"], atol=1e-8)
        flat = per.unitary[k].reshape(-1)
        peak = flat[np.argmax(np.abs(flat))]
        assert abs(peak.imag) <= 1e-12 and peak.real > 0
        gates = (want["residual"] <= tol, want["unitarity_deviation"] <= tol, want["probability"] > tol)
        assert per.is_uum[k] == all(gates)
    if gate != "none":
        # the driven gate alone decides element 0
        assert per.is_uum[0] == ((factor < 1) != (gate == "probability"))

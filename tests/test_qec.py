from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import uuqc.qec
from uuqc import unambiguous
from uuqc.channels import KrausChannel, apply, choi_state, compose
from uuqc.entanglement import check_mixed_nonzero, is_rank_d_ues, schmidt, search_mixed_nonzero
from uuqc.linalg import DEFAULT_TOL, VALIDATION_TOL, random_unitary
from uuqc.qec import (
    CodeSpec,
    diagonalize_errors,
    kl_check,
    meets_certainty_condition,
    noise_choi_state,
    standard_recovery,
    unambiguous_correction_probability,
    verify_correction_uuqc,
)

from builders import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    five_qubit_code,
    flagged_erasure,
    kron_chain,
    leung_code,
    pauli_noise,
    rand_complex,
    repetition_code,
    single_qubit_on,
)
from oracles import (
    correction_by_choi_eigh,
    filter_conversion_max,
    kl_by_pair_loop,
    kl_by_projector,
    orthogonal_branch_probability,
    standard_recovery_two_pass,
)


def bit_flip_errors():
    return KrausChannel(
        (
            0.5 * np.eye(8, dtype=complex),
            0.5 * single_qubit_on(PAULI_X, 0),
            0.5 * single_qubit_on(PAULI_X, 1),
            0.5 * single_qubit_on(PAULI_X, 2),
        )
    )


def phase_errors():
    return KrausChannel(
        (np.eye(8, dtype=complex) / np.sqrt(2), single_qubit_on(PAULI_Z, 0) / np.sqrt(2))
    )


def trivial_code(d=2):
    return CodeSpec(np.eye(d, dtype=complex))


def test_code_spec_validates_once_and_keeps_a_read_only_encoder():
    with pytest.raises(ValueError, match="orthonormal"):
        CodeSpec(np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="shape"):
        CodeSpec(np.eye(2, 3))
    code = repetition_code()
    assert not code.encoder.flags.writeable


def test_kl_full_space_identity():
    report = kl_check(trivial_code(), KrausChannel((np.eye(2, dtype=complex),)))
    assert report.correctable
    np.testing.assert_allclose(report.h, [[1.0]], atol=1e-12)


def test_kl_repetition_bit_flips():
    report = kl_check(repetition_code(), bit_flip_errors())
    assert report.correctable
    np.testing.assert_allclose(report.h, np.eye(4) / 4, atol=1e-10)
    assert report.residual <= 1e-10


def test_kl_repetition_phase_noise_not_correctable():
    report = kl_check(repetition_code(), phase_errors())
    assert not report.correctable
    # the offending block: the code projector sees Z_1 as a logical operator
    code = repetition_code()
    block = code.encoder.conj().T @ single_qubit_on(PAULI_Z, 0) @ code.encoder
    np.testing.assert_allclose(block, np.diag([1.0, -1.0]), atol=1e-12)


def test_kl_h_hermitian_psd_unit_trace():
    rng = np.random.default_rng(0)
    weights = np.array([0.4, 0.3, 0.2, 0.1])
    base = [
        np.sqrt(weights[0]) * np.eye(8, dtype=complex),
        np.sqrt(weights[1]) * single_qubit_on(PAULI_X, 0),
        np.sqrt(weights[2]) * single_qubit_on(PAULI_X, 1),
        np.sqrt(weights[3]) * single_qubit_on(PAULI_X, 2),
    ]
    for trial in range(5):
        u = random_unitary(4, rng)
        mixed = KrausChannel(tuple(sum(u[m, i] * base[i] for i in range(4)) for m in range(4)))
        report = kl_check(repetition_code(), mixed)
        assert report.correctable
        np.testing.assert_allclose(report.h, report.h.conj().T, atol=1e-10)
        assert np.min(np.linalg.eigvalsh(report.h)) >= -1e-9
        assert np.trace(report.h).real == pytest.approx(1.0, abs=1e-10)


def test_diagonalize_keeps_channel_and_spectrum():
    rng = np.random.default_rng(1)
    weights = np.array([0.4, 0.3, 0.2, 0.1])
    base = [
        np.sqrt(weights[0]) * np.eye(8, dtype=complex),
        np.sqrt(weights[1]) * single_qubit_on(PAULI_X, 0),
        np.sqrt(weights[2]) * single_qubit_on(PAULI_X, 1),
        np.sqrt(weights[3]) * single_qubit_on(PAULI_X, 2),
    ]
    u = random_unitary(4, 7)
    mixed = KrausChannel(tuple(sum(u[m, i] * base[i] for i in range(4)) for m in range(4)))
    report = kl_check(repetition_code(), mixed)
    rotated = diagonalize_errors(report, mixed)
    after = kl_check(repetition_code(), rotated)
    off = after.h - np.diag(np.diag(after.h))
    assert np.linalg.norm(off) <= 1e-9
    np.testing.assert_allclose(
        np.sort(np.diag(after.h).real), np.sort(weights), atol=1e-9
    )
    # unitary remixing leaves the quantum operation unchanged
    g = rand_complex(rng, (8, 8))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    np.testing.assert_allclose(apply(rotated, rho), apply(mixed, rho), atol=1e-9)


def test_diagonalize_already_diagonal():
    report = kl_check(repetition_code(), bit_flip_errors())
    rotated = diagonalize_errors(report, bit_flip_errors())
    after = kl_check(repetition_code(), rotated)
    np.testing.assert_allclose(after.h, np.eye(4) / 4, atol=1e-9)


def test_diagonalize_plus_minus_example():
    # (I +/- X_1)/2 has an exactly degenerate overlap matrix; any
    # diagonalization must keep it diagonal with spectrum (1/2, 1/2)
    e0 = (np.eye(8) + single_qubit_on(PAULI_X, 0)) / 2
    e1 = (np.eye(8) - single_qubit_on(PAULI_X, 0)) / 2
    ch = KrausChannel((e0, e1))
    report = kl_check(repetition_code(), ch)
    assert report.correctable
    rotated = diagonalize_errors(report, ch)
    after = kl_check(repetition_code(), rotated)
    off = after.h - np.diag(np.diag(after.h))
    assert np.linalg.norm(off) <= 1e-9
    np.testing.assert_allclose(np.sort(np.diag(after.h).real), [0.5, 0.5], atol=1e-9)


def test_diagonalize_refuses_uncorrectable():
    report = kl_check(repetition_code(), phase_errors())
    with pytest.raises(ValueError):
        diagonalize_errors(report, phase_errors())


def test_identity_noise_identity_recovery():
    code = trivial_code()
    ident = KrausChannel((np.eye(2, dtype=complex),))
    rep = verify_correction_uuqc(code, ident, ident)
    assert rep.certificate.is_uuqc
    assert rep.identity_probability == pytest.approx(1.0, abs=1e-9)
    assert rep.fully_corrected


def test_identity_probability_rejects_unitary_1e6_from_identity():
    # d - |Tr U| is quadratic in the distance and counted this as identity.
    rng = np.random.default_rng(31)
    h = rand_complex(rng, (3, 3))
    h = h + h.conj().T
    h -= np.trace(h) / 3 * np.eye(3)
    evals, evecs = np.linalg.eigh(h / np.linalg.norm(h))
    nudge = (evecs * np.exp(1e-6j * evals)) @ evecs.conj().T
    ident = KrausChannel((np.eye(3, dtype=complex),))
    rep = verify_correction_uuqc(CodeSpec(np.eye(3)), KrausChannel((nudge,)), ident)
    assert rep.certificate.is_uuqc
    assert rep.identity_probability == 0.0
    assert not rep.fully_corrected


@pytest.mark.parametrize("loss, tol, corrected", [(1e-4, 1e-3, True), (1e-10, 1e-12, False)])
def test_fully_corrected_reads_the_certification_tol(loss, tol, corrected):
    # identity_probability is 1 - loss, within tol of one exactly when loss <= tol
    ident = KrausChannel((np.eye(2, dtype=complex),))
    rep = verify_correction_uuqc(trivial_code(), KrausChannel((np.sqrt(1 - loss) * np.eye(2),)), ident, tol)
    assert rep.certificate.is_uuqc
    assert rep.identity_probability == pytest.approx(1 - loss, abs=1e-15)
    assert rep.fully_corrected == corrected


def test_constructed_recovery_corrects_bit_flips():
    code = repetition_code()
    errors = bit_flip_errors()
    recovery = standard_recovery(code, errors)
    rep = verify_correction_uuqc(code, errors, recovery)
    assert rep.certificate.is_uuqc
    assert rep.identity_probability == pytest.approx(1.0, abs=1e-9)


def test_majority_vote_recovery_explicit():
    code = repetition_code()
    proj = code.encoder @ code.encoder.conj().T
    majority = KrausChannel(
        (
            proj,
            proj @ single_qubit_on(PAULI_X, 0),
            proj @ single_qubit_on(PAULI_X, 1),
            proj @ single_qubit_on(PAULI_X, 2),
        )
    )
    rep = verify_correction_uuqc(code, bit_flip_errors(), majority)
    assert rep.identity_probability == pytest.approx(1.0, abs=1e-9)
    # phase noise slips through the same recovery as an uncorrected logical
    # operation: only half the weight provably acts as the identity
    rep2 = verify_correction_uuqc(code, phase_errors(), majority)
    assert not rep2.certificate.is_uuqc
    assert rep2.identity_probability == pytest.approx(0.5, abs=1e-9)
    assert not rep2.fully_corrected


def test_recovery_probability_equals_surviving_weight():
    # trace-decreasing noise: recovery recovers exactly the implemented
    # syndrome weight
    code = repetition_code()
    noise = KrausChannel(
        (
            np.sqrt(0.6) * np.eye(8, dtype=complex),
            np.sqrt(0.2) * single_qubit_on(PAULI_X, 0),
        )
    )
    report = kl_check(code, noise)
    assert report.correctable
    recovery = standard_recovery(code, noise)
    rep = verify_correction_uuqc(code, noise, recovery)
    assert rep.certificate.is_uuqc
    assert rep.identity_probability == pytest.approx(
        np.trace(report.h).real, abs=1e-9
    )
    assert rep.identity_probability == pytest.approx(0.8, abs=1e-9)


def test_correction_probability_unitary_noise():
    prob, method = unambiguous_correction_probability(
        trivial_code(), KrausChannel((random_unitary(2, 5),))
    )
    assert method == "pure-exact"
    assert prob == pytest.approx(1.0, abs=1e-9)


def test_correction_probability_filter_noise():
    gamma = 0.36
    noise = KrausChannel((np.diag([1.0, np.sqrt(1 - gamma)]).astype(complex),))
    prob, method = unambiguous_correction_probability(trivial_code(), noise)
    assert method == "pure-exact"
    assert prob == pytest.approx(1 - gamma, abs=1e-9)
    # cross-check against the brute-force filter oracle applied to the
    # normalized Choi spectrum, weighted by the Choi trace
    sigma = noise_choi_state(trivial_code(), noise)
    weight = np.trace(sigma).real
    evals, evecs = np.linalg.eigh(sigma)
    lam = schmidt(evecs[:, -1], 2, 2).coefficients
    assert prob == pytest.approx(weight * filter_conversion_max(lam, 2), abs=1e-4)


def test_correction_probability_pure_noise_honours_tol():
    # Schmidt coefficients 1 and 1e-7: rank 1 < d at tol = 1e-6, so no
    # filter reaches the canonical ket; at the default tol it is rank 2
    noise = KrausChannel((np.diag([1.0, 1e-7]).astype(complex),))
    assert unambiguous_correction_probability(trivial_code(), noise, 1e-6) == (0.0, "pure-exact")
    prob, method = unambiguous_correction_probability(trivial_code(), noise)
    assert method == "pure-exact" and prob == pytest.approx(1e-14, rel=1e-6)


def test_pure_state_below_tol_per_eigenvalue_keeps_its_whole_weight():
    # Weight 1.1e-9 is above tol, but the top eigenvalue 0.9e-9 is not: the
    # pure state is one branch carrying the whole weight, not an empty set.
    shift = np.zeros((2, 2), dtype=complex)
    shift[0, 1] = np.sqrt(0.4e-9)
    noise = KrausChannel((np.sqrt(0.9e-9) * np.eye(2), shift))
    prob, method = unambiguous_correction_probability(trivial_code(), noise)
    assert method == "pure-exact"
    assert prob == pytest.approx(1.1e-9, rel=1e-12)
    assert meets_certainty_condition(trivial_code(), noise)


def test_correction_probability_depolarizing():
    dep = KrausChannel((np.eye(2) / 2, PAULI_X / 2, PAULI_Y / 2, PAULI_Z / 2))
    prob, method = unambiguous_correction_probability(trivial_code(), dep)
    assert method == "filter-lower-bound"
    assert prob <= 1e-3


def test_correction_probability_block_mixture_lower_bound():
    # noise that either leaves the code sector alone or moves it into an
    # orthogonal flagged sector; a projector filter recovers the good branch
    enc = np.zeros((3, 2), dtype=complex)
    enc[0, 0] = 1.0
    enc[1, 1] = 1.0
    code = CodeSpec(enc)
    k0 = np.sqrt(0.7) * np.diag([1.0, 1.0, 0.0]).astype(complex)
    k1 = np.sqrt(0.3) * np.array([[0, 0, 0], [0, 0, 0], [1, 0, 0]], dtype=complex)
    k2 = np.sqrt(0.3) * np.array([[0, 0, 0], [0, 0, 0], [0, 1, 0]], dtype=complex)
    noise = KrausChannel((k0, k1, k2))
    prob, method = unambiguous_correction_probability(code, noise)
    assert method == "filter-lower-bound"
    assert prob == pytest.approx(0.7, abs=1e-9)


def test_certainty_condition():
    assert meets_certainty_condition(trivial_code(), KrausChannel((random_unitary(2, 8),)))
    gamma = 0.36
    filt = KrausChannel((np.diag([1.0, np.sqrt(1 - gamma)]).astype(complex),))
    assert not meets_certainty_condition(trivial_code(), filt)
    dep = KrausChannel((np.eye(2) / 2, PAULI_X / 2, PAULI_Y / 2, PAULI_Z / 2))
    assert not meets_certainty_condition(trivial_code(), dep)



def test_all_zero_noise_has_no_branch_and_fails_the_certainty_condition():
    # the only Choi weight is at most tol, so no branch survives
    zero = KrausChannel((np.zeros((2, 2), dtype=complex),))
    assert unambiguous_correction_probability(trivial_code(), zero) == (0.0, "pure-exact")
    assert meets_certainty_condition(trivial_code(), zero) is False


def test_unit_probability_correction_has_uniform_choi():
    # whenever the corrected composite reaches probability one, its Choi
    # state on a logical reference is a rank-d uniformly entangled ket
    code = repetition_code()
    errors = bit_flip_errors()
    recovery = standard_recovery(code, errors)
    rep = verify_correction_uuqc(code, errors, recovery)
    assert rep.identity_probability == pytest.approx(1.0, abs=1e-9)
    corrected = compose(compose(KrausChannel((code.encoder,)), errors), recovery)
    sigma = choi_state(corrected)
    evals, evecs = np.linalg.eigh(sigma)
    assert np.trace(sigma).real - evals[-1] <= 1e-8
    assert is_rank_d_ues(evecs[:, -1], 2, 8, 2, tol=1e-8)


def test_kl_check_rejects_non_finite_blocks():
    # a NaN deviation must not lose to a running maximum and read correctable
    report = kl_check(CodeSpec(np.eye(2)[:, :1]), KrausChannel([np.full((2, 2), np.nan)]))
    assert not report.correctable
    assert not np.isfinite(report.residual)


def test_kl_dimension_mismatch():
    with pytest.raises(ValueError):
        kl_check(repetition_code(), KrausChannel((np.eye(4, dtype=complex),)))


def test_flagged_erasure_into_a_larger_space_agrees_across_verdicts():
    # 16 -> 81 dimensions: every verdict reads the blocks E_k C, whatever
    # the output space, and the recovery maps back into the physical space.
    code, noise = leung_code(), flagged_erasure(4, 0.2)
    assert (noise.in_dim, noise.out_dim) == (16, 81)
    report = kl_check(code, noise)
    assert report.correctable and report.residual <= 1e-12
    assert np.trace(report.h) == pytest.approx(1.0, abs=1e-12)
    assert unambiguous_correction_probability(code, noise)[0] == pytest.approx(1.0, abs=1e-12)
    recovery = standard_recovery(code, noise)
    assert (recovery.in_dim, recovery.out_dim) == (81, 16)
    assert verify_correction_uuqc(code, noise, recovery).identity_probability == pytest.approx(1.0, abs=1e-12)
    assert noise_choi_state(code, noise).shape == (2 * 81, 2 * 81)


def test_trace_increasing_composite_is_refused():
    # Five-qubit Pauli noise times 100 read identity_probability 10000.000000000015
    # after its standard recovery; twice that recovery increases the trace of physical noise.
    code, noise = five_qubit_code(), pauli_noise(5, 0.1)
    scaled = KrausChannel(100 * noise.stack)
    recovery = standard_recovery(code, noise)
    refused = r"^recovery after noise must not increase the trace on the code space: lambda_max\(sum_mk .* = "
    for errors, rec, top in ((scaled, standard_recovery(code, scaled), "10000"),
                             (noise, KrausChannel(2 * recovery.stack), "4"),
                             (noise, KrausChannel((1 + 1e-8) * recovery.stack), "1.00000002")):
        with pytest.raises(ValueError, match=refused + top + " > 1$"):
            verify_correction_uuqc(code, errors, rec)
    # Within VALIDATION_TOL of trace-preserving, the composite is certified as before.
    rep = verify_correction_uuqc(code, noise, KrausChannel((1 + 1e-9) * recovery.stack))
    assert rep.certificate.is_uuqc and rep.identity_probability == pytest.approx(1.0, abs=1e-8)


def test_correction_certifies_its_code_space_stack_without_subspaces():
    code, noise = repetition_code(), bit_flip_errors()
    recovery = standard_recovery(code, noise)
    with mock.patch.object(unambiguous, "_subspace_columns", side_effect=AssertionError("restricted again")):
        rep = verify_correction_uuqc(code, noise, recovery)
    assert rep.fully_corrected and rep.certificate.is_uuqc


def test_recovery_must_map_back_into_the_physical_space():
    code = repetition_code()
    with pytest.raises(ValueError, match="recovery must map back into the physical space"):
        verify_correction_uuqc(code, bit_flip_errors(), KrausChannel((np.eye(4, 8),)))


@pytest.mark.parametrize("noise_out, recovery_in", [(8, 4), (16, 8)])
def test_recovery_must_read_the_noise_output(noise_out, recovery_in):
    noise = KrausChannel((np.eye(noise_out, 8),))
    recovery = KrausChannel((np.eye(8, recovery_in),))
    with pytest.raises(ValueError, match=f"^recovery input dimension {recovery_in} differs from "
                                         f"the noise output dimension {noise_out}$"):
        verify_correction_uuqc(repetition_code(), noise, recovery)


@pytest.mark.parametrize("verdict", [
    kl_check,
    standard_recovery,
    lambda code, noise: verify_correction_uuqc(code, noise, KrausChannel((np.eye(8),))),
    unambiguous_correction_probability,
    noise_choi_state,
], ids=["kl_check", "standard_recovery", "verify_correction_uuqc", "ec_prob", "noise_choi_state"])
def test_noise_on_the_wrong_space_raises_one_error(verdict):
    with pytest.raises(ValueError, match="^noise must act on the physical space$"):
        verdict(repetition_code(), KrausChannel((np.eye(6, 4),)))


@pytest.mark.parametrize("verdict", [
    kl_check,
    standard_recovery,
    lambda code, noise: verify_correction_uuqc(code, noise, KrausChannel((np.eye(8),))),
    unambiguous_correction_probability,
    meets_certainty_condition,
], ids=["kl_check", "standard_recovery", "verify_correction_uuqc", "ec_prob", "certainty"])
def test_each_verdict_reads_the_noise_once(verdict):
    code, noise = repetition_code(), bit_flip_errors()
    with mock.patch.object(uuqc.qec, "_code_blocks", wraps=uuqc.qec._code_blocks) as read:
        verdict(code, noise)
    read.assert_called_once_with(code, noise)


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 6),
    d=st.integers(1, 2),
    k=st.integers(1, 4),
    grow=st.sampled_from([-1, 0, 2]),
    correctable=st.booleans(),
)
def test_kl_check_matches_projector_oracle(seed, n, d, k, grow, correctable):
    rng = np.random.default_rng(seed)
    code = CodeSpec(random_unitary(n, rng)[:, :d])
    out = n + grow
    elems = rand_complex(rng, (k, out, n)) / np.sqrt(2 * n * k)
    if correctable:
        # E_k C = c_k W for one isometry W: correctable, h = c_j^* c_i
        image = random_unitary(out, rng)[:, :d] @ code.encoder.conj().T
        elems = elems @ (np.eye(n) - code.encoder @ code.encoder.conj().T) + rand_complex(rng, (k, 1, 1)) / k * image
    h, residual = kl_by_projector(code.encoder, elems)
    report = kl_check(code, KrausChannel(elems))
    np.testing.assert_allclose(report.h, h, rtol=0, atol=1e-12)
    assert report.residual == pytest.approx(residual, abs=1e-12)
    assert not correctable or report.correctable


def _kl_bytes(h, residual):
    return h.tobytes(), np.float64(residual).tobytes()


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 64),
    d=st.integers(1, 8),
    k=st.integers(1, 12),
    real=st.booleans(),
)
def test_kl_step_matches_pair_loop_byte_for_byte(seed, n, d, k, real):
    assume(d <= n)
    rng = np.random.default_rng(seed)
    enc = random_unitary(n, rng)[:, :d]
    elems = rand_complex(rng, (k, n, n)) / np.sqrt(2 * n * k)
    if real:
        enc, elems = np.linalg.qr(enc.real)[0], elems.real
    code, noise = CodeSpec(enc), KrausChannel(elems)
    report = uuqc.qec._kl_step(code, noise, DEFAULT_TOL)[1]
    assert _kl_bytes(report.h, report.residual) == _kl_bytes(*kl_by_pair_loop(noise.stack @ code.encoder))


def test_kl_step_matches_pair_loop_on_the_five_qubit_code():
    code, noise = five_qubit_code(), pauli_noise(5, 0.1)
    report = uuqc.qec._kl_step(code, noise, DEFAULT_TOL)[1]
    assert report.correctable
    assert _kl_bytes(report.h, report.residual) == _kl_bytes(*kl_by_pair_loop(noise.stack @ code.encoder))


def _flip(wire, n_qubits):
    return kron_chain(*[PAULI_X if k == wire else np.eye(2) for k in range(n_qubits)])


def _syndromes(rng, code, m, n_qubits):
    """``m`` operators whose code-space actions land on mutually orthogonal
    ``d``-dimensional spaces, the first on the code itself: the identity and
    single bit flips on a repetition code, or rotated blocks of a random
    basis plus a random map on the code complement."""
    if n_qubits:
        return [np.eye(2**n_qubits)] + [_flip(k, n_qubits) for k in range(m - 1)]
    enc = code.encoder
    n, d = enc.shape
    basis = random_unitary(n, rng)
    basis[:, :d] = enc
    basis, _ = np.linalg.qr(basis)
    outside = np.eye(n) - enc @ enc.conj().T
    return [basis[:, j * d:(j + 1) * d] @ random_unitary(d, rng) @ enc.conj().T
            + 0.2 * rand_complex(rng, (n, n)) @ outside for j in range(m)]


correctable_draws = given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from([(3, 8, 2), (5, 32, 2), (0, 8, 2), (0, 12, 3), (0, 16, 2)]),
    m=st.integers(2, 4),
    extra=st.integers(0, 2),
    degenerate=st.booleans(),
    weight=st.sampled_from([1.0, 0.55]),
)


def _correctable_noise(seed, shape, m, extra, degenerate, weight):
    """Syndromes mixed by a random m-column isometry, as the qec benchmark
    builds them: Knill-Laflamme correctable, with a mixed Choi state."""
    n_qubits, n, d = shape
    rng = np.random.default_rng(seed)
    if n_qubits:
        enc = np.zeros((n, d), dtype=complex)
        enc[0, 0] = enc[-1, 1] = 1.0
        code = CodeSpec(enc)
    else:
        code = CodeSpec(random_unitary(n, rng)[:, :d])
    lambdas = np.ones(m) if degenerate else rng.uniform(0.2, 1.0, m)
    lambdas *= weight / lambdas.sum()
    ops = _syndromes(rng, code, m, n_qubits)
    u = random_unitary(m + extra, rng)[:, :m]
    noise = KrausChannel(tuple(
        sum(u[r, j] * np.sqrt(lam) * f for j, (lam, f) in enumerate(zip(lambdas, ops)))
        for r in range(m + extra)
    ))
    return code, noise


@correctable_draws
def test_bound_exact_on_correctable_noise(seed, shape, m, extra, degenerate, weight):
    code, noise = _correctable_noise(seed, shape, m, extra, degenerate, weight)
    report = kl_check(code, noise)
    assert report.correctable
    recovered = verify_correction_uuqc(code, noise, standard_recovery(code, noise))
    prob, method = unambiguous_correction_probability(code, noise)
    assert method == "filter-lower-bound"
    assert prob == pytest.approx(recovered.identity_probability, abs=1e-9)
    assert prob == pytest.approx(np.trace(report.h).real, abs=1e-9)


@correctable_draws
def test_recovery_matches_two_pass_oracle(seed, shape, m, extra, degenerate, weight):
    # same elements, same order, as remixing, re-running the overlap check
    # and keeping each syndrome with weight above tol
    code, noise = _correctable_noise(seed, shape, m, extra, degenerate, weight)
    want = standard_recovery_two_pass(code.encoder, noise.stack, kl_check(code, noise).h)
    got = standard_recovery(code, noise)
    assert len(got.stack) == len(want)
    np.testing.assert_allclose(got.stack, want, atol=1e-12)


@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from([(3, 8, 2), (0, 8, 2), (0, 12, 3)]),
    m=st.integers(2, 4),
    extra=st.integers(0, 2),
    correctable=st.booleans(),
)
def test_check_then_recover_matches_fresh_objects(seed, shape, m, extra, correctable):
    code, noise = _correctable_noise(seed, shape, m, extra, False, 1.0)
    if not correctable:
        stray = rand_complex(np.random.default_rng(seed), (1,) + noise.stack.shape[1:]) / 8
        noise = KrausChannel(np.concatenate([noise.stack, stray]))

    def fresh():
        return CodeSpec(code.encoder), KrausChannel(noise.stack)

    report, want = kl_check(code, noise), kl_check(*fresh())
    assert (report.correctable, report.residual) == (want.correctable, want.residual)
    assert report.h.tobytes() == want.h.tobytes()
    assert report.correctable == correctable
    if correctable:
        assert standard_recovery(code, noise).stack.tobytes() == standard_recovery(*fresh()).stack.tobytes()
    else:
        for args in ((code, noise), fresh()):
            with pytest.raises(ValueError, match="^error set is not correctable on this code$"):
                standard_recovery(*args)


def _counting_kl_steps():
    return mock.patch.object(uuqc.qec, "_kl_step", wraps=uuqc.qec._kl_step)


def test_check_then_recover_runs_two_kl_steps():
    # No step is remembered: each public call runs one step on one read of the noise.
    code, noise = repetition_code(), bit_flip_errors()
    with _counting_kl_steps() as step, \
            mock.patch.object(uuqc.qec, "_code_blocks", wraps=uuqc.qec._code_blocks) as read:
        report = kl_check(code, noise)
        standard_recovery(code, noise)
    assert step.call_count == 2 and read.call_count == 2
    assert report.correctable and report.h.flags.writeable
    # An uncorrectable set still raises the same one line.
    phase = phase_errors()
    assert not kl_check(code, phase).correctable
    with _counting_kl_steps() as step:
        with pytest.raises(ValueError, match="^error set is not correctable on this code$"):
            standard_recovery(code, phase)
    assert step.call_count == 1


def depolarizing_on_qubit():
    return trivial_code(), KrausChannel((np.eye(2) / 2, PAULI_X / 2, PAULI_Y / 2, PAULI_Z / 2))


def flagged_block_mixture():
    enc = np.eye(3, 2, dtype=complex)
    k0 = np.sqrt(0.7) * np.diag([1.0, 1.0, 0.0]).astype(complex)
    k1 = np.sqrt(0.3) * np.array([[0, 0, 0], [0, 0, 0], [1, 0, 0]], dtype=complex)
    k2 = np.sqrt(0.3) * np.array([[0, 0, 0], [0, 0, 0], [0, 1, 0]], dtype=complex)
    return CodeSpec(enc), KrausChannel((k0, k1, k2))


def symmetric_bit_flips():
    # triple-degenerate syndrome weights
    p = (0.7, 0.1, 0.1, 0.1)
    ops = [np.eye(8, dtype=complex)] + [single_qubit_on(PAULI_X, k) for k in range(3)]
    return repetition_code(), KrausChannel(tuple(np.sqrt(a) * o for a, o in zip(p, ops)))


def trace_decreasing_bit_flip():
    return repetition_code(), KrausChannel(
        (np.sqrt(0.6) * np.eye(8, dtype=complex), np.sqrt(0.2) * single_qubit_on(PAULI_X, 0))
    )


# ``searched`` is what the former seeded search over one-sided filters (a
# 21-point grid on three eigendirections plus 200 random filters) reported;
# the branch bound must never fall below it.
@pytest.mark.parametrize(
    "case, searched, expected",
    [
        (depolarizing_on_qubit, 0.0, 0.0),
        (flagged_block_mixture, 0.7, 0.7),
        (symmetric_bit_flips, 0.7, 1.0),
        (trace_decreasing_bit_flip, 0.6, 0.8),
    ],
)
def test_bound_at_least_filter_search(case, searched, expected):
    code, noise = case()
    prob, method = unambiguous_correction_probability(code, noise)
    assert method == "filter-lower-bound"
    assert prob >= searched - 1e-12
    assert prob == pytest.approx(expected, abs=1e-9)


def non_isometric_orthogonal_branches():
    # two branches with orthogonal ranges on a 4-dim physical space, neither
    # maximally entangled: the sum of the two pure-state optima
    code = CodeSpec(np.eye(4, 2, dtype=complex))
    e0 = np.diag([0.8, 0.5, 0.0, 0.0]).astype(complex)
    e1 = np.zeros((4, 4), dtype=complex)
    e1[2:, :2] = random_unitary(2, 3) @ np.diag([0.6, 0.4]) @ random_unitary(2, 4)
    return code, KrausChannel((e0, e1))


def weakly_overlapping_branches():
    # branch 0's weaker Schmidt direction lands in branch 1's range, so
    # neither branch can be separated
    code = CodeSpec(np.eye(3, 2, dtype=complex))
    e0 = np.zeros((3, 3), dtype=complex)
    e0[0, 0], e0[2, 1] = 0.9, 0.3
    e1 = np.zeros((3, 3), dtype=complex)
    e1[2, 0] = 0.4
    return code, KrausChannel((e0, e1))


def repetition_phase_flip():
    # not correctable: both branches live on the code space itself
    return repetition_code(), KrausChannel(
        (np.sqrt(0.7) * np.eye(8, dtype=complex), np.sqrt(0.3) * single_qubit_on(PAULI_Z, 0))
    )


@pytest.mark.parametrize(
    "case", [non_isometric_orthogonal_branches, weakly_overlapping_branches, repetition_phase_flip]
)
def test_bound_matches_orthogonal_branch_oracle(case):
    code, noise = case()
    prob, method = unambiguous_correction_probability(code, noise)
    blocks = [e @ code.encoder for e in noise.stack]
    assert method == "filter-lower-bound"
    assert prob == pytest.approx(orthogonal_branch_probability(blocks, code.logical_dim), abs=1e-9)


def _noise_with_branches(seed, dims, branches, extra, separated, trace_preserving):
    """A random code and noise whose code-space actions ``E_r C`` are random
    mixtures, by an isometry, of ``branches`` blocks ``B_j``: with ranges in
    mutually orthogonal ``d``-column blocks of a random basis, or generic.
    The composite is trace-preserving (``sum B_j^dag B_j = I``) or has
    weight 0.6; the elements also act at random on the code complement."""
    n, d = dims
    rng = np.random.default_rng(seed)
    enc = random_unitary(n, rng)[:, :d]
    if separated:
        basis = random_unitary(n, rng)
        blocks = [basis[:, j * d:(j + 1) * d] @ rand_complex(rng, (d, d)) for j in range(min(branches, n // d))]
    else:
        blocks = [rand_complex(rng, (n, d)) for _ in range(branches)]
    if trace_preserving:
        evals, evecs = np.linalg.eigh(sum(b.conj().T @ b for b in blocks))
        inv_root = (evecs / np.sqrt(evals)) @ evecs.conj().T
        blocks = [b @ inv_root for b in blocks]
    else:
        scale = np.sqrt(0.6 * d / sum(np.linalg.norm(b) ** 2 for b in blocks))
        blocks = [scale * b for b in blocks]
    u = random_unitary(len(blocks) + extra, rng)[:, :len(blocks)]
    outside = np.eye(n) - enc @ enc.conj().T
    noise = KrausChannel(tuple(
        sum(u[r, j] * b for j, b in enumerate(blocks)) @ enc.conj().T + 0.3 * rand_complex(rng, (n, n)) @ outside
        for r in range(len(u))
    ))
    return CodeSpec(enc), noise


_TRACE_INCREASING = "^noise must not increase the trace on the code space: "


def _refused_as_trace_increasing(code, noise):
    """Whether ``sum_k C^dag E_k^dag E_k C``, summed element by element, has
    an eigenvalue above ``1 + VALIDATION_TOL``; if so, both ``ec-prob``
    answers must refuse the noise by name."""
    gram = sum(code.encoder.conj().T @ e.conj().T @ e @ code.encoder for e in noise.stack)
    if np.linalg.eigvalsh(gram)[-1] <= 1.0 + VALIDATION_TOL:
        return False
    for answer in (unambiguous_correction_probability, meets_certainty_condition):
        with pytest.raises(ValueError, match=_TRACE_INCREASING):
            answer(code, noise)
    return True


@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.sampled_from([(3, 2), (4, 2), (6, 2), (6, 3), (8, 2)]),
    branches=st.integers(1, 3),
    extra=st.integers(0, 2),
    separated=st.booleans(),
    trace_preserving=st.booleans(),
)
def test_choi_free_verdicts_match_choi_eigh_oracle(seed, dims, branches, extra, separated, trace_preserving):
    code, noise = _noise_with_branches(seed, dims, branches, extra, separated, trace_preserving)
    if _refused_as_trace_increasing(code, noise):
        return
    # Inside a degenerate eigenspace the branch basis is an arbitrary choice;
    # the Knill-Laflamme exactness property covers degenerate spectra.
    evals = np.linalg.eigvalsh(noise_choi_state(code, noise))[::-1]
    nonzero = evals[evals > 1e-9]
    assume(nonzero[-1] > 1e-6 and np.all(-np.diff(nonzero) > 1e-4))
    want_prob, want_method, want_certain = correction_by_choi_eigh(code, noise)
    prob, method = unambiguous_correction_probability(code, noise)
    assert method == want_method
    assert prob == pytest.approx(want_prob, abs=1e-9)
    assert meets_certainty_condition(code, noise) == want_certain


@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.sampled_from([(3, 2), (4, 2), (6, 2), (6, 3), (8, 2)]),
    branches=st.integers(1, 3),
    extra=st.integers(0, 2),
    separated=st.booleans(),
    trace_preserving=st.booleans(),
)
def test_ec_prob_agrees_with_teleport_search_on_the_choi_state(
    seed, dims, branches, extra, separated, trace_preserving
):
    # The search sweeps the d-dimensional reference factor, where it is
    # exact: on pure noise it gives the conversion optimum, and it is nonzero
    # whenever the branch bound is.
    code, noise = _noise_with_branches(seed, dims, branches, extra, separated, trace_preserving)
    if _refused_as_trace_increasing(code, noise):
        return
    sigma = noise_choi_state(code, noise)
    weight = np.trace(sigma).real
    d = code.logical_dim
    found = search_mixed_nonzero(sigma / weight, d, noise.out_dim, d)
    prob, method = unambiguous_correction_probability(code, noise)
    if branches == 1:
        assert method == "pure-exact"
        assert prob == pytest.approx(weight * found.probability, abs=1e-9)
    elif prob > 1e-9:
        assert found.probability > 0.0


def test_teleport_search_on_the_baseline_choi_state():
    # The filter [[1, 0, 0], [0, 1, 1]] / sqrt(2) on the noisy half leaves the
    # canonical ket with weight 0.5; ec-prob's branch bound still reads 0.
    code = CodeSpec(np.eye(3, 2, dtype=complex))
    flip = np.zeros((3, 3), dtype=complex)
    flip[0, 0] = flip[2, 1] = 1.0
    noise = KrausChannel((np.sqrt(0.6) * np.diag([1.0, 1.0, 0.0]).astype(complex), np.sqrt(0.4) * flip))
    sigma = noise_choi_state(code, noise)
    assert np.trace(sigma).real == pytest.approx(1.0, abs=1e-12)
    found = search_mixed_nonzero(sigma, 2, 3, 2)
    assert found.probability == pytest.approx(0.5, abs=1e-9)
    assert check_mixed_nonzero(sigma, 2, 3, 2, *found.witness_subspaces).probability == found.probability


def test_correction_verdicts_build_no_choi_matrix(monkeypatch):
    cases = [flagged_block_mixture(), repetition_phase_flip(), trace_decreasing_bit_flip(),
             (trivial_code(), KrausChannel((random_unitary(2, 8),))),
             (trivial_code(), KrausChannel((np.diag([1.0, 0.8]).astype(complex),)))]
    want = [correction_by_choi_eigh(code, noise) for code, noise in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("the Choi matrix was built or diagonalised")

    monkeypatch.setattr(uuqc.qec, "choi_state", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    for (code, noise), (want_prob, want_method, want_certain) in zip(cases, want):
        prob, method = unambiguous_correction_probability(code, noise)
        assert method == want_method
        assert prob == pytest.approx(want_prob, abs=1e-12)
        assert meets_certainty_condition(code, noise) == want_certain
    assert [c for _, _, c in want] == [False, False, False, True, False]
    with pytest.raises(AssertionError, match="Choi matrix"):
        noise_choi_state(*cases[0])


def _counting_ec_steps():
    return mock.patch.object(uuqc.qec, "_ec_step", wraps=uuqc.qec._ec_step)


def _ec_answers(code, noise, certainty_first):
    """``(probability, method, certain)`` from the two public calls on the
    same objects, in either order; the probability's float as bytes."""
    if certainty_first:
        certain = meets_certainty_condition(code, noise)
        prob, method = unambiguous_correction_probability(code, noise)
    else:
        prob, method = unambiguous_correction_probability(code, noise)
        certain = meets_certainty_condition(code, noise)
    assert type(prob) is float and type(certain) is bool
    return np.float64(prob).tobytes(), method, certain


@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.sampled_from([(3, 2), (4, 2), (6, 2), (6, 3), (8, 2)]),
    branches=st.integers(1, 3),
    extra=st.integers(0, 2),
    separated=st.booleans(),
    trace_preserving=st.booleans(),
    certainty_first=st.booleans(),
)
def test_ec_answers_match_fresh_objects_in_either_order(
    seed, dims, branches, extra, separated, trace_preserving, certainty_first
):
    code, noise = _noise_with_branches(seed, dims, branches, extra, separated, trace_preserving)
    if _refused_as_trace_increasing(code, noise):
        return
    fresh = [(CodeSpec(code.encoder), KrausChannel(noise.stack)) for _ in range(2)]
    (prob, method), certain = unambiguous_correction_probability(*fresh[0]), meets_certainty_condition(*fresh[1])
    assert _ec_answers(code, noise, certainty_first) == (np.float64(prob).tobytes(), method, certain)


@pytest.mark.parametrize("certainty_first", [False, True], ids=["probability-first", "certainty-first"])
def test_probability_then_certainty_runs_one_ec_step(certainty_first):
    # No step is remembered: each public call runs one step on one read of the noise.
    code, noise = repetition_code(), bit_flip_errors()
    with _counting_ec_steps() as step, \
            mock.patch.object(uuqc.qec, "_code_blocks", wraps=uuqc.qec._code_blocks) as read:
        answers = _ec_answers(code, noise, certainty_first)
        assert step.call_count == 2 and read.call_count == 2
        assert _ec_answers(code, noise, not certainty_first) == answers
    assert step.call_count == 4 and read.call_count == 4


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("certainty_first", [False, True], ids=["probability-first", "certainty-first"])
def test_ec_prob_with_fewer_outputs_than_logical_dims(k, certainty_first):
    # out = 2 < d = 3: each branch ket is 3 x 2, so the batched Schmidt SVD
    # has min(d, out) = 2 values per branch and no branch reaches rank d.
    rng = np.random.default_rng(k)
    code = CodeSpec(random_unitary(4, rng)[:, :3])
    noise = KrausChannel(rand_complex(rng, (k, 2, 4)) / 4)
    if _refused_as_trace_increasing(code, noise):
        # The same draw scaled onto the boundary, lambda_max = 1.
        blocks = noise.stack @ code.encoder
        noise = KrausChannel(noise.stack / np.linalg.norm(blocks.reshape(-1, 3), 2))
    assert _ec_answers(code, noise, certainty_first) == (np.float64(0.0).tobytes(), "filter-lower-bound", False)


def test_trace_increasing_noise_is_refused_by_ec_prob_alone():
    # Five-qubit Pauli noise times 100 read 9999.999999999996 as a
    # "probability"; the Knill-Laflamme condition does not depend on scale.
    code = five_qubit_code()
    noise = KrausChannel(100 * pauli_noise(5, 0.1).stack)
    for answer in (unambiguous_correction_probability, meets_certainty_condition):
        with pytest.raises(ValueError, match=_TRACE_INCREASING + r"lambda_max.* = 10000 > 1$"):
            answer(code, noise)
    report = kl_check(code, noise)
    assert report.correctable
    np.testing.assert_allclose(np.trace(report.h), 1e4, rtol=1e-12)
    # Trace-decreasing noise and trace-preserving noise up to rounding pass.
    assert unambiguous_correction_probability(code, pauli_noise(5, 0.1)) == (pytest.approx(1.0, abs=1e-12),
                                                                              "filter-lower-bound")
    assert unambiguous_correction_probability(code, KrausChannel(0.5 * pauli_noise(5, 0.1).stack))[0] == \
        pytest.approx(0.25, abs=1e-12)

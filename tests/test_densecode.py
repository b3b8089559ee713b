import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from uuqc import densecode
from uuqc.densecode import (
    DenseCodingProtocol,
    SharedState,
    capacity,
    optimal_protocol,
    optimal_receiver,
    simulate,
    verify_protocol_bound,
    weyl_operators,
)
from uuqc.entanglement import conversion_probability, schmidt
from uuqc.linalg import dagger, random_unitary
from uuqc.unambiguous import certify_uum

from builders import rand_complex
from oracles import binom_sigma, simulate_per_message


def test_weyl_qubit_family():
    ops = weyl_operators(2)
    assert len(ops) == 4
    gram = np.array([[np.trace(dagger(a) @ b) for b in ops] for a in ops])
    np.testing.assert_allclose(gram, 2 * np.eye(4), atol=1e-12)
    np.testing.assert_allclose(ops[0], np.eye(2), atol=1e-12)
    np.testing.assert_allclose(ops[1], np.diag([1, -1]), atol=1e-12)
    np.testing.assert_allclose(ops[2], [[0, 1], [1, 0]], atol=1e-12)


def test_weyl_qutrit_trace_orthogonal_unitary():
    ops = weyl_operators(3)
    assert len(ops) == 9
    for a in ops:
        assert np.linalg.norm(dagger(a) @ a - np.eye(3)) <= 1e-12
    for i, a in enumerate(ops):
        for j, b in enumerate(ops):
            expect = 3.0 if i == j else 0.0
            assert abs(np.trace(dagger(a) @ b)) == pytest.approx(expect, abs=1e-12)


def test_shared_state_validation():
    with pytest.raises(ValueError):
        SharedState(np.array([0.2, 0.9]))  # ascending
    with pytest.raises(ValueError):
        SharedState(np.array([1.0, 0.5]))  # not normalized
    state = SharedState.from_squares([0.8, 0.2])
    assert state.rank == 2
    np.testing.assert_allclose(state.ket(), [np.sqrt(0.8), 0, 0, np.sqrt(0.2)])


@pytest.mark.parametrize("excess, accepted", [(5e-9, True), (-5e-9, True), (1e-7, False), (-1e-7, False)])
def test_shared_state_normalisation_within_validation_tol(excess, accepted):
    # Normalisation is an input check, so it uses VALIDATION_TOL (1e-8) like the others.
    lambdas = np.sqrt(np.array([0.8, 0.2]) * (1.0 + excess))
    if accepted:
        np.testing.assert_array_equal(SharedState(lambdas).lambdas, lambdas)
    else:
        with pytest.raises(ValueError, match="sum to one"):
            SharedState(lambdas)


@pytest.mark.parametrize("lambdas", [[np.nan, np.nan], [np.nan], [1.0, np.nan], [np.nan, 0.5]])
def test_shared_state_rejects_nan(lambdas):
    # NaN fails every comparison, so no check may pass it by not failing.
    with pytest.raises(ValueError, match="positive numbers"):
        SharedState(np.array(lambdas))
    with pytest.raises(ValueError):
        SharedState.from_squares(np.square(lambdas))


def test_capacity_values():
    assert capacity(SharedState.from_squares([0.25] * 4)) == pytest.approx(1.0)
    assert capacity(SharedState.from_squares([0.8, 0.2])) == pytest.approx(0.4)
    assert capacity(SharedState.from_squares([0.5, 0.3, 0.2])) == pytest.approx(0.6)


def test_optimal_protocol_maximally_entangled():
    state = SharedState.from_squares([0.5, 0.5])
    prot = optimal_protocol(state)
    np.testing.assert_allclose(prot.filter, np.eye(2), atol=1e-12)
    basis = prot.discrimination_basis
    np.testing.assert_allclose(dagger(basis) @ basis, np.eye(4), atol=1e-10)


def test_optimal_protocol_filter_values():
    prot = optimal_protocol(SharedState.from_squares([0.8, 0.2]))
    np.testing.assert_allclose(np.diag(prot.filter).real, [0.5, 1.0], atol=1e-12)


@pytest.mark.parametrize("lam2", [[0.8, 0.2], [0.5, 0.3, 0.2], [0.4, 0.3, 0.2, 0.1]])
def test_optimal_protocol_basis_orthonormal(lam2):
    prot = optimal_protocol(SharedState.from_squares(lam2))
    basis = prot.discrimination_basis
    n = basis.shape[1]
    np.testing.assert_allclose(dagger(basis) @ basis, np.eye(n), atol=1e-10)
    # column x is the encoded canonical ket (I (x) A_x)|phi>
    D = len(lam2)
    phi = np.eye(D).reshape(-1) / np.sqrt(D)
    for col, a in zip(basis.T, prot.encoders):
        np.testing.assert_allclose(col, np.kron(np.eye(D), a) @ phi, atol=1e-12)


def test_simulate_maximally_entangled_always_succeeds():
    # every success probability is 1 up to rounding (1 + 2.2e-16 at D = 2
    # and 8), so every message sent gets through and decodes as itself
    for D in (2, 3, 8):
        state = SharedState.from_squares([1.0 / D] * D)
        result = simulate(state, optimal_protocol(state), trials=2000, seed=3)
        assert result.sent.sum() == 2000
        assert np.array_equal(result.succeeded, result.sent)
        assert result.pooled_rate == 1.0
        assert result.decode_errors == 0


def test_simulate_matches_capacity_within_noise():
    state = SharedState.from_squares([0.8, 0.2])
    trials = 100_000
    result = simulate(state, optimal_protocol(state), trials=trials, seed=7)
    assert result.sent.sum() == trials
    cap = capacity(state)
    assert abs(result.pooled_rate - cap) <= 3 * binom_sigma(cap, trials)
    assert result.decode_errors == 0
    # per-message rates sit within their own binomial bands
    for x in range(4):
        n_x = int(result.sent[x])
        assert abs(result.per_message_rate[x] - cap) <= 4 * binom_sigma(cap, n_x)
    # failure branch frequency complements the capacity
    fail_rate = 1.0 - result.pooled_rate
    assert abs(fail_rate - (1 - cap)) <= 3 * binom_sigma(cap, trials)


def test_simulate_deterministic():
    state = SharedState.from_squares([0.8, 0.2])
    prot = optimal_protocol(state)
    a = simulate(state, prot, trials=5000, seed=11)
    b = simulate(state, prot, trials=5000, seed=11)
    assert np.array_equal(a.succeeded, b.succeeded)
    assert np.array_equal(a.sent, b.sent)
    assert a.decode_errors == b.decode_errors


def _spectrum(D: int, seed: int) -> SharedState:
    lam2 = np.sort(np.random.default_rng(seed).uniform(0.3, 1.0, D))[::-1]
    return SharedState.from_squares(lam2 / lam2.sum())


def _assert_same_law(state, protocol, trials, runs) -> float:
    """Check that ``simulate`` and the per-trial oracle, each over ``runs``
    seeds of its own, agree on the mean of every count (``sent`` and
    ``succeeded`` per message, then ``decode_errors``) within 4 standard
    errors of the difference; return the mean ``decode_errors``."""

    def moments(draw, seeds):
        rows = np.array([np.concatenate(draw(seed)) for seed in seeds], dtype=float)
        return rows.mean(axis=0), rows.std(axis=0, ddof=1) / np.sqrt(runs)

    def law(seed):
        result = simulate(state, protocol, trials=trials, seed=seed)
        return result.sent, result.succeeded, [result.decode_errors]

    def oracle(seed):
        sent, succeeded, decode_errors = simulate_per_message(state, protocol, trials, seed)
        return sent, succeeded, [decode_errors]

    mean, err = moments(law, range(runs))
    mean_ref, err_ref = moments(oracle, range(runs, 2 * runs))
    assert np.all(np.abs(mean - mean_ref) <= 4 * np.hypot(err, err_ref))
    return mean[-1]


@pytest.mark.parametrize("D", [2, 4, 8])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_simulate_matches_per_message_oracle(D, seed):
    # simulate draws the counts from their law, the oracle trial by trial
    state = _spectrum(D, 40 + seed)
    assert _assert_same_law(state, optimal_protocol(state), trials=500, runs=100) == 0


def test_simulate_matches_oracle_with_decode_errors():
    # a discrimination basis unrelated to the encoders mistakes messages
    state = _spectrum(4, 50)
    prot = optimal_protocol(state)
    wrong = DenseCodingProtocol(prot.encoders, prot.filter, random_unitary(16, 5))
    assert _assert_same_law(state, wrong, trials=1000, runs=400) > 0


def test_simulate_draws_from_the_amplitudes_the_bound_certifies():
    state = _spectrum(4, 60)
    prot = optimal_protocol(state)
    with mock.patch.object(densecode, "_receiver_amplitudes", wraps=densecode._receiver_amplitudes) as spy:
        simulate(state, prot, trials=1000, seed=3)
        verify_protocol_bound(state, prot.encoders, optimal_receiver(prot))
    (simulated, _), (bounded, _) = spy.call_args_list
    assert simulated[2].tobytes() == bounded[2].tobytes()


def test_simulate_takes_any_c_long_trial_count():
    state = SharedState.from_squares([0.8, 0.2])
    prot = optimal_protocol(state)
    result = simulate(state, prot, trials=2**63 - 1, seed=1)
    assert result.trials == 2**63 - 1
    assert abs(result.pooled_rate - capacity(state)) <= 1e-6
    for trials in (0, -1, 2**63, 10**30):
        with pytest.raises(ValueError, match=r"trials must be in \[1, 2\^63 - 1\]"):
            simulate(state, prot, trials=trials)


def test_simulate_rejects_an_unphysical_filter():
    # 3 F "succeeds" with probability 3.6 on every message
    state = SharedState.from_squares([0.8, 0.2])
    prot = optimal_protocol(state)
    loud = DenseCodingProtocol(prot.encoders, 3 * prot.filter, prot.discrimination_basis)
    with pytest.raises(ValueError, match=r"filter must satisfy F\^dag F <= I"):
        simulate(state, loud)


def test_simulate_rejects_encoders_that_increase_the_trace():
    # 2 A_x "succeeds" with probability 1.6 per message: a pooled rate of 1.0
    # with no decode errors, against a capacity of 0.4
    state = SharedState.from_squares([0.8, 0.2])
    prot = optimal_protocol(state)
    loud = DenseCodingProtocol(2 * prot.encoders, prot.filter, prot.discrimination_basis)
    with pytest.raises(ValueError, match="encoder 0 is not trace-non-increasing"):
        simulate(state, loud, 10000, 1)


@pytest.mark.parametrize("shape", [(4, 3), (4, 5), (5, 4)])
def test_simulate_rejects_a_basis_of_the_wrong_shape(shape):
    state = SharedState.from_squares([0.8, 0.2])
    prot = optimal_protocol(state)
    odd = DenseCodingProtocol(prot.encoders, prot.filter, np.eye(*shape))
    with pytest.raises(ValueError, match="discrimination basis must be 4 x 4"):
        simulate(state, odd)


def test_simulate_rejects_a_basis_that_is_not_orthonormal():
    # basis + 0.3 I read pooled_rate 0.799 with 38 decode errors in 1000 trials
    state = SharedState.from_squares([0.6, 0.4])
    prot = optimal_protocol(state)
    skewed = DenseCodingProtocol(prot.encoders, prot.filter, prot.discrimination_basis + 0.3 * np.eye(4))
    with pytest.raises(ValueError, match="columns are not orthonormal"):
        simulate(state, skewed, 1000, 1)


@pytest.mark.parametrize("shape", [(2, 3), (3, 2), (3, 3)])
def test_simulate_rejects_a_filter_of_the_wrong_shape(shape):
    # an identity of the wrong shape passes the contraction check
    state = SharedState.from_squares([0.8, 0.2])
    prot = optimal_protocol(state)
    odd = DenseCodingProtocol(prot.encoders, np.eye(*shape), prot.discrimination_basis)
    with pytest.raises(ValueError, match=re.escape(f"filter must be 2 x 2, got shape {shape}")):
        simulate(state, odd)


@pytest.mark.parametrize("D", [2, 3, 4])
def test_capacity_matches_simulation_across_spectra(D):
    rng = np.random.default_rng(D)
    for trial in range(5):
        lam2 = np.sort(rng.dirichlet(np.ones(D)))[::-1]
        state = SharedState.from_squares(lam2)
        trials = 20_000
        result = simulate(state, optimal_protocol(state), trials=trials, seed=trial)
        cap = capacity(state)
        assert abs(result.pooled_rate - cap) <= 3 * binom_sigma(cap, trials)
        assert result.decode_errors == 0


def test_verify_bound_optimal_protocol():
    for lam2 in ([0.8, 0.2], [0.5, 0.3, 0.2]):
        state = SharedState.from_squares(lam2)
        prot = optimal_protocol(state)
        rep = verify_protocol_bound(state, prot.encoders, optimal_receiver(prot))
        assert rep.form_holds
        assert rep.success_probability == pytest.approx(capacity(state), abs=1e-9)
        assert rep.bound_satisfied
        assert rep.gram_trace_ok


def test_verify_bound_scaled_receiver():
    state = SharedState.from_squares([0.8, 0.2])
    prot = optimal_protocol(state)
    rep = verify_protocol_bound(state, prot.encoders, 0.5 * optimal_receiver(prot))
    assert rep.form_holds
    assert rep.success_probability == pytest.approx(0.25 * capacity(state), abs=1e-9)
    assert rep.bound_satisfied


def test_verify_bound_randomized_search_never_exceeds():
    state = SharedState.from_squares([0.8, 0.2])
    prot = optimal_protocol(state)
    rng = np.random.default_rng(0)
    for trial in range(200):
        m = rand_complex(rng, (4, 4))
        bob = m / np.linalg.svd(m, compute_uv=False)[0]
        if trial % 2:
            bob = bob * rng.uniform(0.1, 1.0)
        rep = verify_protocol_bound(state, prot.encoders, bob)
        assert rep.success_probability <= rep.bound + 1e-9
        assert rep.gram_trace_ok


def test_verify_bound_rejects_unphysical_inputs():
    state = SharedState.from_squares([0.8, 0.2])
    prot = optimal_protocol(state)
    with pytest.raises(ValueError):
        verify_protocol_bound(state, prot.encoders, 1.5 * np.eye(4))
    bad_encoders = list(prot.encoders)
    bad_encoders[0] = 1.2 * bad_encoders[0]
    with pytest.raises(ValueError):
        verify_protocol_bound(state, bad_encoders, optimal_receiver(prot))


@pytest.mark.parametrize("as_list", [False, True], ids=["array", "list"])
def test_verify_bound_names_the_first_bad_encoder(as_list):
    state = SharedState.from_squares([0.4, 0.3, 0.3])
    prot = optimal_protocol(state)
    encoders = prot.encoders.copy()
    encoders[5] *= 1.1
    encoders[7] *= 1.2
    encoders = list(encoders) if as_list else encoders
    with pytest.raises(ValueError, match="encoder 5 is not trace-non-increasing"):
        verify_protocol_bound(state, encoders, optimal_receiver(prot))
    shapes = list(prot.encoders)
    shapes[4] = np.ones((3, 2))
    with pytest.raises(ValueError, match=r"Kraus element 4 has shape \(3, 2\), expected \(3, 3\)"):
        verify_protocol_bound(state, shapes, optimal_receiver(prot))
    with pytest.raises(ValueError, match="encoders must be 3 x 3, got 2 x 2"):
        verify_protocol_bound(state, np.ones((9, 2, 2)), optimal_receiver(prot))


def _lifted_encoders(state: SharedState, encoders) -> np.ndarray:
    """``M``: column ``x`` is ``(diag(lambdas) (x) I)(I (x) A_x) sum_i |ii>``."""
    D = state.rank
    phi = np.eye(D).reshape(-1)
    kets = np.column_stack([np.kron(np.eye(D), a) @ phi for a in encoders])
    return np.kron(np.diag(state.lambdas), np.eye(D)) @ kets


@pytest.mark.parametrize("D", [2, 4, 8])
def test_form_residual_is_a_phase_distance_at_rounding_level(D):
    state = _spectrum(D, 60 + D)
    prot = optimal_protocol(state)
    rep = verify_protocol_bound(state, prot.encoders, optimal_receiver(prot))
    assert rep.form_holds
    assert rep.form_residual < 1e-14


@pytest.mark.parametrize("D", [2, 3, 4])
@pytest.mark.parametrize("ratio", [0.3, 0.7, 1.0, 1.01, 1.5])
def test_capacity_is_tight_for_a_scaled_optimal_receiver(D, ratio):
    # B = (c / lambda_D) B_opt gives B M = (c / lambda_D) r_opt I; it obeys
    # B^dag B <= I exactly when c <= lambda_D.
    state = _spectrum(D, 70 + D)
    prot = optimal_protocol(state)
    c = ratio * state.lambdas[-1]
    bob = c / state.lambdas[-1] * optimal_receiver(prot)
    if ratio > 1:
        with pytest.raises(ValueError, match=r"B\^dag B <= I"):
            verify_protocol_bound(state, prot.encoders, bob)
        return
    rep = verify_protocol_bound(state, prot.encoders, bob)
    assert rep.form_holds and rep.bound_satisfied
    assert rep.success_probability == pytest.approx(D * c**2, abs=1e-12)


@st.composite
def _shared_states(draw):
    D = draw(st.integers(2, 5))
    squares = draw(st.lists(st.floats(0.05, 1.0), min_size=D, max_size=D))
    lam2 = np.sort(squares)[::-1]
    return SharedState.from_squares(lam2 / lam2.sum())


@given(_shared_states())
def test_optimal_product_certifies_at_the_capacity(state):
    prot = optimal_protocol(state)
    bob = optimal_receiver(prot)
    rep = verify_protocol_bound(state, prot.encoders, bob)
    assert rep.form_holds
    cert = certify_uum(bob @ _lifted_encoders(state, prot.encoders))
    assert cert.is_uum
    assert abs(cert.probability - capacity(state)) <= 1e-12


@given(_shared_states())
def test_capacity_is_the_vidal_optimum_of_the_shared_ket(state):
    # equal-probability dense coding succeeds exactly when the shared ket is
    # first distilled into the canonical one
    D = state.rank
    assert abs(capacity(state) - conversion_probability(schmidt(state.ket(), D, D), D)) <= 1e-15


def test_equal_moduli_with_different_phases_fail_the_form():
    # B M is diagonal with equal moduli, a unitary map but not the identity:
    # every message arrives with the same probability, yet not as itself.
    state = SharedState.from_squares([0.6, 0.4])
    prot = optimal_protocol(state)
    bob = np.diag(np.exp(0.5j * np.arange(4))) @ optimal_receiver(prot)
    product = bob @ _lifted_encoders(state, prot.encoders)
    np.testing.assert_allclose(product, np.diag(np.diag(product)), atol=1e-15)
    np.testing.assert_allclose(abs(np.diag(product)), np.sqrt(capacity(state)), atol=1e-15)
    assert certify_uum(product).is_uum
    rep = verify_protocol_bound(state, prot.encoders, bob)
    assert not rep.form_holds
    assert rep.form_residual > 0.1
    assert rep.bound_satisfied and rep.gram_trace_ok


def test_zero_receiver_fails_the_form():
    # r = 0 passes any residual test, but a UUQC needs nonzero probability
    state = SharedState.from_squares([0.8, 0.2])
    rep = verify_protocol_bound(state, optimal_protocol(state).encoders, np.zeros((4, 4)))
    assert rep.r == 0 and rep.success_probability == 0.0
    assert not rep.form_holds
    assert rep.bound_satisfied and rep.gram_trace_ok

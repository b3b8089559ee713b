"""Acceptance suite: every exit criterion, one pass/fail line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
pass; any assertion failure marks the corresponding criterion red.
"""

import time

import numpy as np
import pytest

from uuqc.channels import KrausChannel, choi_state
from uuqc.cli import dispatch
from uuqc.densecode import (
    SharedState,
    capacity,
    optimal_protocol,
    simulate,
    verify_protocol_bound,
)
from uuqc.entanglement import (
    schmidt,
    teleport_probability_pure,
    ues_to_uuqc,
    uuqc_to_ues,
)
from uuqc.formats import dump_json, ket_to_doc, matrix_to_doc
from uuqc.linalg import factor_as_tensor, tensor_product
from uuqc.qec import (
    CodeSpec,
    kl_check,
    meets_certainty_condition,
    standard_recovery,
    unambiguous_correction_probability,
    verify_correction_uuqc,
)
from uuqc.unambiguous import (
    certify_uum,
    certify_uuqc,
    extend_by_identity,
    probability_profile,
    refine,
    restrict_operator,
)

from builders import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    make_uum,
    make_uuqc,
    maximally_entangled_ket,
    random_ket,
    repetition_code,
    single_qubit_on,
)
from oracles import binom_sigma, filter_conversion_max, restrict_by_kron


def report(n, label):
    print(f"\n[acceptance] criterion {n} ({label}): PASS")


def test_criterion_1_input_independence():
    # 50 constructed maps: the exact probability range over all inputs has
    # spread <= 1e-9, and 100 Haar inputs each fall inside it
    start = time.time()
    rng = np.random.default_rng(101)
    for trial in range(50):
        d = int(rng.integers(2, 4))
        env_in = int(rng.integers(1, 4))
        env_out = int(rng.integers(1, 4))
        p = float(rng.uniform(0.1, 1.0))
        omega, _, _, v1, v2 = make_uum(
            rng, d, d + int(rng.integers(0, 2)), d + int(rng.integers(0, 2)),
            env_in, env_out, p, with_noise=True,
        )
        prof = probability_profile(omega, v1, v2, env_in, env_out)
        assert prof[-1] - prof[0] <= 1e-9
        assert prof.mean() == pytest.approx(p, abs=1e-8)
        restricted = restrict_by_kron(omega, v1.columns, v2.columns, env_in, env_out)
        kets = np.random.default_rng(trial)
        for _ in range(100):
            psi = random_ket(d, kets)
            block = restricted @ tensor_product(psi.reshape(-1, 1), np.eye(env_in))
            assert prof[0] - 1e-12 <= np.linalg.norm(block) ** 2 <= prof[-1] + 1e-12
    elapsed = time.time() - start
    assert elapsed < 10.0
    report(1, f"input independence, {elapsed:.1f}s")


def test_criterion_2_factorization_round_trip():
    rng = np.random.default_rng(202)
    for trial in range(20):
        d = int(rng.integers(2, 4))
        env_in = int(rng.integers(1, 3))
        env_out = int(rng.integers(1, 3))
        p = float(rng.uniform(0.05, 1.0))
        omega, unitary, theta, v1, v2 = make_uum(
            rng, d, d + 1, d + 1, env_in, env_out, p, with_noise=True
        )
        cert = certify_uum(omega, v1, v2, env_in, env_out)
        assert cert.is_uum
        assert cert.residual <= 1e-9
        restricted = restrict_operator(omega, v1, v2, env_in, env_out)
        recon = tensor_product(cert.unitary, cert.env_factor)
        assert np.linalg.norm(recon - restricted) <= 1e-9
        expected_p = np.trace(theta @ theta.conj().T).real
        assert cert.probability == pytest.approx(expected_p, abs=1e-9)
        assert np.trace(cert.env_factor @ cert.env_factor.conj().T).real == pytest.approx(
            expected_p, abs=1e-9
        )
    report(2, "factorization round trip")


def test_criterion_3_channel_sum_and_refinement():
    rng = np.random.default_rng(303)
    for trial in range(10):
        d = int(rng.integers(2, 4))
        env_in = int(rng.integers(1, 3))
        env_out = int(rng.integers(1, 3))
        probs = rng.uniform(0.05, 0.3, size=int(rng.integers(2, 5)))
        ch, unitary, thetas, v1, v2 = make_uuqc(
            rng, d, d + 1, d + 1, env_in, env_out, probs
        )
        cert = certify_uuqc(ch, v1, v2, env_in, env_out)
        assert cert.is_uuqc
        assert cert.total_probability == pytest.approx(float(np.sum(probs)), abs=1e-9)
        # direct defining-identity evaluation at the certified q
        assert cert.definition_residual <= 1e-9

        refined = refine(ch, v1, v2, env_in, env_out)
        after = certify_uuqc(refined, v1, v2, env_in, env_out)
        assert after.is_uuqc
        assert after.total_probability == pytest.approx(cert.total_probability, abs=1e-9)
        for e in refined.stack:
            pair = factor_as_tensor(e, d + 1, env_out, d + 1, env_in)
            assert pair.schmidt_values[1:].max(initial=0.0) <= 1e-9
    report(3, "probability sum and rank-one refinement")


def test_criterion_4_extension_and_state_equivalence():
    rng = np.random.default_rng(404)
    # identity extension preserves certified probability
    ch, unitary, thetas, v1, v2 = make_uuqc(rng, 2, 3, 3, 2, 2, [0.35, 0.45])
    for ancilla in (2, 3):
        ext = extend_by_identity(ch, ancilla)
        cert = certify_uuqc(ext, v1.extend_left(ancilla), v2.extend_left(ancilla), 2, 2)
        assert cert.is_uuqc
        assert cert.total_probability == pytest.approx(0.8, abs=1e-9)

    # channel -> shared state with the same weight and the rotated ket
    for d in (2, 3):
        probs = [0.3, 0.4]
        ch, unitary, thetas, v1, v2 = make_uuqc(rng, d, d + 1, d + 1, 2, 2, probs)
        cert = certify_uuqc(ch, v1, v2, 2, 2)
        weight, ket = uuqc_to_ues(ch, v1, v2, 2, 2)
        assert weight == pytest.approx(cert.total_probability, abs=1e-9)
        target = tensor_product(np.eye(d), cert.unitary) @ maximally_entangled_ket(d)
        assert abs(np.vdot(target, ket)) ** 2 == pytest.approx(1.0, abs=1e-9)

    # shared state -> channel via teleportation
    for d in (2, 3):
        tele = ues_to_uuqc(d)
        cert = certify_uuqc(tele)
        assert cert.is_uuqc
        assert cert.total_probability == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(cert.unitary, np.eye(d), atol=1e-9)
    report(4, "identity extension and state equivalence")


def test_criterion_5_teleportation_numbers():
    start = time.time()
    lam = np.sqrt([0.8, 0.2])
    shared = np.zeros(4, dtype=complex)
    shared[0], shared[3] = lam[0], lam[1]
    cert = teleport_probability_pure(shared, 2, 2, 2)
    oracle = filter_conversion_max(lam, 2)
    assert cert.probability == pytest.approx(0.4, abs=1e-9)
    assert cert.probability == pytest.approx(oracle, abs=1e-4)
    elapsed = time.time() - start
    assert elapsed < 5.0
    report(5, f"teleportation probability 0.4, oracle {elapsed:.2f}s")


def test_criterion_6_knill_laflamme_and_recovery():
    code = repetition_code()
    flips = KrausChannel(
        tuple([0.5 * np.eye(8, dtype=complex)]
              + [0.5 * single_qubit_on(PAULI_X, w) for w in range(3)])
    )
    rep = kl_check(code, flips)
    assert rep.correctable
    np.testing.assert_allclose(rep.h, np.eye(4) / 4, atol=1e-10)

    z_noise = KrausChannel(
        (np.eye(8, dtype=complex) / np.sqrt(2), single_qubit_on(PAULI_Z, 0) / np.sqrt(2))
    )
    assert not kl_check(code, z_noise).correctable

    recovery = standard_recovery(code, flips)
    verdict = verify_correction_uuqc(code, flips, recovery)
    assert verdict.certificate.is_uuqc
    assert verdict.identity_probability == pytest.approx(1.0, abs=1e-9)
    report(6, "Knill-Laflamme checker and constructed recovery")


def test_criterion_7_nonzero_probability_correction():
    triv = CodeSpec(np.eye(2, dtype=complex))
    noise = KrausChannel((np.diag([1.0, 0.8]).astype(complex),))
    prob, method = unambiguous_correction_probability(triv, noise)
    assert method == "pure-exact"
    assert prob == pytest.approx(0.64, abs=1e-9)

    sigma = choi_state(noise)
    weight = np.trace(sigma).real
    _, evecs = np.linalg.eigh(sigma)
    lam = schmidt(evecs[:, -1], 2, 2).coefficients
    assert prob == pytest.approx(weight * filter_conversion_max(lam, 2), abs=1e-4)

    dep = KrausChannel((np.eye(2) / 2, PAULI_X / 2, PAULI_Y / 2, PAULI_Z / 2))
    assert not meets_certainty_condition(triv, dep)
    report(7, "correction probability 0.64 and certainty rejection")


def test_criterion_8_dense_coding():
    start = time.time()
    cases = {2: ([0.8, 0.2], 0.4), 3: ([0.5, 0.3, 0.2], 0.6)}
    for D, (lam2, expected) in cases.items():
        state = SharedState.from_squares(lam2)
        assert capacity(state) == pytest.approx(expected, abs=1e-12)
        prot = optimal_protocol(state)
        trials = 100_000
        result = simulate(state, prot, trials=trials, seed=8)
        assert abs(result.pooled_rate - expected) <= 3 * binom_sigma(expected, trials)
        assert result.decode_errors == 0
        rates = result.per_message_rate
        for x in range(D * D):
            assert abs(rates[x] - expected) <= 4 * binom_sigma(expected, int(result.sent[x]))

    state = SharedState.from_squares([0.8, 0.2])
    prot = optimal_protocol(state)
    rng = np.random.default_rng(88)
    for trial in range(200):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        bob = m / np.linalg.svd(m, compute_uv=False)[0]
        if trial % 3:
            bob = bob * rng.uniform(0.1, 1.0)
        rep = verify_protocol_bound(state, prot.encoders, bob)
        assert rep.success_probability <= rep.bound + 1e-9
    elapsed = time.time() - start
    assert elapsed < 30.0
    report(8, f"dense coding capacity/simulation/bound, {elapsed:.1f}s")


def test_criterion_9_cli_contract(tmp_path, capsys):
    # determinism: repeated runs are byte-identical
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["dense-code", "--D", "2", "--lambdas2", "0.8,0.2",
            "--trials", "50000", "--seed", "5", "--out"]
    assert dispatch(argv + [str(out1)]) == 0
    assert dispatch(argv + [str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()

    # positive path: exit 0
    phi_file = tmp_path / "phi.json"
    phi_file.write_text(dump_json(ket_to_doc(maximally_entangled_ket(2))))
    assert dispatch(["schmidt", str(phi_file), "--dims", "2,2",
                     "--out", str(tmp_path / "s.json")]) == 0

    # negative verdict: exit 3
    filt_file = tmp_path / "filt.json"
    filt_file.write_text(dump_json(matrix_to_doc(np.diag([1.0, 0.5]))))
    assert dispatch(["check-uum", str(filt_file),
                     "--out", str(tmp_path / "n.json")]) == 3

    # malformed input: exit 1
    broken = tmp_path / "broken.json"
    broken.write_text('{"rows": 2, "cols": 2, "data": [[0.0, 0.0]]}')
    assert dispatch(["schmidt", str(broken), "--dims", "2,2"]) == 1
    assert dispatch(["schmidt", str(tmp_path / "nope.json"), "--dims", "2,2"]) == 1
    capsys.readouterr()
    report(9, "CLI determinism and exit-code contract")

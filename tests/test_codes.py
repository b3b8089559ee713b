"""Standard codes as oracles: textbook verdicts the error-correction layer must reproduce."""

import numpy as np
import pytest

from uuqc.qec import kl_check, standard_recovery, unambiguous_correction_probability, verify_correction_uuqc

from builders import damping_noise, five_qubit_code, leung_code, pauli_noise, shor_code, steane_code

STABILIZER_CODES = [(five_qubit_code, 5), (steane_code, 7), (shor_code, 9)]


@pytest.mark.parametrize("build, n", STABILIZER_CODES)
def test_single_qubit_paulis_are_correctable_and_ec_prob_is_tr_h(build, n):
    code, noise = build(), pauli_noise(n, 0.3)
    assert code.encoder.shape == (2**n, 2)
    report = kl_check(code, noise)
    assert report.correctable
    assert np.trace(report.h) == pytest.approx(1.0, abs=1e-12)
    prob, method = unambiguous_correction_probability(code, noise)
    assert method == "filter-lower-bound"
    assert prob == pytest.approx(np.trace(report.h).real, abs=1e-12)


# Not on Shor's code, whose noise stack alone is 28 x 512 x 512 complex
# entries, 117 MB.
@pytest.mark.parametrize("build, n", STABILIZER_CODES[:2])
def test_standard_recovery_corrects_single_qubit_paulis(build, n):
    code, noise = build(), pauli_noise(n, 0.3)
    verdict = verify_correction_uuqc(code, noise, standard_recovery(code, noise))
    assert verdict.certificate.is_uuqc
    assert verdict.identity_probability == pytest.approx(1.0, abs=1e-12)


def test_leung_code_under_full_amplitude_damping():
    code, noise = leung_code(), damping_noise(4, 0.1)
    assert len(noise.stack) == 16
    report = kl_check(code, noise)
    assert not report.correctable
    assert report.residual == pytest.approx(0.06434, abs=1e-5)
    assert unambiguous_correction_probability(code, noise)[0] == 0.0


def test_leung_code_under_first_order_damping():
    # A0^{(x)4} and the four products with one A1: not Knill-Laflamme
    # correctable, yet corrected with a probability inside [0.9558, 0.9819],
    # the branch bound and the filter-space upper bound.
    code, noise = leung_code(), damping_noise(4, 0.1, max_decays=1)
    assert len(noise.stack) == 5
    report = kl_check(code, noise)
    assert not report.correctable
    assert report.residual == pytest.approx(0.01276, abs=1e-5)
    prob, _ = unambiguous_correction_probability(code, noise)
    assert 0.9558 - 1e-9 <= prob <= 0.9819

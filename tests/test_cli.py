import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import uuqc
from uuqc.channels import KrausChannel
from uuqc.cli import dispatch
from uuqc.densecode import SharedState, optimal_protocol, optimal_receiver
from uuqc.formats import (
    channel_to_doc,
    code_to_doc,
    dump_json,
    ket_to_doc,
    matrix_to_doc,
)
from uuqc.linalg import random_unitary, tensor_product
from uuqc.qec import CodeSpec

from builders import (
    PAULI_X,
    five_qubit_code,
    flagged_erasure,
    leung_code,
    make_uuqc,
    maximally_entangled_ket,
    pauli_noise,
    rand_complex,
    random_subspace,
    repetition_code,
    single_qubit_on,
)


def write(path, doc):
    path.write_text(dump_json(doc))
    return str(path)


@pytest.fixture
def phi2_file(tmp_path):
    return write(tmp_path / "phi2.json", ket_to_doc(maximally_entangled_ket(2)))


def run(capsys, argv):
    code = dispatch(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out else None
    return code, report, captured.err


def test_schmidt_report(capsys, phi2_file):
    code, report, err = run(capsys, ["schmidt", phi2_file, "--dims", "2,2"])
    assert code == 0
    np.testing.assert_allclose(report["coefficients"], [0.70710678, 0.70710678], atol=1e-8)
    assert report["rank"] == 2
    assert "rank 2" in err


def test_check_uum_positive_and_negative(capsys, tmp_path):
    u_file = write(tmp_path / "u.json", matrix_to_doc(random_unitary(3, 5)))
    code, report, _ = run(capsys, ["check-uum", u_file])
    assert code == 0 and report["is_uum"]
    assert report["probability"] == pytest.approx(1.0, abs=1e-9)

    f_file = write(tmp_path / "f.json", matrix_to_doc(np.diag([1.0, 0.5])))
    code, report, _ = run(capsys, ["check-uum", f_file])
    assert code == 3 and not report["is_uum"]
    assert report["residual"] >= 0.0


def test_check_uuqc_and_refine(capsys, tmp_path):
    u = random_unitary(2, 9)
    t1 = np.sqrt(0.3) * np.eye(2) / np.sqrt(2)
    t2 = np.array([[0.1, 0.5], [0.3, 0.2]], dtype=complex)
    t2 *= np.sqrt(0.5) / np.linalg.norm(t2)
    ch = KrausChannel((tensor_product(u, t1), tensor_product(u, t2)))
    ch_file = write(tmp_path / "ch.json", channel_to_doc(ch))
    code, report, _ = run(
        capsys, ["check-uuqc", ch_file, "--env-in", "2", "--env-out", "2"]
    )
    assert code == 0 and report["is_uuqc"]
    assert report["total_probability"] == pytest.approx(0.8, abs=1e-9)

    out_file = tmp_path / "refined.json"
    code, report, _ = run(
        capsys,
        ["refine", ch_file, "--env-in", "2", "--env-out", "2", "--out", str(out_file)],
    )
    assert code == 0
    # the refine report is itself a channel document: pipe it straight back
    code, report, _ = run(
        capsys, ["check-uuqc", str(out_file), "--env-in", "2", "--env-out", "2"]
    )
    assert code == 0 and report["is_uuqc"]
    assert report["total_probability"] == pytest.approx(0.8, abs=1e-9)

    bad = write(tmp_path / "bad.json", channel_to_doc(KrausChannel((np.diag([1.0, 0.5]),))))
    code, report, _ = run(capsys, ["refine", bad])
    assert code == 3 and not report["is_uuqc"]


def test_to_ues_and_teleport(capsys, tmp_path, phi2_file):
    u_file = write(tmp_path / "u.json", channel_to_doc(KrausChannel((random_unitary(2, 3),))))
    code, report, _ = run(capsys, ["to-ues", u_file])
    assert code == 0
    assert report["success_weight"] == pytest.approx(1.0, abs=1e-9)

    code, report, _ = run(capsys, ["teleport", phi2_file, "--dims", "2,2", "--d", "2"])
    assert code == 0
    assert report["probability"] == pytest.approx(1.0, abs=1e-9)

    lam = np.sqrt([0.8, 0.2])
    shared = np.zeros(4, dtype=complex)
    shared[0], shared[3] = lam[0], lam[1]
    s_file = write(tmp_path / "shared.json", ket_to_doc(shared))
    code, report, _ = run(capsys, ["teleport", s_file, "--dims", "2,2", "--d", "2"])
    assert report["probability"] == pytest.approx(0.4, abs=1e-9)


def test_kl_check_exit_codes(capsys, tmp_path):
    code_file = write(tmp_path / "code.json", code_to_doc(repetition_code()))
    flips = KrausChannel(
        tuple([0.5 * np.eye(8)] + [0.5 * single_qubit_on(PAULI_X, w) for w in range(3)])
    )
    flips_file = write(tmp_path / "flips.json", channel_to_doc(flips))
    code, report, _ = run(capsys, ["kl-check", code_file, flips_file])
    assert code == 0 and report["correctable"]
    h = report["h"]
    assert h["rows"] == 4
    diag = [h["data"][i * 4 + i][0] for i in range(4)]
    np.testing.assert_allclose(diag, [0.25] * 4, atol=1e-10)
    # ec-prob agrees that the flips are correctable; certainty_condition
    # stays false because it only accepts a pure Choi state, and this one is
    # mixed
    code, report, _ = run(capsys, ["ec-prob", code_file, flips_file])
    assert code == 0
    assert set(report) == {"command", "probability", "method", "certainty_condition"}
    assert report["probability"] == pytest.approx(1.0, abs=1e-9)
    assert report["method"] == "filter-lower-bound"
    assert report["certainty_condition"] is False

    z_noise = KrausChannel(
        (np.eye(8) / np.sqrt(2), single_qubit_on(np.diag([1, -1]).astype(complex), 0) / np.sqrt(2))
    )
    z_file = write(tmp_path / "z.json", channel_to_doc(z_noise))
    code, report, _ = run(capsys, ["kl-check", code_file, z_file])
    assert code == 3 and not report["correctable"]
    code, report, _ = run(capsys, ["ec-prob", code_file, z_file])
    assert code == 0 and report["probability"] == pytest.approx(0.0, abs=1e-9)


def test_kl_check_accepts_noise_into_a_larger_space(capsys, tmp_path):
    # a flagged erasure on Leung's code maps 16 dimensions into 81
    code_file = write(tmp_path / "code.json", code_to_doc(leung_code()))
    erasure_file = write(tmp_path / "erasure.json", channel_to_doc(flagged_erasure(4, 0.2)))
    code, report, _ = run(capsys, ["kl-check", code_file, erasure_file])
    assert code == 0 and report["correctable"]
    code, report, _ = run(capsys, ["ec-prob", code_file, erasure_file])
    assert code == 0 and report["probability"] == pytest.approx(1.0, abs=1e-12)


def test_ec_prob(capsys, tmp_path):
    code_file = write(tmp_path / "triv.json", code_to_doc(CodeSpec(np.eye(2, dtype=complex))))
    noise = KrausChannel((np.diag([1.0, 0.8]).astype(complex),))
    noise_file = write(tmp_path / "noise.json", channel_to_doc(noise))
    code, report, _ = run(capsys, ["ec-prob", code_file, noise_file])
    assert code == 0
    assert report["probability"] == pytest.approx(0.64, abs=1e-9)
    assert report["method"] == "pure-exact"
    assert report["certainty_condition"] is False


def test_ec_prob_runs_one_ec_step(capsys, tmp_path, monkeypatch):
    # The probability and the certainty condition come from one step per run.
    code_file = write(tmp_path / "rep.json", code_to_doc(repetition_code()))
    flips = [np.sqrt(0.1) * single_qubit_on(PAULI_X, k) for k in range(3)]
    noise_file = write(tmp_path / "flips.json", channel_to_doc(KrausChannel([np.sqrt(0.7) * np.eye(8), *flips])))
    calls = []
    step = uuqc.qec._ec_step
    monkeypatch.setattr(uuqc.qec, "_ec_step", lambda *args: calls.append(args) or step(*args))
    for runs in (1, 2):
        code, report, _ = run(capsys, ["ec-prob", code_file, noise_file])
        assert code == 0 and len(calls) == runs
    assert report["probability"] == pytest.approx(1.0, abs=1e-12)
    assert report["method"] == "filter-lower-bound" and report["certainty_condition"] is False


def test_ec_prob_on_all_zero_noise_reports_probability_zero(capsys, tmp_path):
    code_file = write(tmp_path / "triv.json", code_to_doc(CodeSpec(np.eye(2, dtype=complex))))
    noise_file = write(tmp_path / "zero.json", channel_to_doc(KrausChannel((np.zeros((2, 2), dtype=complex),))))
    code, report, err = run(capsys, ["ec-prob", code_file, noise_file])
    assert code == 0 and "Traceback" not in err
    assert report["probability"] == 0.0 and report["method"] == "pure-exact"
    assert report["certainty_condition"] is False


def test_ec_prob_certainty_uses_tol(capsys, tmp_path):
    # a pure Choi state whose Schmidt coefficients miss 1/sqrt(2) by ~4e-6
    code_file = write(tmp_path / "triv.json", code_to_doc(CodeSpec(np.eye(2, dtype=complex))))
    noise = KrausChannel((np.diag([1.0, 1.0 - 1e-5]).astype(complex),))
    noise_file = write(tmp_path / "noise.json", channel_to_doc(noise))
    code, report, _ = run(capsys, ["ec-prob", code_file, noise_file, "--tol", "1e-3"])
    assert code == 0 and report["certainty_condition"] is True
    code, report, _ = run(capsys, ["ec-prob", code_file, noise_file])
    assert code == 0 and report["certainty_condition"] is False


def test_ec_prob_tol_sets_the_pure_schmidt_rank(capsys, tmp_path):
    code_file = write(tmp_path / "triv.json", code_to_doc(CodeSpec(np.eye(2, dtype=complex))))
    noise = KrausChannel((np.diag([1.0, 1e-7]).astype(complex),))
    noise_file = write(tmp_path / "noise.json", channel_to_doc(noise))
    code, report, _ = run(capsys, ["ec-prob", code_file, noise_file, "--tol", "1e-6"])
    assert code == 0
    assert report["probability"] == 0.0 and report["method"] == "pure-exact"


def test_ec_prob_refuses_trace_increasing_noise_in_one_line(capsys, tmp_path):
    # five-qubit Pauli noise times 100 once read as probability 9999.999999999996
    code_file = write(tmp_path / "code.json", code_to_doc(five_qubit_code()))
    noise_file = write(tmp_path / "noise.json", channel_to_doc(KrausChannel(100 * pauli_noise(5, 0.1).stack)))
    code, report, err = run(capsys, ["ec-prob", code_file, noise_file])
    assert code == 1 and report is None
    assert err == ("error: noise must not increase the trace on the code space: "
                   "lambda_max(sum_k (E_k C)^dag E_k C) = 10000 > 1\n")
    # The Knill-Laflamme condition does not depend on the noise's scale.
    code, report, _ = run(capsys, ["kl-check", code_file, noise_file])
    assert code == 0 and report["correctable"]


@pytest.mark.parametrize("D", range(2, 9))
def test_optimal_protocol_inputs_pass_at_tol_zero(capsys, tmp_path, D):
    # Squared Schmidt coefficients proportional to D, D-1, ..., 1: the
    # library's own encoders and receiver carry rounding that a verdict
    # tolerance of 0 must not turn into an input error.
    squares = np.arange(D, 0, -1) / (D * (D + 1) / 2)
    text = ",".join(repr(float(x)) for x in squares)
    code, report, err = run(capsys, ["dense-code", "--D", str(D), "--lambdas2", text, "--trials", "100",
                                     "--tol", "0"])
    assert code == 0, err
    assert report["capacity"] == pytest.approx(D * squares[-1], rel=1e-12)
    prot = optimal_protocol(SharedState.from_squares(squares))
    enc_file = write(tmp_path / "enc.json", channel_to_doc(KrausChannel(prot.encoders)))
    bob_file = write(tmp_path / "bob.json", matrix_to_doc(optimal_receiver(prot)))
    for tol in ("0", "1e-9"):
        code, report, err = run(capsys, ["verify-dc", enc_file, bob_file, "--lambdas2", text, "--tol", tol])
        assert code in (0, 3) and report is not None, err
        assert report["success_probability"] == pytest.approx(D * squares[-1], rel=1e-12)
    assert code == 0


def test_teleport_takes_no_tol(capsys, tmp_path):
    # teleport's optimum is a closed form: --tol was accepted and ignored
    ket = np.zeros(4, dtype=complex)
    ket[0], ket[3] = np.sqrt(0.99), 0.1
    argv = ["teleport", write(tmp_path / "shared.json", ket_to_doc(ket)), "--dims", "2,2", "--d", "2"]
    code, report, _ = run(capsys, argv)
    assert code == 0 and report["probability"] == pytest.approx(0.02, abs=1e-12)
    code, report, err = run(capsys, argv + ["--tol", "1e-3"])
    assert code == 1 and report is None
    assert err.splitlines()[-1] == "uuqc: error: unrecognized arguments: --tol 1e-3"


def test_dense_code_stats(capsys):
    code, report, _ = run(
        capsys,
        ["dense-code", "--D", "2", "--lambdas2", "0.8,0.2", "--trials", "100000", "--seed", "7"],
    )
    assert code == 0
    assert report["capacity"] == pytest.approx(0.4, abs=1e-12)
    sigma = np.sqrt(0.4 * 0.6 / 100000)
    assert abs(report["pooled_rate"] - 0.4) <= 3 * sigma
    assert report["decode_errors"] == 0
    assert report["bound_check"]["form_holds"]


def test_verify_dc(capsys, tmp_path):
    state = SharedState.from_squares([0.8, 0.2])
    prot = optimal_protocol(state)
    enc_file = write(tmp_path / "enc.json", channel_to_doc(KrausChannel(prot.encoders)))
    bob_file = write(tmp_path / "bob.json", matrix_to_doc(optimal_receiver(prot)))
    code, report, _ = run(
        capsys, ["verify-dc", enc_file, bob_file, "--lambdas2", "0.8,0.2"]
    )
    assert code == 0
    assert report["form_holds"] and report["bound_satisfied"]
    assert report["success_probability"] == pytest.approx(0.4, abs=1e-9)

    code, report, _ = run(
        capsys, ["verify-dc", enc_file, bob_file, "--lambdas2", "0.9,0.1"]
    )
    # the optimal receiver for one spectrum is not the scaled identity form
    # for another: the verdict must turn negative
    assert code == 3


def test_verify_dc_rejects_receivers_off_the_identity_form(capsys, tmp_path):
    state = SharedState.from_squares([0.8, 0.2])
    prot = optimal_protocol(state)
    enc_file = write(tmp_path / "enc.json", channel_to_doc(KrausChannel(prot.encoders)))
    receivers = {
        # r = 0: no message ever gets through
        "zero": np.zeros((4, 4)),
        # equal success probabilities, but message x arrives with its own phase
        "phased": np.diag(np.exp(0.5j * np.arange(4))) @ optimal_receiver(prot),
    }
    for name, bob in receivers.items():
        bob_file = write(tmp_path / f"{name}.json", matrix_to_doc(bob))
        code, report, _ = run(capsys, ["verify-dc", enc_file, bob_file, "--lambdas2", "0.8,0.2"])
        assert code == 3, name
        assert not report["form_holds"] and report["bound_satisfied"], name
    # a receiver scaled past the capacity breaks B^dag B <= I: bad input
    bob_file = write(tmp_path / "over.json", matrix_to_doc(1.1 * optimal_receiver(prot)))
    code, report, err = run(capsys, ["verify-dc", enc_file, bob_file, "--lambdas2", "0.8,0.2"])
    assert code == 1 and report is None
    assert "B^dag B <= I" in err


def _overflowing_argv(tmp_path, command):
    """``command``'s arguments with one input whose entries are all 1e200."""
    huge = np.full((4, 4), 1e200)
    code_file = write(tmp_path / "code.json", code_to_doc(CodeSpec(np.eye(4, 2, dtype=complex))))
    prot = optimal_protocol(SharedState.from_squares([0.8, 0.2]))
    return {
        "check-uum": ["check-uum", write(tmp_path / "omega.json", matrix_to_doc(huge))],
        "kl-check": ["kl-check", code_file, write(tmp_path / "errors.json", channel_to_doc(KrausChannel((huge,))))],
        "ec-prob": ["ec-prob", code_file, write(tmp_path / "noise.json", channel_to_doc(KrausChannel((huge,))))],
        "teleport": ["teleport", write(tmp_path / "shared.json", ket_to_doc(huge.reshape(-1))),
                     "--dims", "4,4", "--d", "2"],
        "verify-dc": ["verify-dc", write(tmp_path / "enc.json", channel_to_doc(KrausChannel(prot.encoders))),
                      write(tmp_path / "bob.json", matrix_to_doc(huge)), "--lambdas2", "0.8,0.2"],
    }[command]


@pytest.mark.parametrize("command", ["check-uum", "kl-check", "ec-prob", "teleport", "verify-dc"])
def test_overflow_is_a_one_line_numerical_failure(capsys, tmp_path, command):
    # overflow is a numerical failure, not warnings followed by an Infinity
    # report, a false verdict or an invalid-input error
    argv = _overflowing_argv(tmp_path, command)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, report, err = run(capsys, argv)
    assert code == 2 and report is None
    assert not caught
    assert len(err.splitlines()) == 1 and err.startswith("numerical failure:")
    assert "Traceback" not in err and "Warning" not in err


def test_nan_schmidt_coefficients_exit_one(capsys, tmp_path):
    prot = optimal_protocol(SharedState.from_squares([0.8, 0.2]))
    enc_file = write(tmp_path / "enc.json", channel_to_doc(KrausChannel(prot.encoders)))
    bob_file = write(tmp_path / "bob.json", matrix_to_doc(optimal_receiver(prot)))
    for argv in (["dense-code", "--D", "2", "--lambdas2", "nan,nan", "--trials", "10"],
                 ["verify-dc", enc_file, bob_file, "--lambdas2", "nan,nan"]):
        code, report, err = run(capsys, argv)
        assert code == 1 and report is None, argv
        assert "--lambdas2" in err


@pytest.mark.parametrize("squares", ["1.5,-0.5", "0.5,-inf", "inf,0.5"])
def test_bad_squares_exit_one_with_one_line(capsys, squares):
    # the root of a negative square warned, which printed the warning and its
    # source line ahead of the one-line error
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, report, err = run(capsys, ["dense-code", "--D", "2", "--lambdas2", squares])
    assert code == 1 and report is None
    assert not caught
    assert err.splitlines() == ["error: --lambdas2: all Schmidt coefficients must be positive numbers"]


@pytest.mark.parametrize("d", ["0", "-1", "1"])
def test_dense_code_checks_d_before_counting_values(capsys, d):
    code, report, err = run(capsys, ["dense-code", "--D", d, "--lambdas2", "1"])
    assert code == 1 and report is None
    assert err.splitlines() == ["error: dense coding needs D >= 2"]


@pytest.mark.parametrize("trials", ["10000000000000", "9223372036854775807"])
def test_dense_code_counts_any_c_long_trial_count(capsys, trials):
    # the counts come from their law, so no array grows with the trials
    code, report, err = run(capsys, ["dense-code", "--D", "8", "--lambdas2", ",".join(["0.125"] * 8),
                                     "--trials", trials])
    assert code == 0
    assert report["trials"] == sum(report["per_message_sent"]) == int(trials)
    assert report["per_message_successes"] == report["per_message_sent"]
    assert report["decode_errors"] == 0
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("trials", ["0", "-5", "9223372036854775808"])
def test_dense_code_rejects_trials_outside_a_c_long(capsys, trials):
    code, report, err = run(capsys, ["dense-code", "--D", "2", "--lambdas2", "0.8,0.2",
                                     f"--trials={trials}"])
    assert code == 1 and report is None
    assert err.splitlines() == ["error: --trials: must be in [1, 2^63 - 1]"]


def _descending_squares(values):
    squares = np.sort(values)[::-1]
    return ",".join(repr(float(v)) for v in squares / squares.sum())


@st.composite
def _dense_code_argv(draw):
    d = draw(st.integers(2, 5))
    lambdas2 = draw(st.one_of(
        st.lists(st.floats(0.01, 1.0), min_size=d, max_size=d).map(_descending_squares),
        st.lists(st.floats(-2.0, 2.0) | st.sampled_from([0.0, np.nan, np.inf, -np.inf]),
                 min_size=1, max_size=6).map(lambda v: ",".join(map(repr, v))),
        st.text("0123456789.,-+eEinfa ", max_size=16),
    ))
    trials = draw(st.integers(-3, 10**5) | st.integers(-(2**70), 2**70)
                  | st.sampled_from([0, 2**63 - 1, 2**63, 2**64]))
    seed = draw(st.integers(0, 2**32) | st.integers(-(2**70), 2**70) | st.sampled_from([-1, 2**64]))
    # the `--flag=value` form keeps argparse from reading "-0.5,..." as a flag
    return ["dense-code", f"--D={d}", f"--lambdas2={lambdas2}", f"--trials={trials}", f"--seed={seed}"]


def _fails_in_one_line(argv, report_exits=(0, 3)):
    """Run ``argv`` in-process and check the CLI contract: an exit code in
    {0, 1, 2, 3}, no warning, no traceback, exactly one stderr line, and a
    report on standard output exactly for the exit codes in ``report_exits``."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = dispatch(argv)
    assert code in (0, 1, 2, 3)
    assert not caught
    assert "Traceback" not in err.getvalue()
    assert len(err.getvalue().splitlines()) == 1
    assert bool(out.getvalue()) == (code in report_exits)


@given(_dense_code_argv())
def test_dense_code_flags_fail_in_one_line(argv):
    _fails_in_one_line(argv, report_exits=(0,))


@st.composite
def _verify_dc_documents(draw):
    """``(encoders, receiver, lambdas2)``: the optimal protocol's parts or
    random ones, of drawn counts and shapes, each scaled by a drawn factor."""
    squares = draw(st.sampled_from([[0.8, 0.2], [0.5, 0.3, 0.2]]))
    D = len(squares)
    prot = optimal_protocol(SharedState.from_squares(squares))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = st.sampled_from([D, D * D]) | st.integers(1, 10)
    scales = st.sampled_from([1.0, 0.5, 0.0, 1e-300, 1.0 + 1e-6, 2.0, 1e200])
    if draw(st.booleans()):
        encoders = prot.encoders
    else:
        shape = (draw(sizes), draw(sizes), draw(sizes))
        encoders = rand_complex(rng, shape) / np.sqrt(shape[1] * shape[2])
    if draw(st.booleans()):
        bob = optimal_receiver(prot)
    else:
        bob = rand_complex(rng, (draw(sizes), draw(sizes))) / D
    # "1", a rank-one state, fits no drawn document
    lambdas2 = draw(st.sampled_from([",".join(map(repr, squares)), "1"]))
    return draw(scales) * encoders, draw(scales) * bob, lambdas2


@given(_verify_dc_documents())
def test_verify_dc_documents_fail_in_one_line(documents):
    encoders, bob, lambdas2 = documents
    with tempfile.TemporaryDirectory() as tmp:
        _fails_in_one_line(["verify-dc", write(Path(tmp) / "enc.json", channel_to_doc(KrausChannel(encoders))),
                            write(Path(tmp) / "bob.json", matrix_to_doc(bob)), f"--lambdas2={lambdas2}"])


@st.composite
def _code_and_noise_documents(draw):
    """``(command, code document, noise)`` for ``kl-check`` or ``ec-prob``:
    an encoder with orthonormal columns or not, its logical dimension
    declared right or off by one, and noise on the physical space or on one
    dimension more or fewer, encoder and noise each scaled by a drawn factor."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 6))
    d = draw(st.integers(1, n))
    orthonormal = draw(st.sampled_from([True, True, False]))
    encoder = random_unitary(n, rng)[:, :d] if orthonormal else rand_complex(rng, (n, d))
    logical_dim = d + draw(st.sampled_from([0, 0, -1, 1]))
    in_dim = max(1, n + draw(st.sampled_from([0, 0, -1, 1])))
    k = draw(st.integers(1, 4))
    noise = rand_complex(rng, (k, draw(st.integers(1, n + 2)), in_dim)) / np.sqrt(2 * k * in_dim)
    scales = st.sampled_from([1.0, 1.0, 1.0, 0.0, 1e-300, 1e200])
    code = {"logical_dim": logical_dim, "encoder": matrix_to_doc(draw(scales) * encoder)}
    return draw(st.sampled_from(["kl-check", "ec-prob"])), code, draw(scales) * noise


@given(_code_and_noise_documents())
def test_code_and_noise_documents_fail_in_one_line(documents):
    command, code, noise = documents
    with tempfile.TemporaryDirectory() as tmp:
        _fails_in_one_line([command, write(Path(tmp) / "code.json", code),
                            write(Path(tmp) / "noise.json", channel_to_doc(KrausChannel(noise)))])


_SCALES = st.sampled_from([1.0, 1.0, 0.0, 1e-300, 1e200])


@st.composite
def _subspace_documents(draw):
    """``(command, operator document, v1, v2, env_in, env_out)`` for
    ``check-uum``, ``check-uuqc``, ``refine`` or ``to-ues``: a channel that
    certifies between random subspaces, or a random one, scaled by a drawn
    factor (its first element for ``check-uum``), with the right subspaces
    and legs, each subspace given or omitted; then at most one of them
    spoiled: a subspace made non-orthonormal, mis-shaped or absent, or a
    leg drawn from {0, 1, 2, 3}."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d, k = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    legs = [draw(st.integers(1, 3)), draw(st.integers(1, 3))]
    # an omitted subspace stands for the whole system space, of dimension d
    omitted = draw(st.sampled_from([(), (0,), (1,), (0, 1)]))
    dims = [d if side in omitted else d + draw(st.integers(0, 2)) for side in (0, 1)]
    if draw(st.booleans()):
        ch, _, _, v1, v2 = make_uuqc(rng, d, *dims, *legs, [0.8 / k] * k, with_noise=draw(st.booleans()))
        stack = ch.stack
    else:
        v1, v2 = (random_subspace(rng, dim, d) for dim in dims)
        stack = rand_complex(rng, (k, dims[1] * legs[1], dims[0] * legs[0])) / (3 * d * legs[0])
    subspaces = [None if side in omitted else v.columns for side, v in enumerate((v1, v2))]
    fault = draw(st.sampled_from([None, None, "subspace", "leg"]))
    side = draw(st.sampled_from([0, 1]))
    if fault == "subspace":
        v, dim = (v1, v2)[side], dims[side]
        subspaces[side] = draw(st.sampled_from([
            None, 1.5 * v.columns, rand_complex(rng, (dim, d)), random_unitary(dim + 1, rng)[:, :d],
            rand_complex(rng, (d, d + 1)), np.zeros((dim, 0))]))
    elif fault == "leg":
        legs[side] = draw(st.sampled_from([0, 1, 2, 3]))
    command = draw(st.sampled_from(["check-uum", "check-uuqc", "refine", "to-ues"]))
    scaled = draw(_SCALES) * stack
    doc = matrix_to_doc(scaled[0]) if command == "check-uum" else channel_to_doc(KrausChannel(scaled))
    return (command, doc, *subspaces, *legs)


@given(_subspace_documents())
def test_subspace_documents_fail_in_one_line(documents):
    command, doc, v1, v2, env_in, env_out = documents
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command, write(Path(tmp) / "op.json", doc), f"--env-in={env_in}", f"--env-out={env_out}"]
        for flag, v in (("--v1", v1), ("--v2", v2)):
            if v is not None:
                argv += [flag, write(Path(tmp) / f"{flag[2:]}.json", matrix_to_doc(v))]
        _fails_in_one_line(argv)


@st.composite
def _ket_documents(draw):
    """``(command, flags, ket)`` for ``schmidt`` or ``teleport``: a unit ket
    on drawn factors, product or entangled, scaled by a drawn factor;
    ``--dims`` right, swapped or wrong, and ``teleport``'s ``--d`` from 0 to 4."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a, b = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    coeff = rand_complex(rng, (a, b))
    if draw(st.booleans()):
        coeff = np.outer(coeff[:, 0], coeff[0])
    ket = draw(_SCALES) * coeff.reshape(-1) / np.linalg.norm(coeff)
    dims = draw(st.sampled_from([f"{a},{b}"] * 4 + [f"{b},{a}", f"{a},{b + 1}", "0,4", "-1,2", "2",
                                                    "2,2,2", "x,2", ""]))
    command = draw(st.sampled_from(["schmidt", "teleport"]))
    flags = [f"--dims={dims}"] + ([f"--d={draw(st.integers(0, 4))}"] if command == "teleport" else [])
    return command, flags, ket


@given(_ket_documents())
def test_ket_documents_fail_in_one_line(documents):
    command, flags, ket = documents
    with tempfile.TemporaryDirectory() as tmp:
        _fails_in_one_line([command, write(Path(tmp) / "ket.json", ket_to_doc(ket)), *flags])


@pytest.mark.parametrize("tol", ["inf", "nan", "-1"])
def test_tol_must_be_finite_and_nonnegative(capsys, tmp_path, tol):
    # a phase flip the repetition code cannot correct: tol = inf called it
    # correctable, NaN and negative values turned the input into a verdict
    code_file = write(tmp_path / "code.json", code_to_doc(repetition_code()))
    flip = KrausChannel((np.sqrt(0.7) * np.eye(8), np.sqrt(0.3) * single_qubit_on(np.diag([1.0, -1.0]), 0)))
    flip_file = write(tmp_path / "flip.json", channel_to_doc(flip))
    ch_file = write(tmp_path / "ch.json", channel_to_doc(KrausChannel((random_unitary(2, 3),))))
    assert run(capsys, ["kl-check", code_file, flip_file])[0] == 3
    assert run(capsys, ["check-uuqc", ch_file])[0] == 0
    for argv in (["kl-check", code_file, flip_file], ["check-uuqc", ch_file]):
        code, report, err = run(capsys, argv + ["--tol", tol])
        assert code == 1 and report is None, argv
        assert "--tol" in err


def test_check_uuqc_lists_per_element_floats(capsys, tmp_path):
    # a certified element, a zero-weight one and a non-factorable one
    u = random_unitary(2, 9)
    elems = (np.sqrt(0.5) * u, np.zeros((2, 2)), np.diag([0.5, 0.1]))
    ch_file = write(tmp_path / "ch.json", channel_to_doc(KrausChannel(elems)))
    code, report, _ = run(capsys, ["check-uuqc", ch_file])
    assert code == 3
    for key in ("per_element_probability", "per_element_residual"):
        assert len(report[key]) == 3
        assert all(type(v) is float for v in report[key]), key
    np.testing.assert_allclose(report["per_element_probability"], [0.5, 0.0, 0.13], atol=1e-12)


def test_invalid_inputs_exit_one(capsys, tmp_path):
    code, _, err = run(capsys, ["schmidt", str(tmp_path / "missing.json"), "--dims", "2,2"])
    assert code == 1 and "missing.json" in err

    broken = tmp_path / "broken.json"
    broken.write_text('{"rows": 2, "cols": 2, "data": [[1.0, 0.0]]}')
    code, _, err = run(capsys, ["schmidt", str(broken), "--dims", "2,2"])
    assert code == 1 and "data" in err

    code, _, _ = run(capsys, ["schmidt"])
    assert code == 1

    code, _, _ = run(capsys, ["no-such-command"])
    assert code == 1


def test_zero_environment_legs_exit_one(capsys, tmp_path):
    u_file = write(tmp_path / "u.json", matrix_to_doc(random_unitary(2, 4)))
    ch_file = write(tmp_path / "ch.json", channel_to_doc(KrausChannel((random_unitary(2, 4),))))
    for argv in (["check-uum", u_file, "--env-in", "0"], ["check-uum", u_file, "--env-out", "0"],
                 ["check-uuqc", ch_file, "--env-in", "0"]):
        code, report, err = run(capsys, argv)
        assert code == 1 and report is None, argv
        assert "--env-in/--env-out: must be >= 1" in err


def test_numerical_failure_exits_two(capsys, tmp_path, monkeypatch):
    # a library-level failure: the SVD does not converge
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    u_file = write(tmp_path / "u.json", matrix_to_doc(random_unitary(2, 4)))
    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    code, report, err = run(capsys, ["check-uum", u_file])
    assert code == 2 and report is None
    assert err.startswith("numerical failure:")


@pytest.mark.parametrize("message", [
    "", "Unable to allocate 121. GiB for an array with shape (90000, 300, 300) and data type complex128",
], ids=["bare", "numpy"])
def test_out_of_memory_exits_two_with_one_line(capsys, monkeypatch, message):
    # `dense-code --D 300` needs 121 GiB for the encoders; simulate the
    # failed allocation instead of attempting it
    def no_memory(state):
        raise MemoryError(message)

    monkeypatch.setattr(uuqc.densecode, "optimal_protocol", no_memory)
    code, report, err = run(capsys, ["dense-code", "--D", "2", "--lambdas2", "0.5,0.5"])
    assert code == 2 and report is None
    assert err == f"numerical failure: {message or 'MemoryError'}\n"


@pytest.mark.parametrize("command", ["refine", "to-ues"])
def test_refine_and_to_ues_certify_once(capsys, tmp_path, monkeypatch, command):
    # The subcommand calls certify_uuqc and then refine or uuqc_to_ues; the
    # certificate memo must let only the first of them certify.
    calls = []

    def counting(*args, **kwargs):
        calls.append(command)
        return certify(*args, **kwargs)

    certify = uuqc.unambiguous._certify_uuqc
    monkeypatch.setattr(uuqc.unambiguous, "_certify_uuqc", counting)
    u = random_unitary(2, 9)
    ch = KrausChannel((tensor_product(u, np.eye(2) / 2), tensor_product(u, np.eye(2) / 2)))
    ch_file = write(tmp_path / "ch.json", channel_to_doc(ch))
    code, report, _ = run(capsys, [command, ch_file, "--env-in", "2", "--env-out", "2"])
    assert code == 0 and report["is_uuqc"] and len(calls) == 1
    bad = write(tmp_path / "bad.json", channel_to_doc(KrausChannel((np.diag([1.0, 0.5]),))))
    code, report, _ = run(capsys, [command, bad])
    assert code == 3 and not report["is_uuqc"] and len(calls) == 2


def _subspace_cases():
    """``(elements, env_in, env_out)``: a channel that certifies on its
    environment legs, one that does not, a unitary with signed zeros, and a
    phased permutation with signed zeros on environment legs (3, 1)."""
    u = random_unitary(2, 9)
    t2 = np.array([[0.1, 0.5], [0.3, 0.2]])
    env = (np.sqrt(0.3) * np.eye(2) / np.sqrt(2), np.sqrt(0.5) * t2 / np.linalg.norm(t2))
    signed = np.array([[0.0, -1.0], [1.0, -0.0]]) + np.array([[-0.0, 0.0], [-0.0, 0.0]]) * 1j
    phased = np.eye(3) * np.array([1j, -1j, -1])
    return [([tensor_product(u, t) for t in env], 2, 2),
            (list(rand_complex(np.random.default_rng(4), (2, 3, 3)) / 3), 1, 1),
            ([signed], 1, 1),
            ([tensor_product(phased, np.array([[4.0, 1.0, 1.0]]) / np.sqrt(18))], 3, 1)]


@pytest.mark.parametrize("command", ["check-uum", "check-uuqc", "refine", "to-ues"])
def test_omitted_subspaces_match_identity_documents(capsys, tmp_path, command):
    for i, (elements, env_in, env_out) in enumerate(_subspace_cases()):
        doc = matrix_to_doc(elements[0]) if command == "check-uum" else channel_to_doc(KrausChannel(elements))
        argv = [command, write(tmp_path / f"in{i}.json", doc), f"--env-in={env_in}", f"--env-out={env_out}"]
        out_dim, in_dim = elements[0].shape
        eye1 = write(tmp_path / f"v1_{i}.json", matrix_to_doc(np.eye(in_dim // env_in)))
        eye2 = write(tmp_path / f"v2_{i}.json", matrix_to_doc(np.eye(out_dim // env_out)))
        outputs = []
        for flags in ([], ["--v1", eye1], ["--v2", eye2], ["--v1", eye1, "--v2", eye2]):
            code = dispatch(argv + flags)
            outputs.append((code, *capsys.readouterr()))
        assert outputs[1:] == outputs[:1] * 3, (command, i)


@pytest.mark.parametrize("text", ["NaN", "Infinity", "1e400", "1" + "0" * 400],
                         ids=["nan", "inf", "1e400", "int-1e400"])
def test_non_finite_documents_exit_one(capsys, tmp_path, text):
    # JSON NaN used to reach the SVD and exit 2; 1e400 also warned
    path = tmp_path / "m.json"
    path.write_text('{"rows": 2, "cols": 2, "data": [[%s, 0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]}' % text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, report, err = run(capsys, ["check-uum", str(path)])
    assert code == 1 and report is None
    assert not caught
    assert err.splitlines() == ["error: omega.data[0]: expected an [re, im] pair of finite numbers"]


def test_huge_integer_exits_one_without_traceback(tmp_path):
    path = tmp_path / "m.json"
    path.write_text('{"rows": 1, "cols": 1, "data": [[1%s, 0]]}' % ("0" * 400))
    src = os.path.dirname(os.path.dirname(uuqc.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-m", "uuqc", "check-uum", str(path)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "omega.data[0]" in proc.stderr


def test_closed_stdout_exits_one_without_traceback(tmp_path):
    path = write(tmp_path / "state.json", ket_to_doc(np.eye(20)[0]))
    src = os.path.dirname(os.path.dirname(uuqc.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    # The child starts with file descriptor 1 closed.
    proc = subprocess.run([sys.executable, "-m", "uuqc", "schmidt", path, "--dims", "4,5"],
                          stderr=subprocess.PIPE, text=True, env=env, timeout=60,
                          preexec_fn=lambda: os.close(1))
    assert proc.returncode == 1
    assert proc.stderr == "error: cannot write report: standard output is closed\n"


def test_json_booleans_exit_one(capsys, tmp_path):
    docs = {
        "rows.json": {"rows": True, "cols": 1, "data": [[1.0, 0.0]]},
        "cols.json": {"rows": 1, "cols": True, "data": [[1.0, 0.0]]},
        "data.json": {"rows": 1, "cols": 1, "data": [[True, 0.0]]},
    }
    for name, doc in docs.items():
        path = write(tmp_path / name, doc)
        code, report, err = run(capsys, ["check-uum", path])
        assert code == 1 and report is None, name
        assert "omega" in err
    ch_doc = {"in_dim": 1, "out_dim": 1, "elements": [docs["data.json"]]}
    code, report, err = run(capsys, ["check-uuqc", write(tmp_path / "ch.json", ch_doc)])
    assert code == 1 and "channel.elements[0].data[0]" in err


def test_seed_only_on_dense_code(capsys, tmp_path):
    # certification is deterministic, so only the Monte Carlo run takes a seed
    u_file = write(tmp_path / "u.json", channel_to_doc(KrausChannel((random_unitary(2, 3),))))
    for cmd in ("check-uuqc", "refine", "to-ues"):
        code, report, err = run(capsys, [cmd, u_file, "--seed", "1"])
        assert code == 1 and report is None, cmd
        assert "--seed" in err


def test_reports_byte_identical(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    argv = ["dense-code", "--D", "2", "--lambdas2", "0.8,0.2", "--trials", "20000",
            "--seed", "13", "--out"]
    assert dispatch(argv + [str(out1)]) == 0
    assert dispatch(argv + [str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()

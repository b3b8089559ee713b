import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import uuqc
from uuqc.channels import KrausChannel, maximally_entangled_ket
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

from builders import PAULI_X, repetition_code, single_qubit_on


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


def test_ec_prob(capsys, tmp_path):
    code_file = write(tmp_path / "triv.json", code_to_doc(CodeSpec(np.eye(2, dtype=complex))))
    noise = KrausChannel((np.diag([1.0, 0.8]).astype(complex),))
    noise_file = write(tmp_path / "noise.json", channel_to_doc(noise))
    code, report, _ = run(capsys, ["ec-prob", code_file, noise_file])
    assert code == 0
    assert report["probability"] == pytest.approx(0.64, abs=1e-9)
    assert report["method"] == "pure-exact"
    assert report["certainty_condition"] is False



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
    calls = []

    def counting(*args, **kwargs):
        calls.append(command)
        return certify(*args, **kwargs)

    certify = uuqc.unambiguous.certify_uuqc
    for module in (uuqc.unambiguous, uuqc.entanglement):
        monkeypatch.setattr(module, "certify_uuqc", counting)
    u = random_unitary(2, 9)
    ch = KrausChannel((tensor_product(u, np.eye(2) / 2), tensor_product(u, np.eye(2) / 2)))
    ch_file = write(tmp_path / "ch.json", channel_to_doc(ch))
    code, report, _ = run(capsys, [command, ch_file, "--env-in", "2", "--env-out", "2"])
    assert code == 0 and report["is_uuqc"] and len(calls) == 1
    bad = write(tmp_path / "bad.json", channel_to_doc(KrausChannel((np.diag([1.0, 0.5]),))))
    code, report, _ = run(capsys, [command, bad])
    assert code == 3 and not report["is_uuqc"] and len(calls) == 2


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

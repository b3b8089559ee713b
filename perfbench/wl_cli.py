"""The ``cli`` workload: one ``python -m uuqc <subcommand>`` per job, on
documents written at set-up.

A round runs thirteen jobs covering all ten subcommands.  Small documents
make a job's cost mostly interpreter start-up and the ``numpy`` import; the
48 x 48, six-element channel document (about 1 MB) makes ``check-uuqc`` and
``refine`` mostly JSON parsing and formatting; ``dense-code`` runs a million
Monte Carlo trials at D = 8.

The timed run starts each job as a subprocess and waits for it; the traced
run calls ``uuqc.cli.dispatch`` in-process with the same arguments.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys

import numpy as np

from common import (
    Job,
    channel_doc,
    close,
    code_doc,
    matrix_doc,
    phase_distance,
    rand_complex,
    random_split,
    random_unitary,
    tail_minimum,
    write_doc,
)
from wl_certify import _channel
from wl_qec import _mixed, _random_code, _syndromes

TOL = 1e-8
DENSE_D = 8
DENSE_TRIALS = 1_000_000
# The large channel: a 12-dimensional system with 4-dimensional environment
# legs, so in_dim = out_dim = 48, and six elements.
LARGE = (12, 4, 6)


def run_subprocess(argv, env) -> tuple:
    """Run ``python -m uuqc argv``; return its exit code and its own rusage."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "uuqc", *argv],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        env=env,
    )
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def run_in_process(argv) -> tuple:
    import uuqc.cli

    with contextlib.redirect_stderr(io.StringIO()):
        return uuqc.cli.dispatch(argv), None


def _job(runner, kind, argv, out_path, want_exit, check_report) -> Job:
    job = Job(kind, None, None)

    def run():
        code, usage = runner([*argv, "--out", out_path])
        if usage is not None:
            job.stats["rusage"] = usage
        return code

    def check(code):
        if code != want_exit:
            return [f"{kind}: exit {code}, expected {want_exit}"]
        if want_exit not in (0, 3):
            return []
        with open(out_path, encoding="utf-8") as fh:
            report = json.load(fh)
        # The next run of this job must write its own report.
        os.remove(out_path)
        return [f"{kind}: {c}" for c in check_report(report)]

    job.run, job.check = run, check
    return job


def _doc_matrix(doc) -> np.ndarray:
    data = np.array(doc["data"], dtype=float)
    return (data[:, 0] + 1j * data[:, 1]).reshape(doc["rows"], doc["cols"])


def _weyl(D: int) -> list:
    shift = np.roll(np.eye(D), 1, axis=0)
    clock = np.diag(np.exp(2j * np.pi * np.arange(D) / D))
    return [np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b)
            for a in range(D) for b in range(D)]


def build_round(rng, workdir: str, tag: str, runner) -> list:
    """Write one round's documents under ``workdir`` and return its jobs;
    ``runner(argv)`` runs one CLI call and returns (exit code, rusage)."""
    jobs = []

    def path(name):
        return os.path.join(workdir, f"{tag}-{name}")

    def doc(name, content):
        write_doc(path(name), content)
        return path(name)

    def add(kind, argv, want_exit, check_report):
        jobs.append(_job(runner, kind, argv, path(f"{len(jobs)}.out.json"), want_exit, check_report))

    # schmidt: a ket with known Schmidt coefficients.
    a, b = 4, 5
    coeffs = np.sort(rng.uniform(0.1, 1.0, a))[::-1]
    coeffs /= np.linalg.norm(coeffs)
    ket = (random_unitary(rng, a) * coeffs) @ random_unitary(rng, b)[:a, :]
    state = doc("schmidt.json", matrix_doc(ket.reshape(-1)))
    add("schmidt", ["schmidt", state, "--dims", f"{a},{b}"], 0,
        lambda r, coeffs=coeffs, a=a: [] if np.allclose(r["coefficients"], coeffs, atol=TOL) and r["rank"] == a
        else ["wrong coefficients"])

    # check-uum: one operator acting as a known unitary between subspaces.
    d, e_in, e_out = 3, 2, 2
    p = rng.uniform(0.2, 1.0)
    u = random_unitary(rng, d)
    (omega,), v1, v2 = _channel(rng, d, 5, 6, e_in, e_out, [p], [u])
    v1p, v2p = doc("uum-v1.json", matrix_doc(v1.columns)), doc("uum-v2.json", matrix_doc(v2.columns))
    legs = ["--env-in", str(e_in), "--env-out", str(e_out)]
    add("check-uum", ["check-uum", doc("uum.json", matrix_doc(omega)), "--v1", v1p, "--v2", v2p, *legs], 0,
        lambda r, p=p, u=u: [] if r["is_uum"] and close(r["probability"], p, TOL)
        and phase_distance(_doc_matrix(r["unitary"]), u) < 1e-6 else ["wrong certificate"])

    # check-uuqc, accepted and rejected, and to-ues on small channels.
    d, a_in, a_out, e_in, e_out, k = 4, 6, 8, 2, 2, 3
    q = rng.uniform(0.2, 1.0)
    u = random_unitary(rng, d)
    elems, v1, v2 = _channel(rng, d, a_in, a_out, e_in, e_out, random_split(rng, q, k), [u] * k)
    small = doc("small.json", channel_doc(elems))
    sub = ["--v1", doc("small-v1.json", matrix_doc(v1.columns)),
           "--v2", doc("small-v2.json", matrix_doc(v2.columns)),
           "--env-in", str(e_in), "--env-out", str(e_out)]
    add("check-uuqc", ["check-uuqc", small, *sub], 0,
        lambda r, q=q: [] if r["is_uuqc"] and close(r["total_probability"], q, TOL) else ["wrong verdict or q"])
    phi = np.kron(np.eye(d), u) @ (np.eye(d).reshape(-1) / np.sqrt(d))
    add("to-ues", ["to-ues", small, *sub], 0,
        lambda r, q=q, phi=phi: [] if close(r["success_weight"], q, TOL)
        and phase_distance(_doc_matrix(r["state"]).reshape(-1), phi) < 1e-6 else ["wrong weight or state"])
    bad_u = u @ random_unitary(rng, d)
    bad, v1, v2 = _channel(rng, d, a_in, a_out, e_in, e_out, random_split(rng, q, k), [u] * (k - 1) + [bad_u])
    sub = ["--v1", doc("bad-v1.json", matrix_doc(v1.columns)),
           "--v2", doc("bad-v2.json", matrix_doc(v2.columns)),
           "--env-in", str(e_in), "--env-out", str(e_out)]
    add("check-uuqc", ["check-uuqc", doc("mismatch.json", channel_doc(bad)), *sub], 3,
        lambda r: [] if not r["is_uuqc"] else ["accepted a mismatched channel"])

    # check-uuqc and refine on the large channel (full subspaces).
    d, e, k = LARGE
    q = rng.uniform(0.2, 1.0)
    u = random_unitary(rng, d)
    elems, _, _ = _channel(rng, d, d, d, e, e, random_split(rng, q, k), [u] * k)
    large = doc("large.json", channel_doc(elems))
    legs = ["--env-in", str(e), "--env-out", str(e)]
    add("check-uuqc-large", ["check-uuqc", large, *legs], 0,
        lambda r, q=q: [] if r["is_uuqc"] and close(r["total_probability"], q, TOL) else ["wrong verdict or q"])

    def refined(r, q=q, d=d, e=e):
        # Refined elements are w_ij U (x) |j><i| with sum w_ij^2 = q, so the
        # squared Frobenius norms add up to d * q.
        mass = sum(np.linalg.norm(_doc_matrix(m)) ** 2 for m in r["elements"])
        return [] if r["is_uuqc"] and close(mass, d * q, 1e-7) and r["in_dim"] == d * e else ["wrong refinement"]

    add("refine-large", ["refine", large, *legs], 0, refined)

    # teleport through a pure shared ket.
    d, (ta, tb) = 3, (4, 4)
    lam2 = np.sort(rng.uniform(0.05, 1.0, ta))[::-1]
    lam2 /= lam2.sum()
    shared = (random_unitary(rng, ta) * np.sqrt(lam2)) @ random_unitary(rng, tb)
    want_tele = d * tail_minimum(lam2, d)
    add("teleport", ["teleport", doc("shared.json", matrix_doc(shared.reshape(-1))),
                     "--dims", f"{ta},{tb}", "--d", str(d)], 0,
        lambda r: [] if close(r["probability"], want_tele, TOL) else ["wrong probability"])

    # kl-check on a correctable and on a random (non-correctable) set.
    code = _random_code(rng, 12, 3)
    code_path = doc("code.json", code_doc(code))
    errs, _ = _mixed(rng, _syndromes(rng, code, 4), random_split(rng, 1.0, 4), 5)
    add("kl-check", ["kl-check", code_path, doc("errors.json", channel_doc(errs))], 0,
        lambda r: [] if r["correctable"] else ["rejected a correctable set"])
    junk = [rand_complex(rng, (12, 12)) / 12 for _ in range(2)]
    add("kl-check", ["kl-check", code_path, doc("junk.json", channel_doc(junk))], 3,
        lambda r: [] if not r["correctable"] else ["accepted a non-correctable set"])

    # ec-prob on pure noise with known singular values on the code.
    s = np.sort(rng.uniform(0.2, 1.0, 3))[::-1]
    noise = (random_unitary(rng, 12)[:, :3] * s) @ random_unitary(rng, 3) @ code.conj().T
    want_ec = tail_minimum(s**2, 3)
    add("ec-prob", ["ec-prob", code_path, doc("noise.json", channel_doc([noise]))], 0,
        lambda r: [] if r["method"] == "pure-exact" and close(r["probability"], want_ec, TOL)
        else ["wrong exact probability"])

    # dense-code and verify-dc on a rank-8 shared state.
    D = DENSE_D
    lam2 = np.sort(rng.uniform(0.3, 1.0, D))[::-1]
    lam2 /= lam2.sum()
    lam2_text = ",".join(repr(float(x)) for x in lam2)
    cap = D * lam2[-1]
    seed = int(rng.integers(2**31))

    def dense(r):
        sigma = np.sqrt(cap * (1 - cap) / DENSE_TRIALS)
        causes = []
        if r["decode_errors"] != 0:
            causes.append("decode errors")
        if not close(r["capacity"], cap, 1e-12) or abs(r["pooled_rate"] - cap) > 5 * sigma:
            causes.append("pooled rate not within 5 sigma of the capacity")
        return causes

    add("dense-code", ["dense-code", "--D", str(D), "--lambdas2", lam2_text,
                       "--trials", str(DENSE_TRIALS), "--seed", str(seed)], 0, dense)
    encoders = _weyl(D)
    phi = np.eye(D).reshape(-1) / np.sqrt(D)
    basis = np.column_stack([np.kron(np.eye(D), a) @ phi for a in encoders])
    lam = np.sqrt(lam2)
    bob = basis.conj().T @ np.kron(np.diag(lam[-1] / lam), np.eye(D))
    add("verify-dc", ["verify-dc", doc("encoders.json", channel_doc(encoders)), doc("bob.json", matrix_doc(bob)),
                      "--lambdas2", lam2_text], 0,
        lambda r: [] if r["form_holds"] and close(r["success_probability"], cap, TOL) else ["wrong bound report"])

    return [jobs[i] for i in rng.permutation(len(jobs))]

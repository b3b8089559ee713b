"""The ``qec`` workload: Knill-Laflamme checks, standard recovery,
certification of recover-after-noise composites and the unambiguous
correction probability, on codes and noise whose answers are known by
construction.

A round is a fixed list of job kinds and code sizes; the seed draws the
codes, the syndrome weights, the mixing of the error elements, the noise
and the order of the jobs.
"""

from __future__ import annotations

import numpy as np

import uuqc
from common import Job, close, rand_complex, random_split, random_unitary, tail_minimum

TOL = 1e-8
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _on_qubit(op, wire: int, n: int) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for k in range(n):
        out = np.kron(out, op if k == wire else np.eye(2))
    return out


def _repetition(n: int) -> np.ndarray:
    enc = np.zeros((2**n, 2), dtype=complex)
    enc[0, 0] = enc[-1, 1] = 1.0
    return enc


def _syndromes(rng, code, m, n_qubits=None):
    """``m`` operators whose code-space actions ``B_j C^dag`` land on mutually
    orthogonal ``d``-dimensional spaces, the first being the code itself.

    Repetition codes use the identity and single bit flips.  Random codes
    use a random basis of the physical space cut into ``d``-column blocks,
    rotated inside each block, plus a random map on the code complement."""
    n, d = code.shape
    if n_qubits is not None:
        return [np.eye(n, dtype=complex)] + [_on_qubit(X, k, n_qubits) for k in range(m - 1)]
    q = random_unitary(rng, n)
    q[:, :d] = code
    q, _ = np.linalg.qr(q)
    # QR keeps the span of the leading columns, so block 0 spans the code.
    out_of_code = np.eye(n) - code @ code.conj().T
    ops = []
    for j in range(m):
        block = q[:, j * d:(j + 1) * d]
        if j == 0:
            block = code
        block = block @ random_unitary(rng, d)
        ops.append(block @ code.conj().T + 0.2 * rand_complex(rng, (n, n)) @ out_of_code)
    return ops


def _mixed(rng, ops, lambdas, k):
    """``K`` error elements ``E_k = sum_j u_kj sqrt(lambda_j) F_j`` for a
    ``K x m`` isometry ``u``: correctable, with overlap matrix ``conj(u)
    diag(lambda) u^T``."""
    u = random_unitary(rng, k)[:, : len(ops)]
    elems = [sum(u[r, j] * np.sqrt(lam) * f for j, (lam, f) in enumerate(zip(lambdas, ops)))
             for r in range(k)]
    return elems, np.conj(u) @ np.diag(lambdas) @ u.T


def _random_code(rng, n, d):
    return random_unitary(rng, n)[:, :d]


def correctable_job(rng, code, m, k, n_qubits=None) -> Job:
    spec = uuqc.CodeSpec(code)
    lambdas = random_split(rng, 1.0, m)
    elems, h_want = _mixed(rng, _syndromes(rng, code, m, n_qubits), lambdas, k)
    errors = uuqc.KrausChannel(tuple(elems))

    def run():
        kl = uuqc.kl_check(spec, errors)
        recovery = uuqc.standard_recovery(spec, errors)
        return kl, uuqc.verify_correction_uuqc(spec, errors, recovery)

    def check(out):
        kl, report = out
        causes = []
        if not kl.correctable:
            causes.append("kl_check: correctable set rejected")
        elif np.linalg.norm(kl.h - h_want) > 1e-8:
            causes.append("kl_check: wrong overlap matrix")
        if not report.certificate.is_uuqc:
            causes.append("verify_correction_uuqc: composite not certified")
        if not close(report.identity_probability, 1.0, TOL):
            causes.append("verify_correction_uuqc: identity_probability != 1")
        return causes

    return Job("correctable", run, check)


def pure_noise_job(rng, code, isometric: bool) -> Job:
    """A single noise element whose code-space action ``W diag(s) V^dag C^dag``
    has known singular values ``s``; the Choi state is pure."""
    n, d = code.shape
    spec = uuqc.CodeSpec(code)
    s = np.full(d, rng.uniform(0.5, 1.0)) if isometric else np.sort(rng.uniform(0.2, 1.0, d))[::-1]
    w = random_unitary(rng, n)[:, :d]
    e = (w * s) @ random_unitary(rng, d) @ code.conj().T
    e = e + 0.2 * rand_complex(rng, (n, n)) @ (np.eye(n) - code @ code.conj().T)
    noise = uuqc.KrausChannel((e,))
    want = tail_minimum(s**2, d)

    def run():
        return (uuqc.unambiguous_correction_probability(spec, noise),
                uuqc.meets_certainty_condition(spec, noise))

    def check(out):
        (prob, method), certain = out
        causes = []
        if method != "pure-exact":
            causes.append(f"ec-prob: pure noise tagged {method}")
        elif not close(prob, want, TOL):
            causes.append("ec-prob: exact probability != closed form")
        if certain != isometric:
            causes.append("meets_certainty_condition: wrong verdict")
        return causes

    return Job("pure-noise", run, check)


def mixed_noise_job(rng) -> Job:
    """Trace-preserving bit-flip noise ``p0 I + sum p_k X_k`` on the 3-qubit
    repetition code: correctable, with a mixed Choi state, so ``ec-prob``
    takes the filter-search lower bound."""
    code = _repetition(3)
    spec = uuqc.CodeSpec(code)
    p = np.concatenate([[rng.uniform(0.6, 0.8)], [0.0] * 3])
    p[1:] = random_split(rng, 1.0 - p[0], 3)
    ops = [np.eye(8)] + [_on_qubit(X, k, 3) for k in range(3)]
    noise = uuqc.KrausChannel(tuple(np.sqrt(pk) * op for pk, op in zip(p, ops)))
    job = Job("mixed-noise", None, None)

    def run():
        prob, method = uuqc.unambiguous_correction_probability(spec, noise)
        certain = uuqc.meets_certainty_condition(spec, noise)
        recovery = uuqc.standard_recovery(spec, noise)
        report = uuqc.verify_correction_uuqc(spec, noise, recovery)
        return prob, method, certain, report

    def check(out):
        prob, method, certain, report = out
        causes = []
        if method != "filter-lower-bound":
            causes.append(f"ec-prob: mixed noise tagged {method}")
        # Only the bound's range is checked: the Choi weight is 1 for
        # trace-preserving noise, and a tighter bound is not a failure.
        if not -TOL <= prob <= 1.0 + TOL:
            causes.append("ec-prob: lower bound outside [0, Choi weight]")
        if certain:
            causes.append("meets_certainty_condition: true on a mixed Choi state")
        if not close(report.identity_probability, 1.0, TOL):
            causes.append("verify_correction_uuqc: identity_probability != 1")
        job.stats["bound_gap"] = report.identity_probability - prob
        return causes

    job.run, job.check = run, check
    return job


def uncorrectable_job(rng, code, repetition: bool) -> Job:
    """Errors that violate Knill-Laflamme: a phase flip on the repetition
    code, or generic random elements on a random code."""
    n = code.shape[0]
    spec = uuqc.CodeSpec(code)
    if repetition:
        a = rng.uniform(0.3, 0.9)
        elems = (np.sqrt(a) * np.eye(n), np.sqrt(1 - a) * _on_qubit(Z, int(rng.integers(3)), 3))
    else:
        elems = tuple(rand_complex(rng, (n, n)) / n for _ in range(2))
    errors = uuqc.KrausChannel(elems)

    def run():
        kl = uuqc.kl_check(spec, errors)
        try:
            uuqc.standard_recovery(spec, errors)
        except ValueError:
            return kl, True
        return kl, False

    def check(out):
        kl, raised = out
        causes = []
        if kl.correctable:
            causes.append("kl_check: accepted a non-correctable set")
        if not raised:
            causes.append("standard_recovery: no ValueError on a non-correctable set")
        return causes

    return Job("uncorrectable", run, check)


# Fast jobs per filter-search job in a round: the search takes about half
# of a round's time, and its share of jobs (0.5%) stays below the 1% tail.
FAST_REPEAT = 15


def _fast_jobs(rng) -> list:
    rep3, rep5 = _repetition(3), _repetition(5)
    return [
        correctable_job(rng, rep3, 4, 4, n_qubits=3),
        correctable_job(rng, rep3, 4, 6, n_qubits=3),
        correctable_job(rng, rep5, 6, 6, n_qubits=5),
        correctable_job(rng, _random_code(rng, 8, 2), 4, 5),
        correctable_job(rng, _random_code(rng, 12, 3), 4, 6),
        correctable_job(rng, _random_code(rng, 16, 2), 6, 6),
        correctable_job(rng, _random_code(rng, 16, 3), 5, 7),
        pure_noise_job(rng, rep3, True),
        pure_noise_job(rng, rep5, False),
        pure_noise_job(rng, _random_code(rng, 16, 3), False),
        pure_noise_job(rng, _random_code(rng, 10, 2), True),
        uncorrectable_job(rng, rep3, True),
        uncorrectable_job(rng, _random_code(rng, 12, 3), False),
    ]


def build_round(rng) -> list:
    jobs = [mixed_noise_job(rng)]
    for _ in range(FAST_REPEAT):
        jobs += _fast_jobs(rng)
    return [jobs[i] for i in rng.permutation(len(jobs))]

"""The ``certify`` workload: certification, refinement and the channel/state
equivalence on channels whose verdict is known by construction, plus
teleportation jobs.

A round is a fixed table of job shapes; the seed draws every matrix,
probability, mismatch distance and the order of the jobs within a round.
Fixing the shapes keeps the cost of a round nearly independent of the seed,
so throughput differences between runs come from the program, not the draw.
"""

from __future__ import annotations

import numpy as np

import uuqc
from common import (
    Job,
    choi_oracle,
    close,
    phase_distance,
    rand_complex,
    random_split,
    random_unitary,
    scaled,
    stacked_gram_max,
    tail_minimum,
)

# (d, ambient_in, ambient_out, env_in, env_out, K) of the channels that
# certify.  The product d * ambient * env stays <= 256 on both sides, which
# keeps one uuqc_to_ues call under about a quarter second; choi_state runs
# when ambient_in * env_in <= 24.  The heaviest shape (a 20-dimensional
# choi_state) appears twice, 8% of a round, so the p95 tail falls inside its
# cluster of latencies rather than at the edge of one.
CERTIFIED = [
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
    (8, 10, 16, 2, 2, 6),
    (8, 16, 16, 2, 2, 8),
    (16, 16, 16, 1, 1, 1),
    (16, 16, 16, 1, 1, 4),
]
# (cause, d, ambient_in, ambient_out, env_in, env_out, K) of the channels
# that must be rejected.
REJECTED = [
    ("mismatch", 2, 4, 4, 2, 2, 3),
    ("mismatch", 8, 12, 16, 1, 2, 4),
    ("nonfactorable", 4, 8, 8, 2, 2, 2),
    ("nonfactorable", 2, 2, 2, 1, 1, 3),
    ("zero-weight", 4, 8, 8, 2, 1, 3),
    ("zero-weight", 16, 16, 16, 1, 1, 2),
]
# Teleportation dimension d, pure shared-state factor dims, mixed-state
# factor dims (the exhaustive sweep is limited to factors <= 4).
TELEPORT = [(2, (2, 3), (2, 3)), (3, (4, 3), (3, 4)), (4, (6, 5), (4, 4)), (8, (8, 9), (3, 2))]

CHOI_MAX_IN = 24
TOL = 1e-8


def _frame(rng, ambient: int, d: int):
    """Random orthonormal basis of the ambient space: the first ``d``
    columns span the subspace, the rest its complement."""
    q = random_unitary(rng, ambient)
    return q[:, :d], q[:, d:]


def _channel(rng, d, a_in, a_out, e_in, e_out, probs, unitaries):
    """Elements ``V2 U_k V1^dag (x) theta_k`` plus parts invisible to the
    certification: maps from the input complement and maps into the output
    complement."""
    v1, c1 = _frame(rng, a_in, d)
    v2, c2 = _frame(rng, a_out, d)
    elems = []
    for p, u in zip(probs, unitaries):
        e = np.kron(v2 @ u @ v1.conj().T, scaled(rng, (e_out, e_in), p))
        if c2.shape[1]:
            w = c2 @ rand_complex(rng, (c2.shape[1], d)) @ v1.conj().T
            e = e + 0.3 * np.kron(w, rand_complex(rng, (e_out, e_in)))
        if c1.shape[1]:
            w = rand_complex(rng, (a_out, c1.shape[1])) @ c1.conj().T
            e = e + 0.3 * np.kron(w, rand_complex(rng, (e_out, e_in)))
        elems.append(e)
    return elems, uuqc.SubspaceIsometry(v1), uuqc.SubspaceIsometry(v2)


def _physical_causes(rep, elems) -> list:
    want = stacked_gram_max(elems)
    if not close(rep.max_eigenvalue, want, 1e-8 * max(1.0, want)):
        return ["is_physical: max eigenvalue"]
    if rep.physical != (want <= 1.0 + 1e-9):
        return ["is_physical: verdict"]
    return []


def _cert_causes(cert, q, u, what: str) -> list:
    if not cert.is_uuqc:
        return [f"{what}: not certified"]
    causes = []
    if not close(cert.total_probability, q, TOL):
        causes.append(f"{what}: wrong q")
    if phase_distance(cert.unitary, u) > 1e-6:
        causes.append(f"{what}: wrong unitary")
    return causes


def certified_job(rng, shape) -> Job:
    d, a_in, a_out, e_in, e_out, k = shape
    q = rng.uniform(0.2, 1.0)
    u = random_unitary(rng, d)
    probs = random_split(rng, q, k)
    elems, v1, v2 = _channel(rng, d, a_in, a_out, e_in, e_out, probs, [u] * k)
    ch = uuqc.KrausChannel(tuple(elems))
    legs = (e_in, e_out)
    with_choi = a_in * e_in <= CHOI_MAX_IN

    def run():
        phys = uuqc.is_physical(ch)
        cert = uuqc.certify_uuqc(ch, v1, v2, *legs)
        refined = uuqc.refine(ch, v1, v2, *legs)
        recert = uuqc.certify_uuqc(refined, v1, v2, *legs)
        weight, ket = uuqc.uuqc_to_ues(ch, v1, v2, *legs)
        choi = uuqc.choi_state(ch) if with_choi else None
        return phys, cert, recert, weight, ket, choi

    def check(out):
        phys, cert, recert, weight, ket, choi = out
        causes = _physical_causes(phys, elems)
        causes += _cert_causes(cert, q, u, "certify_uuqc")
        causes += _cert_causes(recert, q, u, "refine")
        if not close(weight, q, TOL):
            causes.append("uuqc_to_ues: weight != q")
        want = np.kron(np.eye(d), u) @ (np.eye(d).reshape(-1) / np.sqrt(d))
        if phase_distance(ket, want) > 1e-6:
            causes.append("uuqc_to_ues: ket != (I x U)|phi>")
        if choi is not None:
            ref = choi_oracle(elems)
            if np.linalg.norm(choi - ref) > 1e-9 * max(1.0, np.linalg.norm(ref)):
                causes.append("choi_state: mismatch")
        return causes

    return Job("certified", run, check)


def rejected_job(rng, spec) -> Job:
    cause, d, a_in, a_out, e_in, e_out, k = spec
    u = random_unitary(rng, d)
    # A zero-weight channel keeps only the parts outside the subspaces.
    probs = np.zeros(k) if cause == "zero-weight" else random_split(rng, rng.uniform(0.2, 1.0), k)
    unitaries = [u] * k
    if cause == "mismatch":
        # One element implements a unitary a log-uniform distance away.
        h = rand_complex(rng, (d, d))
        h = (h + h.conj().T) / np.linalg.norm(h + h.conj().T)
        dist = 10 ** rng.uniform(-6, 0)
        w, vecs = np.linalg.eigh(h)
        unitaries[-1] = u @ (vecs * np.exp(1j * dist * w)) @ vecs.conj().T
    elems, v1, v2 = _channel(rng, d, a_in, a_out, e_in, e_out, probs, unitaries)
    if cause == "nonfactorable":
        # A second system operator, log-uniformly weighted, on an independent
        # environment factor breaks the tensor-product form of one element.
        eps = 10 ** rng.uniform(-3, 0)
        w = v2.columns @ rand_complex(rng, (d, d)) @ v1.columns.conj().T
        elems[0] = elems[0] + eps * np.kron(w, scaled(rng, (e_out, e_in), probs[0]))
    ch = uuqc.KrausChannel(tuple(elems))

    def run():
        return uuqc.is_physical(ch), uuqc.certify_uuqc(ch, v1, v2, e_in, e_out)

    def check(out):
        phys, cert = out
        causes = _physical_causes(phys, elems)
        if cert.is_uuqc:
            causes.append(f"certify_uuqc: accepted a {cause} channel")
        if cause == "zero-weight" and cert.total_probability > TOL:
            causes.append("certify_uuqc: zero-weight channel with q > 0")
        return causes

    return Job(cause, run, check)


def teleport_job(rng, spec) -> Job:
    d, (pa, pb), (ma, mb) = spec
    r = min(pa, pb)
    lam2 = np.sort(rng.uniform(0.05, 1.0, size=r))[::-1]
    lam2 /= lam2.sum()
    shared = (random_unitary(rng, pa)[:, :r] * np.sqrt(lam2)) @ random_unitary(rng, pb)[:r, :]
    shared = shared.reshape(-1)
    rho, nonzero = _mixed_shared(rng, ma, mb)

    def run():
        cert = uuqc.certify_uuqc(uuqc.ues_to_uuqc(d))
        tele = uuqc.teleport_probability_pure(shared, pa, pb, d)
        mixed = uuqc.search_mixed_nonzero(rho, ma, mb, 2)
        return cert, tele, mixed

    def check(out):
        cert, tele, mixed = out
        causes = _cert_causes(cert, 1.0, np.eye(d), "ues_to_uuqc")
        if not close(tele.probability, d * tail_minimum(lam2, d), TOL):
            causes.append("teleport_probability_pure: wrong probability")
        if nonzero and not 0.0 < mixed.probability <= 1.0 + TOL:
            causes.append("search_mixed_nonzero: missed the witness")
        if not nonzero and mixed.probability != 0.0:
            causes.append("search_mixed_nonzero: witness on a product state")
        return causes

    return Job("teleport", run, check)


def _mixed_shared(rng, ma, mb):
    """A mixed state on ``ma x mb``: either a rank-2 entangled ket on a
    random 2x2 block of basis states plus diagonal noise on basis states
    outside that block (a witness exists), or a product of mixed states (no
    basis-subspace projection can have Schmidt rank 2)."""
    if rng.uniform() < 0.5:
        ra = rng.standard_normal((ma, ma))
        rb = rng.standard_normal((mb, mb))
        rho = np.kron(ra @ ra.T, rb @ rb.T).astype(complex)
        return rho / np.trace(rho).real, False
    ia = rng.choice(ma, 2, replace=False)
    ib = rng.choice(mb, 2, replace=False)
    coeff = np.zeros((ma, mb), dtype=complex)
    coeff[np.ix_(ia, ib)] = random_unitary(rng, 2) * [0.8, 0.6]
    psi = coeff.reshape(-1)
    noise = rng.uniform(size=ma * mb)
    inside = np.zeros((ma, mb), dtype=bool)
    inside[np.ix_(ia, ib)] = True
    noise[inside.reshape(-1)] = 0.0
    w = rng.uniform(0.3, 0.9)
    rho = w * np.outer(psi, psi.conj()) + (1 - w) * np.diag(noise / noise.sum())
    return rho, True


def build_round(rng) -> list:
    jobs = [certified_job(rng, s) for s in CERTIFIED]
    jobs += [rejected_job(rng, s) for s in REJECTED]
    jobs += [teleport_job(rng, s) for s in TELEPORT]
    return [jobs[i] for i in rng.permutation(len(jobs))]

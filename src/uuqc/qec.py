"""Error correction viewed as a probability-one unambiguous unitary channel.

The composite recover-after-noise operation restricted to the code space is
a probabilistic identity; demanding unit probability reproduces the
Knill-Laflamme correctability condition ``P E_j^dag E_i P = h_ji P``.
Demanding only a *nonzero* probability leads through the channel's Choi
state: the error is correctable with probability ``p`` exactly when the
canonical entangled ket can be distilled from that state with probability
``p`` by operations on the noisy half alone, and correctable with certainty
only when the (pure) Choi state already is a uniformly entangled state.
For a mixed Choi state the distillable probability is bounded from below
by an instrument on the noisy half that separates the state's eigen-branches
and distils each at the pure-state optimum; the bound is exact on
Knill-Laflamme-correctable noise.

Every verdict reads the noise once, as the stacked blocks ``E_k C``
(``_code_blocks``), and none builds the ``(d n) x (d n)`` Choi matrix that
``noise_choi_state`` shows.  ``kl_check`` and ``standard_recovery`` each run
the Knill-Laflamme step (``_kl_step``); the probability and the certainty
condition each run the Choi eigen-branch step (``_ec_step``), and
``uuqc ec-prob`` runs it once for both.  No step is remembered.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import KrausChannel, _choi_vectors, choi_state
from .entanglement import _is_flat, _vidal_optimum
from .linalg import DEFAULT_TOL, VALIDATION_TOL, SubspaceIsometry, dagger
from .unambiguous import UuqcCertificate, _certify_stack, _phase_distance

__all__ = [
    "CodeSpec",
    "KlReport",
    "CorrectionReport",
    "kl_check",
    "diagonalize_errors",
    "standard_recovery",
    "verify_correction_uuqc",
    "unambiguous_correction_probability",
    "noise_choi_state",
    "meets_certainty_condition",
]


@dataclass(frozen=True, eq=False)
class CodeSpec:
    """A code given by its encoding isometry ``encoder`` (n_phys x d)."""

    encoder: np.ndarray

    def __post_init__(self):
        # The isometry checks the shape and orthonormality and keeps a read-only copy.
        object.__setattr__(self, "encoder", SubspaceIsometry(self.encoder).columns)

    @property
    def logical_dim(self) -> int:
        return self.encoder.shape[1]

    @property
    def physical_dim(self) -> int:
        return self.encoder.shape[0]


@dataclass(frozen=True, eq=False)
class KlReport:
    """Knill-Laflamme verdict: the overlap matrix ``h`` and the worst
    deviation of ``P E_j^dag E_i P`` from ``h_ji P``."""

    correctable: bool
    h: np.ndarray
    residual: float


@dataclass(frozen=True)
class CorrectionReport:
    """Certification of a recover-after-noise composite on the code space.

    ``identity_probability`` counts the weight of the Kraus elements, of any
    probability, that factor within ``tol`` with a unitary ``U`` satisfying
    ``min_phi ||U - e^{i phi} I||_F <= tol``; it is the probability that the
    composite provably acts as the logical identity, and ``fully_corrected``
    that it is within ``tol`` of one on a certified composite, whose
    certificate is kept alongside for inspection.
    """

    certificate: UuqcCertificate
    identity_probability: float
    fully_corrected: bool


def _code_blocks(code: CodeSpec, noise: KrausChannel) -> np.ndarray:
    """The ``(K, out, d)`` stack ``E_k C``, ``out`` any dimension: the one read of the noise."""
    if noise.in_dim != code.physical_dim:
        raise ValueError("noise must act on the physical space")
    return noise.stack @ code.encoder


def kl_check(code: CodeSpec, errors: KrausChannel, tol: float = DEFAULT_TOL) -> KlReport:
    """Test ``P E_j^dag E_i P = h_ji P`` on the code projector.

    ``h_ji = Tr(P E_j^dag E_i P) / d``; the residual is the largest Frobenius
    deviation over element pairs, evaluated on the logical blocks
    ``(E_j C)^dag E_i C`` (an isometry-invariant, hence identical, norm).
    ``h`` comes back Hermitian and positive semidefinite for correctable
    sets, with unit trace when the noise is trace-preserving.  Each call
    runs the check; ``standard_recovery`` runs it again.
    """
    return _kl_step(code, errors, tol)[1]


def _kl_step(code: CodeSpec, errors: KrausChannel, tol: float) -> tuple:
    """The ``(K, out, d)`` stack ``E_k C`` and its ``KlReport``, one row of
    block products ``(E_j C)^dag E_i C`` at a time."""
    blocks = _code_blocks(code, errors)
    n, _, d = blocks.shape
    h = np.empty((n, n), dtype=complex)
    deviation = np.empty((n, n))
    eye = np.eye(d)
    for j in range(n):
        row = dagger(blocks[j]) @ blocks
        h[j] = hj = np.trace(row, axis1=1, axis2=2) / d
        off = (row - hj[:, None, None] * eye).reshape(n, 1, d * d)
        # Each deviation as ``frobenius`` takes it: re.re + im.im, two (1 x m) @ (m x 1) dot products.
        re, im = off.real, off.imag
        deviation[j] = np.sqrt(re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2)).ravel()
    # The array maximum, unlike the builtin one, keeps a NaN deviation.
    residual = float(deviation.max())
    return blocks, KlReport(correctable=residual <= tol, h=h, residual=residual)


def diagonalize_errors(report: KlReport, errors: KrausChannel) -> KrausChannel:
    """Remix the error elements so the overlap matrix becomes diagonal.

    The new elements are combinations by the eigenvectors of ``h``; the remix
    matrix is unitary, so the quantum operation is unchanged while re-running
    the correctability check yields a diagonal ``h`` with the same spectrum.
    """
    if not report.correctable:
        raise ValueError("cannot diagonalize a non-correctable error set")
    _, vecs = np.linalg.eigh(report.h)
    # F_m = sum_i vecs[i, m] E_i
    return KrausChannel(np.tensordot(vecs, errors.stack, axes=(0, 0)))


def standard_recovery(code: CodeSpec, errors: KrausChannel, tol: float = DEFAULT_TOL) -> KrausChannel:
    """Measure-and-rotate recovery for a correctable error set.

    After diagonalizing the overlap matrix, each surviving error sends the
    code space isometrically onto a mutually orthogonal corrupted space; the
    recovery elements project onto those spaces and rotate them back.  The
    result is trace-decreasing when the corrupted spaces do not fill the
    noise's output space, which is fine for unambiguous bookkeeping.  It
    runs the Knill-Laflamme check itself, on its own read of the noise.
    """
    blocks, report = _kl_step(code, errors, tol)
    if not report.correctable:
        raise ValueError("error set is not correctable on this code")
    blocks = diagonalize_errors(report, KrausChannel(blocks)).stack
    # lambda_m = ||F_m C||^2 / d, the diagonal of the remixed overlap matrix
    lambdas = np.sum(np.abs(blocks) ** 2, axis=(1, 2)) / code.logical_dim
    keep = lambdas > tol
    if not np.any(keep):
        raise ValueError("no correctable syndromes with positive weight")
    # R_m = C (F_m C / sqrt(lambda_m))^dag for every kept syndrome at once
    corrupted = blocks[keep] / np.sqrt(lambdas[keep])[:, None, None]
    return KrausChannel(code.encoder @ corrupted.conj().swapaxes(1, 2))


def verify_correction_uuqc(
    code: CodeSpec,
    errors: KrausChannel,
    recovery: KrausChannel,
    tol: float = DEFAULT_TOL,
) -> CorrectionReport:
    """Certify encode-noise-recover as a probabilistic logical identity.

    The composite is read on the code space only, as the ``d x d`` blocks
    ``C^dag R_m E_k C`` (noise index slow) of a channel on the logical
    space.  The identity-consistent probability is one exactly when the
    recovery corrects the noise completely.  A composite that weighs more
    than ``1 + VALIDATION_TOL`` on the code space raises ``ValueError``.
    """
    if recovery.out_dim != code.physical_dim:
        raise ValueError("recovery must map back into the physical space")
    blocks = _code_blocks(code, errors)
    if recovery.in_dim != errors.out_dim:
        raise ValueError(f"recovery input dimension {recovery.in_dim} differs from "
                         f"the noise output dimension {errors.out_dim}")
    d = code.logical_dim
    logical = ((dagger(code.encoder) @ recovery.stack)[None] @ blocks[:, None]).reshape(-1, d, d)
    _refuse_trace_increase(logical, "recovery after noise", "sum_mk (C^dag R_m E_k C)^dag C^dag R_m E_k C")
    cert = _certify_stack(logical, d, 1, 1, tol)
    per = cert.per_element
    # Elements that factorize with U = I count at any probability, as in certify_uuqc.
    counted = (per.residual <= tol) & (per.unitarity_deviation <= tol)
    q_id = float(np.sum(per.probability[counted & (_phase_distance(per.unitary, np.eye(d)) <= tol)]))
    return CorrectionReport(cert, q_id, cert.is_uuqc and abs(q_id - 1.0) <= tol)


def _refuse_trace_increase(blocks: np.ndarray, name: str, gram: str) -> None:
    """Refuse, by ``name``, ``blocks`` whose summed Gram ``gram`` has ``lambda_max > 1 + VALIDATION_TOL``."""
    stacked = blocks.reshape(-1, blocks.shape[-1])
    top = np.linalg.eigvalsh(dagger(stacked) @ stacked)[-1]
    if top > 1.0 + VALIDATION_TOL:
        raise ValueError(f"{name} must not increase the trace on the code space: "
                         f"lambda_max({gram}) = {top:.9g} > 1")


def noise_choi_state(code: CodeSpec, noise: KrausChannel) -> np.ndarray:
    """Unnormalized Choi state of encode-then-noise with a logical reference,
    for inspection: the verdicts below never build it."""
    return choi_state(KrausChannel(_code_blocks(code, noise)))


def meets_certainty_condition(code: CodeSpec, noise: KrausChannel, tol: float = DEFAULT_TOL) -> bool:
    """Necessary condition for correction with certainty: the normalized
    Choi state of encode-then-noise is a rank-``d`` uniformly entangled ket.

    Meaningful as stated for pure Choi states (isometric or filtered noise);
    a mixed Choi state fails it.  It runs the probability's step.
    """
    return _ec_step(code, noise, tol)[2]


def unambiguous_correction_probability(code: CodeSpec, noise: KrausChannel, tol: float = DEFAULT_TOL):
    """Probability that the noise on this code is unambiguously correctable.

    Reads the unnormalized Choi state of encode-then-noise as its
    eigen-branches.  A branch converts to the canonical entangled ket with
    Vidal's optimum of its Schmidt values, 0 if its ``d``-th is at most
    ``tol``; a pure state's weight times it is exact, method
    ``"pure-exact"``.  ``meets_certainty_condition`` runs the same step.

    A mixed state ``sum_m lambda_m |v_m><v_m|`` gets a deterministic lower
    bound, method ``"filter-lower-bound"``, from an instrument on the noisy
    half.  ``R_m``, the noisy-side range of branch ``v_m``, has the dimension
    of its Schmidt rank, at most ``d``.  Branch ``m`` is separated when
    ``R_m`` is orthogonal to every other branch's range.  The projectors
    ``Q_m`` onto the ranges of separated branches are mutually orthogonal, so
    with ``I - sum Q_m`` they form an instrument; outcome ``m`` annihilates
    every other branch and leaves ``v_m`` itself.  Since the target is the
    canonical ket, a reference-side unitary moves to the noisy side
    (Lo-Popescu), so Vidal's optimum for ``v_m`` is reachable on the noisy
    half alone.  The bound sums ``lambda_m`` times that optimum over the
    separated branches.  (The part of a non-separated ``R_m`` orthogonal to
    the others has rank below ``d`` and would score zero.)  On
    Knill-Laflamme-correctable noise (PRA 55, 900 (1997))
    ``C^dag F_m^dag F_m' C = lambda_m delta I`` holds for any eigenbasis of
    ``h``, which the Choi eigenvectors are, so every branch is separated and
    maximally entangled and the bound equals ``Tr h``, the standard-recovery
    probability.  Noise that increases the trace on the code space,
    ``lambda_max(sum_k (E_k C)^dag E_k C) > 1 + VALIDATION_TOL``, raises
    ``ValueError``, here and in ``meets_certainty_condition``.
    """
    return _ec_step(code, noise, tol)[:2]


def _ec_step(code: CodeSpec, noise: KrausChannel, tol: float) -> tuple:
    """``(probability, method, certain)`` from one SVD of ``_choi_vectors(E_k C)`` (the Choi
    eigen-branches, a pure state being one branch of the whole weight) and one of the branch kets."""
    blocks = _code_blocks(code, noise)
    _, out, d = blocks.shape
    _refuse_trace_increase(blocks, "noise", "sum_k (E_k C)^dag E_k C")
    _, svals, vh = np.linalg.svd(_choi_vectors(blocks), full_matrices=False)
    evals = svals**2 / d
    weight = float(evals.sum())
    pure = weight - float(evals[0]) <= tol
    weights = np.array([weight]) if pure else evals
    weights = weights[weights > tol]
    _, values, ranges = np.linalg.svd(vh[: len(weights)].reshape(-1, d, out), full_matrices=False)
    support = values > tol
    # A branch scores when its last Schmidt value is supported (with fewer
    # than d values its optimum is 0) and it is separated, as a lone branch is.
    keep = support[:, -1]
    if len(weights) > 1:
        # Overlaps of the supported range vectors of every pair of branches;
        # the (m, m) blocks, a branch's overlaps with itself, are zeroed.
        ranges = ranges * support[..., None]
        cross = np.abs(np.einsum("air,bjr->abij", ranges.conj(), ranges))
        cross.reshape(-1, *cross.shape[2:])[:: len(weights) + 1] = 0.0
        keep &= cross.max(axis=(1, 2, 3)) <= tol
    prob = weights * _vidal_optimum(values, d) * keep
    certain = pure and len(weights) == 1 and _is_flat(values[0], d, tol)
    return float(prob.sum()), "pure-exact" if pure else "filter-lower-bound", certain

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

Both verdicts depend only on the noise's action on the code, the stacked
blocks ``E_k C``: the Choi eigen-branches and their Schmidt values come from
two SVDs (``_choi_branches``), never from the ``(d n) x (d n)`` Choi matrix,
which ``noise_choi_state`` builds for inspection only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channels import KrausChannel, choi_state, compose
from .entanglement import _is_flat, _vidal_optimum
from .linalg import DEFAULT_TOL, SubspaceIsometry, dagger, frobenius
from .unambiguous import UuqcCertificate, _phase_distance, certify_uuqc

__all__ = [
    "CodeSpec",
    "KlReport",
    "CorrectionReport",
    "kl_check",
    "diagonalize_errors",
    "standard_recovery",
    "encoding_channel",
    "verify_correction_uuqc",
    "unambiguous_correction_probability",
    "noise_choi_state",
    "meets_certainty_condition",
]


@dataclass(frozen=True, eq=False)
class CodeSpec:
    """A code given by its encoding isometry ``encoder`` (n_phys x d)."""

    encoder: np.ndarray
    _subspace: SubspaceIsometry = field(init=False, repr=False)

    def __post_init__(self):
        # The isometry checks the shape and orthonormality once and keeps a
        # read-only copy, which ``subspace()`` hands out without re-checking.
        subspace = SubspaceIsometry(self.encoder)
        object.__setattr__(self, "_subspace", subspace)
        object.__setattr__(self, "encoder", subspace.columns)

    @property
    def logical_dim(self) -> int:
        return self.encoder.shape[1]

    @property
    def physical_dim(self) -> int:
        return self.encoder.shape[0]

    def code_projector(self) -> np.ndarray:
        return self.encoder @ dagger(self.encoder)

    def subspace(self) -> SubspaceIsometry:
        return self._subspace


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

    ``identity_probability`` counts only the weight of Kraus elements whose
    extracted unitary ``U`` satisfies ``min_phi ||U - e^{i phi} I||_F <= tol``;
    it is the probability that the composite provably acts as the logical
    identity.  The full channel certificate is kept alongside for inspection.
    """

    certificate: UuqcCertificate
    identity_probability: float

    @property
    def fully_corrected(self) -> bool:
        return self.certificate.is_uuqc and abs(self.identity_probability - 1.0) <= DEFAULT_TOL


def encoding_channel(code: CodeSpec) -> KrausChannel:
    return KrausChannel((code.encoder,))


def kl_check(code: CodeSpec, errors: KrausChannel, tol: float = DEFAULT_TOL) -> KlReport:
    """Test ``P E_j^dag E_i P = h_ji P`` on the code projector.

    ``h_ji = Tr(P E_j^dag E_i P) / d``; the residual is the largest Frobenius
    deviation over element pairs, evaluated on the logical blocks
    ``C^dag E_j^dag E_i C`` (an isometry-invariant, hence identical, norm).
    ``h`` comes back Hermitian and positive semidefinite for correctable
    sets, with unit trace when the noise is trace-preserving.
    """
    if errors.in_dim != code.physical_dim or errors.out_dim != code.physical_dim:
        raise ValueError("error elements must act on the physical space")
    d = code.logical_dim
    n = len(errors.stack)
    enc = code.encoder
    h = np.zeros((n, n), dtype=complex)
    deviation = np.zeros((n, n))
    eye = np.eye(d)
    for j in range(n):
        for i in range(n):
            block = dagger(enc) @ dagger(errors.stack[j]) @ errors.stack[i] @ enc
            hij = np.trace(block) / d
            h[j, i] = hij
            deviation[j, i] = frobenius(block - hij * eye)
    # The array maximum, unlike the builtin one, keeps a NaN deviation.
    residual = float(deviation.max())
    return KlReport(correctable=residual <= tol, h=h, residual=residual)


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
    physical space, which is fine for unambiguous bookkeeping.
    """
    report = kl_check(code, errors, tol)
    if not report.correctable:
        raise ValueError("error set is not correctable on this code")
    blocks = diagonalize_errors(report, errors).stack @ code.encoder
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

    The composite maps the logical space into the physical space; it is
    certified with the full logical space as input subspace and the code
    space as output subspace.  The identity-consistent probability is one
    exactly when the recovery corrects the noise completely.
    """
    if recovery.in_dim != code.physical_dim:
        raise ValueError("recovery must act on the physical space")
    total = compose(compose(encoding_channel(code), errors), recovery)
    v1 = SubspaceIsometry.full(code.logical_dim)
    v2 = code.subspace()
    cert = certify_uuqc(total, v1, v2, 1, 1, tol)
    per = cert.per_element
    dist = _phase_distance(per.unitary, np.eye(code.logical_dim))
    q_id = np.sum(per.probability[per.is_uum & (dist <= tol)])
    return CorrectionReport(certificate=cert, identity_probability=float(q_id))


def noise_choi_state(code: CodeSpec, noise: KrausChannel) -> np.ndarray:
    """Unnormalized Choi state of encode-then-noise with a logical reference,
    for inspection: the verdicts below never build it."""
    if noise.in_dim != code.physical_dim:
        raise ValueError("noise must act on the physical space")
    return choi_state(compose(encoding_channel(code), noise))


def _choi_branches(code: CodeSpec, noise: KrausChannel, tol: float, pure_only: bool = False) -> tuple:
    """Purity flag, weights above ``tol`` (a pure state is one branch of the
    whole weight), Schmidt values and noisy-side Schmidt vectors (rows) of
    the eigen-branches of the Choi state ``V^T V^* / d``, row ``k`` of ``V``
    being ``vec(E_k C)`` with the logical index slow: one SVD of ``V``, one
    batched SVD of the branches, which ``pure_only`` skips on mixed states."""
    if noise.in_dim != code.physical_dim:
        raise ValueError("noise must act on the physical space")
    root = (noise.stack @ code.encoder).transpose(0, 2, 1).reshape(len(noise.stack), -1)
    _, svals, vh = np.linalg.svd(root, full_matrices=False)
    evals = svals**2 / code.logical_dim
    weight = float(evals.sum())
    pure = weight - float(evals[0]) <= tol
    if pure_only and not pure:
        return pure, None, None, None
    weights = np.array([weight]) if pure else evals
    weights = weights[weights > tol]
    kets = vh[: len(weights)].reshape(-1, code.logical_dim, noise.out_dim)
    _, values, ranges = np.linalg.svd(kets, full_matrices=False)
    return pure, weights, values, ranges


def meets_certainty_condition(code: CodeSpec, noise: KrausChannel, tol: float = DEFAULT_TOL) -> bool:
    """Necessary condition for correction with certainty: the normalized
    Choi state of encode-then-noise is a rank-``d`` uniformly entangled ket.

    Meaningful as stated for pure Choi states (isometric or filtered noise);
    a mixed Choi state fails the check outright.
    """
    pure, _, values, _ = _choi_branches(code, noise, tol, pure_only=True)
    return pure and len(values) == 1 and _is_flat(values[0], code.logical_dim, tol)


def unambiguous_correction_probability(code: CodeSpec, noise: KrausChannel, tol: float = DEFAULT_TOL):
    """Probability that the noise on this code is unambiguously correctable.

    Reads the unnormalized Choi state of encode-then-noise as its
    eigen-branches (``_choi_branches``).  A branch converts to the canonical
    entangled ket with Vidal's optimum of its Schmidt values, 0 if its
    ``d``-th is at most ``tol``; a pure state's weight times it is exact,
    method ``"pure-exact"``.

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
    probability.
    """
    pure, weights, values, ranges = _choi_branches(code, noise, tol)
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
    prob = weights * _vidal_optimum(values, code.logical_dim) * keep
    return float(prob.sum()), "pure-exact" if pure else "filter-lower-bound"

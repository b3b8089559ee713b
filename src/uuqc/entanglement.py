"""Schmidt machinery, uniformly entangled states, and teleportation checks.

A uniformly entangled state of rank ``d`` has ``d`` nonzero Schmidt
coefficients all equal to ``1/sqrt(d)``.  Holding one with some probability
is interchangeable with holding a probabilistic unitary channel of the same
probability: sending half of the canonical entangled ket through a certified
channel produces the state, and the standard teleportation scheme consumes
the state to rebuild the channel.  Teleporting through a shared pure state
therefore reduces to converting that state into the canonical entangled ket,
whose optimal probability is the tail-sum minimum implemented by
``conversion_probability``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .channels import KrausChannel
from .linalg import (
    DEFAULT_TOL,
    VALIDATION_TOL,
    SubspaceIsometry,
    _density_eigh,
    dagger,
    shift_clock_unitaries,
    tensor_product,
)
from .unambiguous import certify_uuqc

__all__ = [
    "SchmidtForm",
    "TeleportCertificate",
    "schmidt",
    "is_rank_d_ues",
    "conversion_probability",
    "uuqc_to_ues",
    "ues_to_uuqc",
    "teleportation_parts",
    "teleport_probability_pure",
    "check_mixed_nonzero",
    "search_mixed_nonzero",
]

# The largest smaller-factor dimension whose basis subsets the search sweeps.
_MAX_SWEEP_DIM = 4


@dataclass(frozen=True, eq=False)
class SchmidtForm:
    """Schmidt data of a bipartite ket: descending coefficients plus bases."""

    coefficients: np.ndarray
    left_basis: np.ndarray
    right_basis: np.ndarray
    rank: int


@dataclass(frozen=True)
class TeleportCertificate:
    """Teleportation verdict: achievable probability and, for the mixed-state
    check, the subspace pair that witnesses it."""

    probability: float
    rank_d: int
    witness_subspaces: tuple | None = None


def schmidt(psi: np.ndarray, dim_a: int, dim_b: int, tol: float = DEFAULT_TOL) -> SchmidtForm:
    """Schmidt decomposition of a ket on ``dim_a x dim_b``."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if psi.size != dim_a * dim_b:
        raise ValueError(f"ket length {psi.size} does not match {dim_a}*{dim_b}")
    coeff = psi.reshape(dim_a, dim_b)
    left, values, right_h = np.linalg.svd(coeff, full_matrices=False)
    rank = int(np.sum(values > tol))
    # psi = sum_i values[i] * left[:, i] (x) right_h[i, :]
    return SchmidtForm(values, left, right_h.T, rank)


def is_rank_d_ues(psi: np.ndarray, dim_a: int, dim_b: int, d: int, tol: float = DEFAULT_TOL) -> bool:
    """True when the ket has exactly ``d`` Schmidt coefficients ~ 1/sqrt(d)."""
    return _is_flat(schmidt(psi, dim_a, dim_b, tol).coefficients, d, tol)


def _is_flat(values: np.ndarray, d: int, tol: float) -> bool:
    """``d`` descending Schmidt values within ``tol`` of ``1/sqrt(d)``, the rest at most ``tol``."""
    if values.size < d:
        return False
    return bool(np.max(np.abs(values[:d] - 1.0 / np.sqrt(d))) <= tol and np.all(values[d:] <= tol))


def conversion_probability(sf: SchmidtForm, d: int) -> float:
    """Optimal probability of converting a normalized pure state into the
    canonical rank-``d`` entangled ket by local operations (zero below rank ``d``)."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if sf.rank < d:
        return 0.0
    return float(_vidal_optimum(sf.coefficients, d))


def _vidal_optimum(values: np.ndarray, d: int) -> np.ndarray:
    """Vidal's optimum (PRL 83, 1046 (1999)) ``min(1, min_{l<d} d tail_l / (d - l))``
    over the last axis of descending Schmidt values, ``tail_l`` summing the squares
    with those before ``l`` zeroed (bit for bit the slice sum below eight values)."""
    cuts, squares = np.arange(d), np.square(values)
    tails = np.where(np.arange(squares.shape[-1]) >= cuts[:, None], squares[..., None, :], 0.0).sum(-1)
    return (d * tails / (d - cuts)).min(-1, initial=1.0)


def uuqc_to_ues(
    ch: KrausChannel,
    v1: SubspaceIsometry | None = None,
    v2: SubspaceIsometry | None = None,
    env_in: int = 1,
    env_out: int = 1,
    tol: float = DEFAULT_TOL,
):
    """Turn a certified channel into the uniformly entangled state it powers.

    Half of the canonical entangled ket is sent through the channel (with an
    identity riding on the kept half); the system output is projected onto
    the certified subspace and the environment is traced away.  The
    certificate already pins that Choi state down as ``q |U>><<U|`` to within
    its ``definition_residual``, so this returns the certified probability
    ``q`` as the success weight and the normalized success ket
    ``(I (x) U)|phi>`` read off the certified unitary.
    """
    cert = certify_uuqc(ch, v1, v2, env_in, env_out, tol)
    if not cert.is_uuqc:
        raise ValueError("channel did not certify; cannot convert to a shared state")
    return cert.total_probability, _ues_ket(cert.unitary)


def _ues_ket(unitary: np.ndarray) -> np.ndarray:
    """The success ket ``(I (x) U)|phi>`` of a certified unitary, its peak real positive."""
    # (I (x) U)|phi> holds U[s, i] / sqrt(d) at (i, s).
    ket = unitary.T.reshape(-1) / len(unitary) ** 0.5
    peak = ket[abs(ket).argmax()]
    return ket * (abs(peak) / peak)


def teleportation_parts(d: int):
    """Measurement bras and corrections of the standard teleportation scheme.

    Returns ``(bras, corrections)``: the ``d**2`` rank-one measurement
    operators on (input, held half) stacked as ``(d**2, 1, d**2)``, and the
    matching correction unitaries on the receiving side as ``(d**2, d, d)``.
    """
    corrections = shift_clock_unitaries(d)
    # Bra x conjugates the Bell ket (W_x (x) I)|phi> = vec(W_x) / sqrt(d).
    return corrections.conj().reshape(d * d, 1, -1) / np.sqrt(d), corrections


def ues_to_uuqc(d: int) -> KrausChannel:
    """Teleportation channel consuming a held canonical entangled ket.

    One Kraus element per generalized measurement outcome: correction
    unitary after the entangled-basis bra, with the held ket supplied
    internally.  Certifies as the identity with unit probability; every
    outcome fires with probability ``1/d**2``.
    """
    if d < 2:
        raise ValueError("teleportation needs d >= 2")
    bras, corrections = teleportation_parts(d)
    # (bra on (input, held-A) (x) I) ( I_input (x) held ket ) contracts to a
    # d x d matrix; entry (o, i) picks the bra component at (i, o) over sqrt(d).
    # Every element works out to W W^dag / d = I / d.
    base = bras.reshape(-1, d, d).swapaxes(1, 2) / np.sqrt(d)
    return KrausChannel(corrections @ base)


def teleport_probability_pure(shared: np.ndarray, dim_a: int, dim_b: int, d: int) -> TeleportCertificate:
    """Optimal unambiguous teleportation probability through a shared pure state."""
    shared = np.asarray(shared, dtype=complex).reshape(-1)
    norm = np.linalg.norm(shared)
    if abs(norm - 1.0) > VALIDATION_TOL:
        raise ValueError("shared ket must be normalized")
    prob = conversion_probability(schmidt(shared, dim_a, dim_b), d)
    return TeleportCertificate(probability=prob, rank_d=d)


def _identity_filters(blocks: np.ndarray, tol: float) -> tuple:
    """A solution ``B`` of ``M_k B^T = c_k I`` for each stack ``(K, d, m)`` in ``blocks``.

    One batched ``eigh`` of the Gram matrix of ``sum_k ||M_k B^T - c_k I||^2``
    at ``c_k = Tr(M_k B^T) / d`` gives its null space ``N`` (eigenvalues up to
    ``tol``).  Returns ``P_N vec(M_k)^*``, the solution with the largest
    ``|c_k|``, which has no part that every ``M_k`` annihilates, at the best
    ``k``, and ``d |c_k|^2`` of its unit multiple."""
    n, k, d, m = blocks.shape
    rows, flat = blocks.reshape(n, k * d, m), blocks.reshape(n, k, d * m)
    targets = flat.conj().swapaxes(1, 2)
    gram = np.eye(d)[:, None, :, None] * (rows.conj().swapaxes(1, 2) @ rows)[:, None, :, None]
    gram = gram.reshape(n, d * m, d * m) - targets @ flat / d
    evals, evecs = np.linalg.eigh(gram)
    null = evecs * (evals <= tol)[:, None, :]
    candidates = null @ (null.conj().swapaxes(1, 2) @ targets)
    norms = (candidates.real**2 + candidates.imag**2).sum(1)
    best, stack = norms.argmax(1), np.arange(n)
    return candidates[stack, :, best].reshape(n, d, m), norms[stack, best] / d


def check_mixed_nonzero(
    rho: np.ndarray,
    dim_a: int,
    dim_b: int,
    d: int,
    va: SubspaceIsometry,
    vb: SubspaceIsometry,
    tol: float = DEFAULT_TOL,
) -> TeleportCertificate:
    """Nonzero-probability test for teleportation through a shared mixed state.

    Projects the state onto the supplied ``d x d`` subspace pair; the attempt
    witnesses a nonzero probability exactly when the projection has positive
    weight, is pure, and has Schmidt rank ``d``.  The reported probability is
    the lower bound established by this witness (projection weight times the
    pure-state conversion optimum); the zero certificate means this subspace
    pair proves nothing.  ``rho`` must be a density matrix.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    rho, _, _ = _density_eigh(rho, dim_a * dim_b, "state")
    if va.sub_dim != d or vb.sub_dim != d:
        raise ValueError(f"witness subspaces must have dimension {d}")
    if va.ambient_dim != dim_a or vb.ambient_dim != dim_b:
        raise ValueError("witness subspaces do not live on the state factors")

    restrict = tensor_product(va.columns, vb.columns)
    block = dagger(restrict) @ rho @ restrict
    weight = float(np.trace(block).real)
    evals, evecs = np.linalg.eigh(block)
    form = schmidt(evecs[:, -1], d, d, tol)
    if weight <= tol or weight - evals[-1] > tol or form.rank < d:
        return TeleportCertificate(0.0, d)
    return TeleportCertificate(weight * conversion_probability(form, d), d, witness_subspaces=(va, vb))


def search_mixed_nonzero(
    rho: np.ndarray,
    dim_a: int,
    dim_b: int,
    d: int,
    tol: float = DEFAULT_TOL,
) -> TeleportCertificate:
    """Local-filter search for a nonzero teleportation probability.

    Filters ``X (x) B`` give the canonical ket when ``X V_k B^T = c_k I``,
    some ``c_k != 0``, for every eigenket ``V_k`` above ``tol`` (scaled by
    the root of its eigenvalue).  As ``(X (x) I)|phi> = (I (x) X^T)|phi>``,
    only the row space ``W`` of ``X`` on the smaller factor matters; ``W``
    runs over its basis subsets (of a factor of dimension at most 4), so
    the decision is exact when that factor has dimension ``d``.  The first
    ``W`` where ``_identity_filters`` solves for ``B``, and the support of
    ``B``, go to ``check_mixed_nonzero`` for the certificate.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    rho, evals, evecs = _density_eigh(rho, dim_a * dim_b, "state")
    swap, small = dim_b < dim_a, min(dim_a, dim_b)
    if small > _MAX_SWEEP_DIM:
        raise ValueError(f"subset sweep limited to a smaller factor dim <= {_MAX_SWEEP_DIM}")
    subsets = np.array(list(combinations(range(small), d)), dtype=int).reshape(-1, d)
    keep = evals > tol
    kets = (evecs[:, keep] * np.sqrt(evals[keep])).T.reshape(-1, dim_a, dim_b)
    if swap:
        kets = kets.swapaxes(1, 2)
    filters, gain = _identity_filters(kets[:, subsets].swapaxes(0, 1), tol)
    found = np.flatnonzero(gain > tol)
    if not found.size:
        return TeleportCertificate(0.0, d)
    w = found[0]
    # The swept subset, and the support of the filter on the other factor.
    pair = (SubspaceIsometry.from_indices(small, subsets[w]),
            SubspaceIsometry(np.linalg.svd(filters[w])[2][:d].conj().T))
    return check_mixed_nonzero(rho, dim_a, dim_b, d, *(pair[::-1] if swap else pair), tol)

"""Dense complex linear algebra primitives shared by every other module.

Index convention for composite spaces, fixed here once and inherited
everywhere: the *system* factor is the slowest-varying index.  A vector on
``system (x) environment`` stores the amplitude of ``|s> (x) |e>`` at flat
index ``s * env_dim + e``, which is exactly what ``numpy.kron(system, env)``
produces.  Kets are 1-D arrays; operators are 2-D complex arrays.

All tolerances are absolute on Frobenius norms and default to
``DEFAULT_TOL``; checks on caller-supplied inputs (orthonormal columns,
normalized kets) use the looser ``VALIDATION_TOL``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-9
VALIDATION_TOL = 1e-8

__all__ = [
    "DEFAULT_TOL",
    "SubspaceIsometry",
    "FactoredPair",
    "tensor_product",
    "partial_trace",
    "factor_as_tensor",
    "random_unitary",
    "dagger",
    "frobenius",
    "shift_clock_unitaries",
]


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.conj(np.asarray(m)).T


def frobenius(m: np.ndarray) -> float:
    """Frobenius norm of a matrix or 2-norm of a ket."""
    return float(np.linalg.norm(np.asarray(m)))


def _as_complex(m, name: str = "matrix") -> np.ndarray:
    arr = np.asarray(m, dtype=complex)
    if arr.ndim not in (1, 2):
        raise ValueError(f"{name} must be a 1-D ket or a 2-D matrix, got ndim={arr.ndim}")
    return arr


@dataclass(frozen=True, eq=False)
class SubspaceIsometry:
    """Matrix whose columns form an orthonormal basis of a subspace.

    ``columns`` has shape ``(ambient_dim, sub_dim)``; the projector onto the
    subspace is ``columns @ columns^dag``.
    """

    columns: np.ndarray

    def __post_init__(self):
        cols = _as_complex(self.columns, "isometry columns")
        if cols.ndim != 2:
            raise ValueError("isometry columns must be a 2-D array")
        if cols.shape[1] < 1 or cols.shape[1] > cols.shape[0]:
            raise ValueError(f"invalid subspace shape {cols.shape}")
        gram = dagger(cols) @ cols
        if frobenius(gram - np.eye(cols.shape[1])) > VALIDATION_TOL:
            raise ValueError("columns are not orthonormal")
        cols = cols.copy()
        cols.setflags(write=False)
        object.__setattr__(self, "columns", cols)

    @property
    def ambient_dim(self) -> int:
        return self.columns.shape[0]

    @property
    def sub_dim(self) -> int:
        return self.columns.shape[1]

    def projector(self) -> np.ndarray:
        return self.columns @ dagger(self.columns)

    def complement(self) -> "SubspaceIsometry":
        """Orthonormal basis of the orthogonal complement."""
        if self.sub_dim == self.ambient_dim:
            raise ValueError("full space has an empty complement")
        q, _ = np.linalg.qr(self.columns, mode="complete")
        # The columns are already orthonormal, so the trailing block of the
        # complete QR factor is an orthonormal basis of the complement.
        return SubspaceIsometry(q[:, self.sub_dim:])

    def extend_left(self, ancilla_dim: int) -> "SubspaceIsometry":
        """Tensor an ``ancilla_dim``-dimensional identity onto the slow side."""
        return SubspaceIsometry(np.kron(np.eye(ancilla_dim), self.columns))

    @classmethod
    def from_indices(cls, ambient_dim: int, indices) -> "SubspaceIsometry":
        """Span of the given computational-basis states."""
        cols = np.asarray(indices, dtype=int)
        if np.any((cols < 0) | (cols >= ambient_dim)) or not np.array_equal(cols, indices):
            raise ValueError(f"basis indices must be integers in [0, {ambient_dim})")
        return cls(np.eye(ambient_dim, dtype=complex)[:, cols])


@dataclass(frozen=True, eq=False)
class FactoredPair:
    """Result of a tensor-factorization attempt ``m ~ sys_factor (x) env_factor``.

    ``sys_factor`` carries the dominant direction at unit Frobenius norm,
    ``env_factor`` absorbs the dominant singular value, and ``residual`` is
    the Frobenius norm of the unfactorable remainder.  ``schmidt_values``
    holds the full operator-Schmidt spectrum, descending.  For a stack of
    matrices each field gains the stack's leading axes.
    """

    sys_factor: np.ndarray
    env_factor: np.ndarray
    residual: float
    schmidt_values: np.ndarray


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the first argument slowest-varying."""
    return np.kron(_as_complex(a, "a"), _as_complex(b, "b"))


def partial_trace(m: np.ndarray, dims, keep) -> np.ndarray:
    """Trace out the tensor factors of a square matrix not listed in ``keep``.

    Parameters
    ----------
    m : square matrix on the product of the spaces listed in ``dims``.
    dims : per-factor dimensions, slowest-varying first.
    keep : indices (into ``dims``) of the factors to retain, in order.
    """
    m = _as_complex(m, "matrix")
    dims = tuple(int(d) for d in dims)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("partial trace needs a square matrix")
    total = int(np.prod(dims))
    if total != m.shape[0]:
        raise ValueError(f"dims {dims} do not multiply to matrix size {m.shape[0]}")
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= len(dims) for k in keep):
        raise ValueError("keep indices out of range")

    n = len(dims)
    arr = m.reshape(dims + dims)
    # Contract row/column axes of every traced factor, highest factor first
    # so the surviving axis numbers stay valid.
    for k in reversed(range(n)):
        if k not in keep:
            arr = np.trace(arr, axis1=k, axis2=k + arr.ndim // 2)
    kept = int(np.prod([dims[k] for k in keep])) if keep else 1
    return arr.reshape(kept, kept)


def factor_as_tensor(
    m: np.ndarray, sys_out: int, env_out: int, sys_in: int, env_in: int
) -> FactoredPair:
    """Best tensor-product approximation across a system/environment cut.

    The matrix is reshuffled so rows are indexed by ``(sys_out, sys_in)`` and
    columns by ``(env_out, env_in)``; its SVD is the operator-Schmidt
    decomposition of ``m`` across the cut.  The dominant singular triple
    yields the returned factors, and the residual collects everything the
    rank-one truncation misses.  A stack of matrices (leading batch axes) is
    factorized in one batched SVD, and every field of the result carries the
    same leading axes.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape[-2:] != (sys_out * env_out, sys_in * env_in):
        raise ValueError(
            f"matrix shape {m.shape} does not match "
            f"({sys_out}*{env_out}, {sys_in}*{env_in})"
        )
    batch = m.shape[:-2]
    shuffled = (
        m.reshape(batch + (sys_out, env_out, sys_in, env_in))
        .swapaxes(-3, -2)
        .reshape(batch + (sys_out * sys_in, env_out * env_in))
    )
    left, values, right_h = np.linalg.svd(shuffled, full_matrices=False)
    sys_factor = left[..., 0].reshape(batch + (sys_out, sys_in))
    env_factor = (values[..., :1] * right_h[..., 0, :]).reshape(batch + (env_out, env_in))
    tail = values[..., 1:]
    return FactoredPair(sys_factor, env_factor, np.sqrt(np.einsum("...i,...i->...", tail, tail)), values)


def _density_eigh(rho, dim: int, name: str) -> tuple:
    """``rho`` and its ``eigh``, checked to be a ``dim x dim`` density matrix within ``VALIDATION_TOL``."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (dim, dim):
        raise ValueError(f"{name} shape {rho.shape} does not match ({dim}, {dim})")
    evals, evecs = np.linalg.eigh(rho)
    tol = VALIDATION_TOL
    if not np.isfinite(rho).all() or max(frobenius(rho - dagger(rho)), -evals[0], abs(evals.sum() - 1)) > tol:
        raise ValueError(f"{name} must be a density matrix (Hermitian, positive semidefinite, unit trace)")
    return rho, evals, evecs


def random_unitary(dim: int, seed) -> np.ndarray:
    """Haar-distributed unitary; deterministic for a fixed seed."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r).copy()
    phases /= np.abs(phases)
    return q * phases


def shift_clock_unitaries(dim: int) -> np.ndarray:
    """Generalized Pauli family ``X^a Z^b`` on a ``dim``-level system.

    The ``dim**2`` members are unitary and pairwise trace-orthogonal with
    ``Tr(W^dag W) = dim``, stacked with the shift power slowest.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    k = np.arange(dim)
    # (X^a Z^b)[i, j] = [i == j + a mod dim] * omega^(b j), indexed [a, b, i, j]
    shifts = k[:, None, None] == (k[:, None] - k) % dim
    phases = np.exp(2j * np.pi * (np.outer(k, k) % dim) / dim)
    return (shifts[:, None] * phases[None, :, None, :]).reshape(-1, dim, dim)

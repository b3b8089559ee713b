"""Quantum operations in operator-sum form.

Trace-decreasing channels are first-class here: physicality only requires
the element Gram sum to sit below the identity, and a separate flag reports
whether the channel is trace-preserving.  Choi states are returned
unnormalized so their trace keeps the channel's success weight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_TOL, dagger, frobenius

__all__ = [
    "KrausChannel",
    "PhysicalityReport",
    "apply",
    "is_physical",
    "choi_state",
    "compose",
    "povm_of",
]


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """A quantum operation given by its Kraus (operation) elements.

    Every element is an ``out_dim x in_dim`` complex matrix.  Construction
    checks shapes only; physicality is a separate query so that deliberately
    unphysical element sets can still be inspected.  The argument may be a
    sequence of matrices or a ``(K, out_dim, in_dim)`` array; either way it
    is copied once into the read-only array ``stack``, element index first.
    """

    stack: np.ndarray

    def __post_init__(self):
        if len(self.stack) == 0:
            raise ValueError("a channel needs at least one Kraus element")
        try:
            stack = np.array(self.stack, dtype=complex)
        except ValueError:
            stack = None
        if stack is None or stack.ndim != 3:
            # Walk the elements only to name the offending one.
            first = np.shape(self.stack[0])
            for k, e in enumerate(self.stack):
                if np.ndim(e) != 2:
                    raise ValueError(f"Kraus element {k} is not a matrix")
                if np.shape(e) != first:
                    raise ValueError(f"Kraus element {k} has shape {np.shape(e)}, expected {first}")
            raise ValueError("Kraus elements must be matrices of one shape")
        stack.setflags(write=False)
        object.__setattr__(self, "stack", stack)

    @property
    def in_dim(self) -> int:
        return self.stack.shape[2]

    @property
    def out_dim(self) -> int:
        return self.stack.shape[1]

    def gram_sum(self) -> np.ndarray:
        """Sum of POVM elements ``sum_k E_k^dag E_k``."""
        rows = self.stack.reshape(-1, self.in_dim)
        return dagger(rows) @ rows


@dataclass(frozen=True)
class PhysicalityReport:
    physical: bool
    trace_preserving: bool
    max_eigenvalue: float


def apply(ch: KrausChannel, rho: np.ndarray) -> np.ndarray:
    """Operator-sum action ``sum_k E_k rho E_k^dag``.

    ``rho`` may also be a stack of states with leading batch axes; the
    result then carries the same axes.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (ch.in_dim, ch.in_dim):
        raise ValueError(f"state shape {rho.shape} does not match in_dim {ch.in_dim}")
    k, out_dim, in_dim = ch.stack.shape
    batch = rho.shape[:-2]
    # Lay the blocks E_k rho side by side, so that one product with the
    # stacked E_k^dag also sums over k.
    left = (ch.stack.reshape(-1, in_dim) @ rho).reshape(batch + (k, out_dim, in_dim))
    left = np.moveaxis(left, -3, -2).reshape(batch + (out_dim, k * in_dim))
    return left @ ch.stack.conj().transpose(0, 2, 1).reshape(k * in_dim, out_dim)


def is_physical(ch: KrausChannel, tol: float = DEFAULT_TOL) -> PhysicalityReport:
    """Check ``sum_k E_k^dag E_k <= I`` and report trace preservation."""
    gram = ch.gram_sum()
    max_eig = float(np.max(np.linalg.eigvalsh(gram)))
    trace_preserving = frobenius(gram - np.eye(ch.in_dim)) <= tol
    return PhysicalityReport(max_eig <= 1.0 + tol, trace_preserving, max_eig)


def choi_state(ch: KrausChannel) -> np.ndarray:
    """Send one half of the canonical entangled ket through the channel.

    The reference system has dimension ``in_dim`` and sits on the slow
    tensor slot.  The result is left unnormalized: its trace equals the
    average success weight ``Tr(sum_k E_k^dag E_k) / in_dim``.

    Closed form ``V^T V^* / in_dim`` with ``V = _choi_vectors(ch.stack)``
    (Choi 1975).  The scale goes on the small factor.
    """
    v = _choi_vectors(ch.stack)
    return v.T @ (v.conj() / ch.in_dim)


def _choi_vectors(stack: np.ndarray) -> np.ndarray:
    """``V``, whose row ``k`` is ``vec(E_k)`` with the input index slowest: the
    unnormalised ``(I (x) E_k)|Phi>``, ``|Phi> = sum_i |ii>`` (Watrous, *Theory
    of Quantum Information*, section 2.2), for a ``(K, out, in)`` stack."""
    return stack.transpose(0, 2, 1).reshape(len(stack), -1)


def compose(first: KrausChannel, second: KrausChannel) -> KrausChannel:
    """Channel equal to applying ``first`` and then ``second``."""
    if first.out_dim != second.in_dim:
        raise ValueError(
            f"cannot compose: first.out_dim={first.out_dim} != second.in_dim={second.in_dim}"
        )
    # Element (a, b) is E_b E_a, with first's index slow.
    stack = second.stack[None] @ first.stack[:, None]
    return KrausChannel(stack.reshape(-1, second.out_dim, first.in_dim))


def povm_of(ch: KrausChannel) -> np.ndarray:
    """Stacked POVM elements ``E_k^dag E_k`` of the measurement the channel induces."""
    return ch.stack.conj().transpose(0, 2, 1) @ ch.stack

"""Unambiguous dense coding over a partially entangled shared state.

Sending one of ``D**2`` messages through a Schmidt-rank-``D`` shared ket
with equal success probability caps that probability at ``D * lambda_D**2``.
The optimal protocol saturating the cap encodes with the shift/clock family,
distills the shared state with the one-shot filter ``diag(lambda_D /
lambda_i)`` on the receiving side, and then discriminates the resulting
orthonormal basis.

Slot convention for bipartite kets here: the receiver's retained particle is
the slow (first) tensor factor, the particle the sender encodes and
transmits is the fast (second) one.  The linear-form verifier stacks the
encoders column-wise as kets with the retained-side index slow, so a
protocol acts as ``B (diag(lambdas) (x) I) A_stack = r I`` exactly when
every message is sent faithfully with amplitude ``r``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import KrausChannel, _choi_vectors, is_physical, povm_of
from .linalg import DEFAULT_TOL, VALIDATION_TOL, SubspaceIsometry, dagger, shift_clock_unitaries, tensor_product
from .unambiguous import _certify_restricted, _phase_distance

__all__ = [
    "SharedState",
    "DenseCodingProtocol",
    "SimulationResult",
    "BoundReport",
    "weyl_operators",
    "capacity",
    "optimal_protocol",
    "optimal_receiver",
    "simulate",
    "verify_protocol_bound",
]

@dataclass(frozen=True, eq=False)
class SharedState:
    """Schmidt spectrum of the shared ket: descending positive ``lambdas``
    with unit squared sum."""

    lambdas: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float)
        if lam.ndim != 1 or lam.size < 1:
            raise ValueError("lambdas must be a nonempty 1-D array")
        # Every test is phrased so that NaN fails it.
        if not np.all(lam > 0):
            raise ValueError("all Schmidt coefficients must be positive numbers")
        if not np.all(np.diff(lam) <= 0):
            raise ValueError("lambdas must be sorted descending")
        if not abs(np.sum(lam**2) - 1.0) <= VALIDATION_TOL:
            raise ValueError("squared Schmidt coefficients must sum to one")
        lam = lam.copy()
        lam.setflags(write=False)
        object.__setattr__(self, "lambdas", lam)

    @property
    def rank(self) -> int:
        return self.lambdas.size

    def ket(self) -> np.ndarray:
        """The shared ket ``sum_i lambda_i |ii>`` (symmetric in the slots)."""
        d = self.rank
        out = np.zeros(d * d, dtype=complex)
        out[np.arange(d) * d + np.arange(d)] = self.lambdas
        return out

    @classmethod
    def from_squares(cls, lambdas_squared) -> "SharedState":
        squares = np.asarray(lambdas_squared, dtype=float)
        # Checked before the root, which warns on negative squares.
        if not np.all(np.isfinite(squares) & (squares > 0)):
            raise ValueError("all Schmidt coefficients must be positive numbers")
        return cls(np.sqrt(squares))


@dataclass(frozen=True, eq=False)
class DenseCodingProtocol:
    """Stacked encoders, the receiver-side filter, and the discrimination basis."""

    encoders: np.ndarray
    filter: np.ndarray
    discrimination_basis: np.ndarray  # columns are the basis kets


@dataclass(frozen=True, eq=False)
class SimulationResult:
    sent: np.ndarray
    succeeded: np.ndarray
    decode_errors: int

    @property
    def per_message_rate(self) -> np.ndarray:
        with np.errstate(invalid="ignore"):
            return np.where(self.sent > 0, self.succeeded / self.sent, 0.0)

    @property
    def pooled_rate(self) -> float:
        return float(np.sum(self.succeeded) / np.sum(self.sent))

    @property
    def trials(self) -> int:
        return int(np.sum(self.sent))


@dataclass(frozen=True)
class BoundReport:
    """Outcome of the linear-form bound verification."""

    r: complex                  # Tr(B M) / D^2
    form_residual: float        # min_phi ||U - e^{i phi} I||_F of the certified U
    form_holds: bool
    success_probability: float  # |r|^2
    bound: float                # D * lambda_D^2
    bound_satisfied: bool
    gram_trace_max_eigenvalue: float
    gram_trace_ok: bool


def weyl_operators(D: int) -> np.ndarray:
    """The ``D**2`` stacked shift/clock encoders: unitary, pairwise trace-orthogonal."""
    if D < 2:
        raise ValueError("dense coding needs D >= 2")
    return shift_clock_unitaries(D)


def _encoder_channel(encoders, D: int, tol: float) -> KrausChannel:
    """The encoders as a channel of ``D**2`` elements of shape ``D x D``, each
    trace-non-increasing within ``tol``; the first that is not is named."""
    if len(encoders) != D * D:
        raise ValueError(f"expected {D * D} encoders, got {len(encoders)}")
    channel = KrausChannel(encoders)
    if channel.stack.shape[1:] != (D, D):
        raise ValueError(f"encoders must be {D} x {D}, got {channel.out_dim} x {channel.in_dim}")
    bad = np.flatnonzero(np.linalg.eigvalsh(povm_of(channel))[:, -1] > 1.0 + tol)
    if len(bad):
        raise ValueError(f"encoder {bad[0]} is not trace-non-increasing")
    return channel


def capacity(state: SharedState) -> float:
    """Maximal equal success probability: ``D * lambda_D**2``."""
    return float(state.rank * state.lambdas[-1] ** 2)


def optimal_protocol(state: SharedState) -> DenseCodingProtocol:
    """Filter-then-discriminate protocol achieving the capacity.

    The filter ``diag(lambda_D / lambda_i)`` turns the shared ket into the
    canonical entangled ket with probability ``D * lambda_D**2``; the
    discrimination basis is the encoded canonical ket for each message,
    which is orthonormal for trace-orthogonal unitary encoders.
    """
    D = state.rank
    encoders = weyl_operators(D)
    filt = np.diag(state.lambdas[-1] / state.lambdas).astype(complex)
    basis = _choi_vectors(encoders).T / np.sqrt(D)
    return DenseCodingProtocol(encoders=encoders, filter=filt, discrimination_basis=basis)


def simulate(
    state: SharedState,
    protocol: DenseCodingProtocol,
    trials: int = 100_000,
    seed=0,
) -> SimulationResult:
    """Monte Carlo run of a dense-coding protocol.

    Each trial sends a uniform message through its encoder, the receiver's
    two-outcome filter and, on success, the measurement in the
    discrimination basis.  The trials are independent, so the counts are
    drawn from their exact law: multinomial sends, binomial successes per
    message, and binomial decoding mistakes among those successes, which
    should be zero for an unambiguous protocol.  The encoders must be
    ``D**2`` trace-non-increasing ``D x D`` matrices, as in
    ``verify_protocol_bound``, the filter a ``D x D`` contraction and the
    discrimination basis unitary within ``VALIDATION_TOL``.
    """
    # multinomial takes the count as a C long
    if not 1 <= trials < 2**63:
        raise ValueError("trials must be in [1, 2^63 - 1]")
    D = state.rank
    n_msg = D * D
    encoders = _encoder_channel(protocol.encoders, D, DEFAULT_TOL)
    if np.shape(protocol.discrimination_basis) != (n_msg, n_msg):
        raise ValueError(f"discrimination basis must be {n_msg} x {n_msg}")
    basis = SubspaceIsometry(protocol.discrimination_basis).columns
    filt = protocol.filter
    if np.shape(filt) != (D, D):
        raise ValueError(f"filter must be {D} x {D}, got shape {np.shape(filt)}")
    if not is_physical(KrausChannel((filt,))).physical:
        raise ValueError("filter must satisfy F^dag F <= I")
    # Column x is message x encoded on the shared ket, then filtered.
    kets = _choi_vectors(encoders.stack).T
    filtered = tensor_product(filt @ np.diag(state.lambdas), np.eye(D)) @ kets
    # A contraction filter leaves only rounding above one.
    success_prob = np.minimum(np.sum(np.abs(filtered) ** 2, axis=0), 1.0)
    dist = np.abs(dagger(basis) @ filtered) ** 2
    total = np.sum(dist, axis=0)
    hit = np.divide(np.diagonal(dist), total, out=np.zeros(n_msg), where=total > 0)

    rng = np.random.default_rng(seed)
    sent = rng.multinomial(trials, np.full(n_msg, 1.0 / n_msg))
    succeeded = rng.binomial(sent, success_prob)
    decode_errors = int(np.sum(rng.binomial(succeeded, 1.0 - hit)))
    return SimulationResult(sent=sent, succeeded=succeeded, decode_errors=decode_errors)


def verify_protocol_bound(
    state: SharedState,
    encoders,
    bob: np.ndarray,
    tol: float = DEFAULT_TOL,
) -> BoundReport:
    """Check a protocol's linear form and the capacity bound.

    Stacks the vectorized encoders (retained-side index slow) into columns,
    applies the shared-state diagonal on the retained slot and the receiver
    operator, and certifies the product as ``certify_uum`` does on the full
    space: the form ``r I`` holds when it is an unambiguous unitary map
    whose unitary is the identity up to a phase, the rule of
    ``verify_correction_uuqc``.  Then ``|r|**2`` is the protocol's equal
    success probability and must respect ``D * lambda_D**2``.  The trace
    condition on the stacked encoders' Gram operator is verified alongside;
    it holds whenever every encoder is trace-non-increasing.
    """
    D = state.rank
    n_msg = D * D
    encoders = _encoder_channel(encoders, D, tol)
    bob = np.asarray(bob, dtype=complex)
    if bob.shape != (n_msg, n_msg):
        raise ValueError(f"receiver operator must be {n_msg} x {n_msg}")
    if not is_physical(KrausChannel((bob,)), tol).physical:
        raise ValueError("receiver operator must satisfy B^dag B <= I")

    product = bob @ (np.repeat(state.lambdas, D)[:, None] * _choi_vectors(encoders.stack).T)
    cert = _certify_restricted(product[None], n_msg, 1, 1, tol)
    form_residual = float(_phase_distance(cert.unitary, np.eye(n_msg))[0])
    r = complex(np.trace(product) / n_msg)
    bound = capacity(state)
    success = float(abs(r) ** 2)
    # The Gram operator's partial trace over the transmitted slot is sum_x A_x^dag A_x.
    gram_max = is_physical(encoders, tol).max_eigenvalue

    return BoundReport(
        r=r,
        form_residual=form_residual,
        form_holds=bool(cert.is_uum[0]) and form_residual <= tol,
        success_probability=success,
        bound=bound,
        bound_satisfied=success <= bound + tol,
        gram_trace_max_eigenvalue=gram_max,
        gram_trace_ok=gram_max <= n_msg + tol,
    )


def optimal_receiver(protocol: DenseCodingProtocol) -> np.ndarray:
    """Receiver operator of the optimal protocol in one matrix: project onto
    each discrimination ket after filtering the retained slot."""
    basis = protocol.discrimination_basis
    D = protocol.filter.shape[0]
    return dagger(basis) @ tensor_product(protocol.filter, np.eye(D))

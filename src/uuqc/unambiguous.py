"""Certification of unambiguous unitary maps and channels.

An operator that, restricted to chosen input/output subspaces, acts as
``U (x) T`` implements the unitary ``U`` with heralded probability
``p = Tr(T T^dag)``; a channel whose projected, environment-traced action
equals ``q U rho U^dag`` on every subspace-supported density operator does
the same with probability ``q``.  This module certifies both, extracts the
``(U, T, p)`` data, rewrites certified channels into rank-one-environment
form, and tensors them with identity ancillas.

Conventions.  Operators map ``system (x) env_in -> system (x) env_out``
with the system factor slowest-varying.  Certification contracts the
environment input against an *unnormalized* identity, so probabilities add
up element by element without extra normalization factors.  Pure-state
probabilities are evaluated by applying the operator to ``ket (x) I_env_in``
and tracing the squared result over the environment output, which
reproduces the factorization criterion exactly.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

# ``apply`` is unused here but stays importable as ``uuqc.unambiguous.apply``:
# perfbench/smoke.py checks that the tracer patches this binding.
from .channels import KrausChannel, apply  # noqa: F401
from .linalg import DEFAULT_TOL, SubspaceIsometry, dagger, factor_as_tensor

__all__ = [
    "UumCertificate",
    "UuqcCertificate",
    "certify_uum",
    "probability_profile",
    "certify_uuqc",
    "refine",
    "extend_by_identity",
    "restrict_operator",
]


@dataclass(frozen=True, eq=False)
class UumCertificate:
    """Verdict and extracted data for a single operator, with Python scalars
    from ``certify_uum``; in ``UuqcCertificate.per_element`` every field is
    an array with a leading Kraus-element axis instead.

    ``unitary`` is ``d x d`` on the subspace bases and has its largest-modulus
    entry fixed real positive so certificates are comparable across Kraus
    elements.  ``probability`` equals the squared dominant operator-Schmidt
    value divided by ``d``, which coincides with ``Tr(T T^dag)`` for the
    extracted environment factor ``env_factor``.  ``schmidt_values`` keeps the
    full operator-Schmidt spectrum so degenerate non-factorable cases stay
    visible in the certificate.
    """

    is_uum: bool
    probability: float
    unitary: np.ndarray
    env_factor: np.ndarray
    residual: float
    schmidt_values: np.ndarray
    unitarity_deviation: float


@dataclass(frozen=True, eq=False)
class UuqcCertificate:
    """Verdict for a channel: per-element data plus the shared unitary.

    ``per_element`` is one ``UumCertificate`` whose fields are indexed by
    Kraus element first.  ``total_probability`` is ``q``, the summed
    probability ``certify_uuqc`` counts.  ``definition_residual`` is the exact Frobenius distance
    ``||J - q |U>><<U|||`` between the unnormalized Choi matrix ``J`` of the
    projected, environment-traced channel and that of ``q U . U^dag``; it
    bounds ``||Phi(rho) - q U rho U^dag||_F`` for every density operator
    ``rho`` on the input subspace.  ``mismatched_pair`` names the first
    contributing element and the first later one whose unitary lies farther
    than the tolerance from it, up to a global phase, if any.
    """

    is_uuqc: bool
    total_probability: float
    per_element: UumCertificate
    unitary: np.ndarray
    definition_residual: float
    mismatched_pair: tuple | None


def _subspace_columns(v1, v2, shape, env_in: int, env_out: int) -> tuple:
    """The column arrays of ``v1`` and ``v2``, which must span subspaces of
    one dimension, for operators of shape ``(out, in)``; an omitted one is
    the identity on the full system space."""
    if env_in < 1 or env_out < 1:
        raise ValueError("environment dimensions must be >= 1")
    cols = []
    for v, dim, env, leg in ((v1, shape[-1], env_in, "env_in"), (v2, shape[-2], env_out, "env_out")):
        full = dim // env
        if v is None and full < 1:
            raise ValueError(f"invalid subspace shape ({full}, {full})")
        if dim % env:
            raise ValueError(f"{leg}={env} does not divide the operator dimension {dim}")
        cols.append(np.eye(full, dtype=complex) if v is None else v.columns)
    d1, d2 = (c.shape[1] for c in cols)
    if d1 != d2:
        raise ValueError(f"subspace dimensions differ: {d1} vs {d2}")
    return tuple(cols)


def restrict_operator(
    omega: np.ndarray,
    v1: SubspaceIsometry | None,
    v2: SubspaceIsometry | None,
    env_in: int = 1,
    env_out: int = 1,
) -> np.ndarray:
    """Compress the system legs of ``omega`` onto the chosen subspaces: the
    one restriction, which every certificate reads.

    Returns ``(V2^dag (x) I) omega (V1 (x) I)`` of shape
    ``(d * env_out, d * env_in)``; an omitted ``v1`` or ``v2`` (``None``)
    is the full system space.  A stack of operators (leading batch axes,
    such as ``KrausChannel.stack``) is compressed in one pass.
    """
    omega = np.asarray(omega, dtype=complex)
    c1, c2 = _subspace_columns(v1, v2, omega.shape, env_in, env_out)
    (amb1, d1), (amb2, d2) = c1.shape, c2.shape
    if omega.shape[-2:] != (amb2 * env_out, amb1 * env_in):
        raise ValueError(f"operator shape {omega.shape} does not match ({amb2}*{env_out}, {amb1}*{env_in})")
    batch = omega.shape[:-2]
    # Move the input system leg last and contract it with V1 in one 2-D
    # product, then contract the output leg with V2^dag.
    legs = omega.reshape(batch + (amb2, env_out, amb1, env_in)).swapaxes(-1, -2).reshape(-1, amb1)
    both = dagger(c2) @ (legs @ c1).reshape(batch + (amb2, -1))
    out = both.reshape(batch + (d2, env_out, env_in, d1)).swapaxes(-1, -2)
    return out.reshape(batch + (d2 * env_out, d1 * env_in))


def _certify_restricted(
    restricted: np.ndarray, d: int, env_in: int, env_out: int, tol: float
) -> UumCertificate:
    """One certificate for a stack of restricted operators, every field
    carrying the stack's leading axis."""
    pair = factor_as_tensor(restricted, d, env_out, d, env_in)
    flat = pair.sys_factor.reshape(len(restricted), -1)
    peak = flat.take(np.arange(0, flat.size, d * d) + abs(flat).argmax(1))
    # sys_factor has unit norm, so its scale is 1/d: one factor sqrt(d) conj(peak) /
    # |peak| per element makes a passing one unitary, with its peak real positive.
    rot = (d**0.5 / abs(peak) * peak.conj())[:, None, None]
    unitary = pair.sys_factor * rot
    # ||S^dag S - I/d|| = ||U^dag U - I|| / d, its square a real dot product.
    gram = unitary.conj().swapaxes(1, 2) @ unitary
    gram.reshape(len(gram), -1)[:, :: d + 1] -= 1
    dev = gram.reshape(len(gram), -1).view(float)
    unitarity_dev = np.sqrt(np.einsum("ki,ki->k", dev, dev)) / d
    probability = pair.schmidt_values[:, 0] ** 2 / d
    is_uum = (pair.residual <= tol) & (unitarity_dev <= tol) & (probability > tol)
    return UumCertificate(is_uum, probability, unitary, pair.env_factor / rot, pair.residual,
                          pair.schmidt_values, unitarity_dev)


def certify_uum(
    omega: np.ndarray,
    v1: SubspaceIsometry | None = None,
    v2: SubspaceIsometry | None = None,
    env_in: int = 1,
    env_out: int = 1,
    tol: float = DEFAULT_TOL,
) -> UumCertificate:
    """Decide whether ``omega`` acts as ``U (x) T`` between the subspaces.

    The restricted operator is factorized across the system/environment cut.
    Certification requires the rank-one residual to vanish within ``tol``,
    the system factor to be proportional to a unitary, and the implied
    probability to be positive.  When the subspaces are omitted they default
    to the full spaces (with ``omega`` square on the system after removing
    the declared environment legs).
    """
    restricted = restrict_operator(np.asarray(omega)[None], v1, v2, env_in, env_out)
    stacked = _certify_restricted(restricted, restricted.shape[-1] // env_in, env_in, env_out, tol)
    return UumCertificate(*(v[0].item() if v.ndim == 1 else v[0] for v in vars(stacked).values()))


def probability_profile(
    omega: np.ndarray,
    v1: SubspaceIsometry | None = None,
    v2: SubspaceIsometry | None = None,
    env_in: int = 1,
    env_out: int = 1,
) -> np.ndarray:
    """The exact range of the success probability over subspace inputs.

    A unit ket ``psi`` of the input subspace enters as ``psi (x) I_env_in``
    and succeeds with ``psi^dag M psi``, the squared Frobenius norm of the
    restricted operator's output, where ``M = Tr_env_in(R^dag R)`` is the
    ``d x d`` success operator of the restricted operator ``R``.  Returns the
    ``d`` eigenvalues of ``M`` in ascending order: every input succeeds with
    a probability between the first and the last, and an eigenvector attains
    each, so a certified map returns its ``p`` ``d`` times and anything else
    betrays its input preference in the spread.
    """
    restricted = restrict_operator(omega, v1, v2, env_in, env_out)
    restricted = restricted.reshape(-1, restricted.shape[-1] // env_in, env_in)
    return np.linalg.eigvalsh(np.einsum("rie,rje->ij", restricted.conj(), restricted))


def _phase_distance(us: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``min_phi ||U_k - e^{i phi} V||_F`` for each ``U_k`` in ``us``, at ``phi = arg Tr(V^dag U_k)``;
    a zero overlap keeps ``phi = 0``, so trace-orthogonal matrices stay far apart."""
    us, v = us.reshape(len(us), -1), v.reshape(-1)
    phase = np.exp(1j * np.angle(us @ v.conj()))
    diff = (us - phase[:, None] * v).view(float)
    return np.sqrt(np.einsum("ki,ki->k", diff, diff))


def _definition_residual(restricted: np.ndarray, d: int, env_in: int, env_out: int,
                         q: float, unitary: np.ndarray) -> float:
    """Exact ``||J - q |U>><<U|||_F`` for the projected channel.

    Both sides are ordered output index slow, which keeps their distance:
    ``|U>> = vec(U)`` and ``J = W W^dag``, column ``(k, e_out, e_in)`` of ``W``
    being the ``vec`` of the ``d x d`` block ``<e_out| R_k |e_in>``.  Each
    column splits along ``u = |U>> / sqrt(d)`` as ``alpha_r u + b_r``, so the
    squared distance is ``(sum |alpha_r|^2 - q d)^2 + 2 ||sum conj(alpha_r)
    b_r||^2 + ||B^dag B||_F^2``.  Unlike ``||J||^2 - 2q<u,Ju> + ...`` this
    does not cancel to rounding noise on channels that do certify.
    """
    w = restricted.reshape(-1, d, env_out, d, env_in).transpose(1, 3, 0, 2, 4).reshape(d * d, -1)
    u = unitary.reshape(-1) / d**0.5
    alpha = u.conj() @ w
    b = w - u[:, None] * alpha
    gram = b.conj().T @ b if b.shape[1] < d * d else b @ b.conj().T
    beta = b @ alpha.conj()
    squared = (np.vdot(alpha, alpha).real - q * d) ** 2 + 2 * np.vdot(beta, beta).real
    return float((squared + np.vdot(gram, gram).real) ** 0.5)


_MEMO_SIZE = 2


def _same(ref, obj) -> bool:
    """Whether ``ref`` (a weak reference, or ``None`` for an omitted
    argument) refers to ``obj``; a dead reference matches nothing."""
    return ref is None if obj is None else ref is not None and ref() is obj


class _Memo:
    """The ``_MEMO_SIZE`` newest results of a computation, newest first.

    A call ``memo(compute, objs, params)`` returns ``compute(*objs,
    *params)``, or the result remembered for the same ``objs`` (compared by
    identity, held by weak reference, ``None`` matching only ``None``) with
    equal ``params``.  The inputs it serves are frozen objects holding
    read-only arrays, so identity pins down a result for as long as the
    objects live; a result may reach several callers, so its arrays must be
    read-only.
    """

    __slots__ = ("_entries",)

    def __init__(self):
        self._entries = ()

    def __call__(self, compute, objs: tuple, params: tuple):
        for refs, entry_params, result in self._entries:
            if entry_params == params and all(map(_same, refs, objs)):
                return result
        result = compute(*objs, *params)
        refs = tuple(None if obj is None else weakref.ref(obj) for obj in objs)
        # One rebinding of a tuple: a thread that races this one can only miss.
        self._entries = ((refs, params, result),) + self._entries[: _MEMO_SIZE - 1]
        return result


# Two certificates cover certify -> refine -> certify the refined channel ->
# uuqc_to_ues on the original.
_certificates = _Memo()


def certify_uuqc(
    ch: KrausChannel,
    v1: SubspaceIsometry | None = None,
    v2: SubspaceIsometry | None = None,
    env_in: int = 1,
    env_out: int = 1,
    tol: float = DEFAULT_TOL,
) -> UuqcCertificate:
    """Certify a channel as a probabilistic unitary between the subspaces.

    Every Kraus element is certified on its own.  Elements whose implied
    probability exceeds ``tol`` must factorize, with unitaries within ``tol``
    of the first one's in the phase-minimised Frobenius distance
    ``||U_a - e^{i phi} U_b||``; the rest may take any form, and add their
    probability to ``q`` when they factorize with that unitary.  ``q`` is
    then checked exactly against the defining channel identity: the Choi
    matrix of the projected, environment-traced channel must lie within
    ``tol`` of ``q |U>><<U|``, which bounds the deviation from
    ``q U rho U^dag`` on every subspace state.  The check is deterministic.

    The two most recent certificates are remembered, so ``refine`` and
    ``uuqc_to_ues`` on a channel just certified do not certify it again.  A
    call returns a remembered certificate when it passes the same channel
    object and the same ``v1`` and ``v2`` objects (or ``None``) with equal
    ``env_in``, ``env_out`` and ``tol``.  Channels and subspaces are held by
    weak reference only.  Since one certificate may reach several callers,
    its arrays are read-only.
    """
    return _certificates(_certify_uuqc, (ch, v1, v2), (env_in, env_out, tol))


def _certify_uuqc(ch: KrausChannel, v1: SubspaceIsometry | None, v2: SubspaceIsometry | None,
                  env_in: int, env_out: int, tol: float) -> UuqcCertificate:
    """``certify_uuqc`` without the memo: ``restrict_operator``, then the kernel
    ``_certify_stack``, which ``verify_correction_uuqc`` calls on its own stack."""
    restricted = restrict_operator(ch.stack, v1, v2, env_in, env_out)
    return _certify_stack(restricted, restricted.shape[-1] // env_in, env_in, env_out, tol)


def _certify_stack(restricted: np.ndarray, d: int, env_in: int, env_out: int, tol: float) -> UuqcCertificate:
    """The read-only certificate of restricted Kraus elements, a ``(K, d * env_out, d * env_in)`` stack."""
    per = _certify_restricted(restricted, d, env_in, env_out, tol)
    contributing = per.probability > tol
    first = contributing.argmax()
    # With no contributing element, q = 0 is measured against the identity.
    unitary = per.unitary[first] if contributing[first] else np.eye(d, dtype=complex)

    # Only contributing elements can pass, so counting them settles whether all do.
    ok = np.count_nonzero(per.is_uum) == np.count_nonzero(contributing)
    counted, mismatched = contributing, None
    # Nothing to compare with no contributing element or in a one-element channel.
    if contributing[first] and len(contributing) > 1:
        near = _phase_distance(per.unitary, unitary) <= tol
        far = (contributing & ~near).nonzero()[0]
        mismatched = (int(first), int(far[0])) if ok and len(far) else None
        # An element at or below tol that factorizes with the certified unitary
        # adds its weight too, as it does to the definition residual.
        counted = contributing | near & (per.residual <= tol) & (per.unitarity_deviation <= tol)
    q = float(per.probability[counted].sum())
    residual = _definition_residual(restricted, d, env_in, env_out, q, unitary)
    for array in (*vars(per).values(), unitary):
        array.setflags(write=False)
    return UuqcCertificate(
        is_uuqc=ok and mismatched is None and q > tol and residual <= tol,
        total_probability=q,
        per_element=per,
        unitary=unitary,
        definition_residual=residual,
        mismatched_pair=mismatched,
    )


def refine(
    ch: KrausChannel,
    v1: SubspaceIsometry | None = None,
    v2: SubspaceIsometry | None = None,
    env_in: int = 1,
    env_out: int = 1,
    tol: float = DEFAULT_TOL,
) -> KrausChannel:
    """Rewrite a certified channel so every environment factor is rank one.

    The environment factors of all contributing elements are recombined per
    computational environment basis pair: the element for ``(i, j)`` is
    ``w_ji U (x) |j><i|`` with ``w_ji = sqrt(sum_k |<j| T_k |i>|^2)``, in
    row-major order of ``(j, i)``, and pairs with ``w_ji <= tol`` are left
    out.  The result represents the same unitary with the same total
    probability, and is supported on the certified subspaces.
    """
    c1, c2 = _subspace_columns(v1, v2, ch.stack.shape, env_in, env_out)
    # The caller's own v1 and v2, so a certificate remembered for them is found.
    cert = certify_uuqc(ch, v1, v2, env_in, env_out, tol)
    if not cert.is_uuqc:
        raise ValueError("refinement requires a certified channel")
    factors = cert.per_element.env_factor[cert.per_element.probability > tol]
    weights = np.sqrt((abs(factors) ** 2).sum(0)).reshape(-1)
    # Row r of diag(w) is w_ji |j><i| flattened, r = j * env_in + i.
    env_parts = np.diag(weights)[weights > tol]
    if len(env_parts) == 0:
        raise ValueError("refinement produced no elements")
    # Axes (element, sys_out, env_out, sys_in, env_in).
    embedded_u = c2 @ cert.unitary @ dagger(c1)
    elements = embedded_u[None, :, None, :, None] * env_parts.reshape(-1, 1, env_out, 1, env_in)
    return KrausChannel(elements.reshape(len(env_parts), len(embedded_u) * env_out, -1))


def extend_by_identity(ch: KrausChannel, ancilla_dim: int) -> KrausChannel:
    """Tensor an identity map on an ancilla onto the slow side of a channel."""
    if ancilla_dim < 1:
        raise ValueError("ancilla_dim must be >= 1")
    if ancilla_dim == 1:
        return ch
    return KrausChannel(np.kron(np.eye(ancilla_dim), ch.stack))

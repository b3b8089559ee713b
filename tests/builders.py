"""Constructors for operators and channels with known certification data."""

import itertools

import numpy as np

from uuqc.channels import KrausChannel
from uuqc.linalg import SubspaceIsometry, random_unitary, tensor_product


def rand_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_ket(dim: int, seed) -> np.ndarray:
    """Haar-random unit vector; deterministic for a fixed seed or generator."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z)


def maximally_entangled_ket(d: int) -> np.ndarray:
    """The canonical rank-``d`` uniformly entangled ket on ``d x d``."""
    return np.eye(d, dtype=complex).reshape(-1) / np.sqrt(d)


def random_subspace(rng, ambient: int, sub: int) -> SubspaceIsometry:
    q, _ = np.linalg.qr(rand_complex(rng, (ambient, sub)))
    return SubspaceIsometry(q[:, :sub])


def env_factors(rng, env_out: int, env_in: int, probs) -> list:
    """Environment factors with prescribed squared Frobenius norms."""
    out = []
    for p in probs:
        t = rand_complex(rng, (env_out, env_in))
        out.append(t * (np.sqrt(p) / np.linalg.norm(t)))
    return out


def make_uum(rng, d, dim1, dim2, env_in, env_out, p, with_noise=False):
    """Operator acting as a known unitary between random subspaces.

    Returns ``(omega, unitary, theta, v1, v2)`` with
    ``Tr(theta theta^dag) = p``.  With ``with_noise`` the operator gains
    parts supported outside the input subspace and parts mapping into the
    output complement; both are invisible to the certification.
    """
    v1 = random_subspace(rng, dim1, d)
    v2 = random_subspace(rng, dim2, d)
    unitary = random_unitary(d, rng)
    theta = env_factors(rng, env_out, env_in, [p])[0]
    omega = tensor_product(v2.columns @ unitary @ np.conj(v1.columns).T, theta)
    if with_noise:
        if d < dim2:
            w = v2.complement().columns @ rand_complex(rng, (dim2 - d, d)) @ np.conj(v1.columns).T
            omega = omega + tensor_product(w, rand_complex(rng, (env_out, env_in)))
        if d < dim1:
            w = rand_complex(rng, (dim2, dim1 - d)) @ np.conj(v1.complement().columns).T
            omega = omega + tensor_product(w, rand_complex(rng, (env_out, env_in)))
    return omega, unitary, theta, v1, v2


def make_uuqc(rng, d, dim1, dim2, env_in, env_out, probs, with_noise=False):
    """Multi-element channel certified with ``q = sum(probs)``.

    Returns ``(channel, unitary, thetas, v1, v2)``.
    """
    v1 = random_subspace(rng, dim1, d)
    v2 = random_subspace(rng, dim2, d)
    unitary = random_unitary(d, rng)
    thetas = env_factors(rng, env_out, env_in, probs)
    embedded = v2.columns @ unitary @ np.conj(v1.columns).T
    elems = []
    for theta in thetas:
        omega = tensor_product(embedded, theta)
        if with_noise and d < dim2:
            w = v2.complement().columns @ rand_complex(rng, (dim2 - d, d)) @ np.conj(v1.columns).T
            omega = omega + 0.3 * tensor_product(w, rand_complex(rng, (env_out, env_in)))
        elems.append(omega)
    return KrausChannel(tuple(elems)), unitary, thetas, v1, v2


def kron_chain(*mats):
    out = np.array([[1.0 + 0j]])
    for m in mats:
        out = np.kron(out, m)
    return out


PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def repetition_code():
    from uuqc.qec import CodeSpec

    enc = np.zeros((8, 2), dtype=complex)
    enc[0, 0] = 1.0
    enc[7, 1] = 1.0
    return CodeSpec(enc)


def single_qubit_on(op, wire: int):
    mats = [PAULI_I, PAULI_I, PAULI_I]
    mats[wire] = op
    return kron_chain(*mats)


PAULIS = {"I": PAULI_I, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}

# Stabilizer generators as Pauli strings, qubit 0 first.
FIVE_QUBIT_GENERATORS = ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ")
STEANE_GENERATORS = ("IIIXXXX", "IXXIIXX", "XIXIXIX", "IIIZZZZ", "IZZIIZZ", "ZIZIZIZ")
SHOR_GENERATORS = ("ZZIIIIIII", "IZZIIIIII", "IIIZZIIII", "IIIIZZIII", "IIIIIIZZI", "IIIIIIIZZ",
                   "XXXXXXIII", "IIIXXXXXX")


def stabilizer_code(generators):
    """The code on the ``+1`` eigenspace of commuting Pauli strings: the
    range of the product of ``(I + g) / 2`` over the generators."""
    from uuqc.qec import CodeSpec

    dim = 2 ** len(generators[0])
    proj = np.eye(dim, dtype=complex)
    for g in generators:
        proj = proj @ (np.eye(dim) + kron_chain(*(PAULIS[c] for c in g))) / 2
    evals, evecs = np.linalg.eigh(proj)
    return CodeSpec(evecs[:, evals > 0.5])


def five_qubit_code():
    """Laflamme et al., PRL 77, 198 (1996)."""
    return stabilizer_code(FIVE_QUBIT_GENERATORS)


def steane_code():
    """Steane, PRL 77, 793 (1996)."""
    return stabilizer_code(STEANE_GENERATORS)


def shor_code():
    """Shor, PRA 52, R2493 (1995)."""
    return stabilizer_code(SHOR_GENERATORS)


def leung_code():
    """Leung et al.'s amplitude-damping code, PRA 56, 2567 (1997):
    ``(|0000> + |1111>)/sqrt 2`` and ``(|0011> + |1100>)/sqrt 2``."""
    from uuqc.qec import CodeSpec

    enc = np.zeros((16, 2), dtype=complex)
    enc[[0b0000, 0b1111], 0] = enc[[0b0011, 0b1100], 1] = 1 / np.sqrt(2)
    return CodeSpec(enc)


def pauli_noise(n_qubits: int, p: float) -> KrausChannel:
    """``sqrt(1 - p) I`` and ``sqrt(p / 3n)`` times each single-qubit X, Y
    and Z: ``3n + 1`` elements, trace-preserving."""
    eye = [PAULI_I] * n_qubits
    elems = [np.sqrt(1 - p) * np.eye(2**n_qubits, dtype=complex)]
    for k in range(n_qubits):
        for op in (PAULI_X, PAULI_Y, PAULI_Z):
            elems.append(np.sqrt(p / (3 * n_qubits)) * kron_chain(*eye[:k], op, *eye[k + 1:]))
    return KrausChannel(elems)


def damping_noise(n_qubits: int, gamma: float, max_decays: int | None = None) -> KrausChannel:
    """Products of single-qubit amplitude damping ``A0 = diag(1, sqrt(1 - g))``
    and ``A1 = sqrt(g) |0><1|``, every product with at most ``max_decays``
    factors ``A1`` (all ``2^n`` of them by default)."""
    a0 = np.diag([1.0, np.sqrt(1 - gamma)]).astype(complex)
    a1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    limit = n_qubits if max_decays is None else max_decays
    elems = []
    for decays in itertools.product((0, 1), repeat=n_qubits):
        if sum(decays) <= limit:
            elems.append(kron_chain(*(a1 if k else a0 for k in decays)))
    return KrausChannel(elems)


def flagged_erasure(n_qubits: int, p: float) -> KrausChannel:
    """Erasure of one qubit with a flag, from ``2^n`` into ``3^n`` dimensions:
    ``sqrt(1 - p) J^{(x)n}`` with ``J`` embedding the qubit in a qutrit, and
    ``sqrt(p / n) |2><a|`` on qubit ``k`` (``J`` elsewhere) for every ``k``
    and ``a``; trace-preserving."""
    embed = np.eye(3, 2, dtype=complex)
    elems = [np.sqrt(1 - p) * kron_chain(*[embed] * n_qubits)]
    for k in range(n_qubits):
        for a in range(2):
            flag = np.zeros((3, 2), dtype=complex)
            flag[2, a] = 1.0
            mats = [embed] * n_qubits
            mats[k] = flag
            elems.append(np.sqrt(p / n_qubits) * kron_chain(*mats))
    return KrausChannel(elems)

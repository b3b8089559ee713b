"""Independent oracles the tests check library results against.

Everything here is deliberately dumb: index formulas, explicit sums, and
grid searches that do not share code paths with the library.
"""

from itertools import combinations

import numpy as np


def kron_entry(a: np.ndarray, b: np.ndarray, i: int, j: int) -> complex:
    """Direct index formula for the Kronecker product entry (i, j)."""
    br, bc = b.shape
    return a[i // br, j // bc] * b[i % br, j % bc]


def partial_trace_sum(m: np.ndarray, dims, traced: int) -> np.ndarray:
    """Explicit sum over basis bras/kets on one traced factor."""
    dims = tuple(dims)
    out_dims = [d for k, d in enumerate(dims) if k != traced]
    size = int(np.prod(out_dims))
    out = np.zeros((size, size), dtype=complex)
    for i in range(dims[traced]):
        basis = np.zeros((1, dims[traced]))
        basis[0, i] = 1.0
        factors = [np.eye(d) for d in dims]
        factors[traced] = basis
        embed = factors[0]
        for f in factors[1:]:
            embed = np.kron(embed, f)
        out += embed @ m @ embed.conj().T
    return out


def filter_conversion_max(lambdas: np.ndarray, d: int, t_points: int = 4001) -> float:
    """Brute-force one-sided filter optimization for exact uniform output.

    Enumerates every size-``d`` subset of Schmidt directions and a grid of
    common post-filter amplitudes ``t``; a diagonal filter ``t / lambda_i``
    on the subset (zero elsewhere) is feasible when no entry exceeds one,
    and its uniform-output branch succeeds with weight ``d * t**2``.  The
    grid includes the feasibility endpoint, so the optimum is hit exactly.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    best = 0.0
    for subset in combinations(range(lambdas.size), d):
        lam_min = float(np.min(lambdas[list(subset)]))
        if lam_min <= 0:
            continue
        for t in np.linspace(0.0, lam_min, t_points):
            feasible = all(t / lambdas[i] <= 1.0 + 1e-12 for i in subset)
            if feasible:
                best = max(best, d * t * t)
    return best


def vidal_by_cuts(values: np.ndarray, d: int) -> float:
    """Vidal's optimum ``min(1, min_{l<d} d tail_l / (d - l))`` for descending
    Schmidt values, one cut and one slice sum at a time, ``tail_l`` the sum
    of the squares from ``l`` on."""
    lam2 = np.asarray(values, dtype=float) ** 2
    best = 1.0
    for cut in range(d):
        tail = float(np.sum(lam2[cut:]))
        best = min(best, d * tail / (d - cut))
    return max(0.0, min(1.0, best))


def shift_clock_by_powers(dim: int) -> list:
    """The generalized Paulis ``X^a Z^b`` (shift power slowest) as explicit
    matrix powers of the shift and clock matrices."""
    shift = np.zeros((dim, dim), dtype=complex)
    for j in range(dim):
        shift[(j + 1) % dim, j] = 1.0
    clock = np.diag(np.exp(2j * np.pi / dim) ** np.arange(dim))
    return [np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b)
            for a in range(dim) for b in range(dim)]


def majorized_by_uniform(lambdas_squared: np.ndarray, d: int) -> bool:
    """Deterministic-conversion criterion: squared spectrum majorized by flat."""
    lam2 = np.sort(np.asarray(lambdas_squared, dtype=float))[::-1]
    partial = 0.0
    for k in range(lam2.size):
        partial += lam2[k]
        target = min(1.0, (k + 1) / d)
        if partial > target + 1e-12:
            return False
    return True


def binom_sigma(p: float, n: int) -> float:
    return float(np.sqrt(max(p * (1.0 - p), 1e-12) / n))


def choi_by_kron(elements) -> np.ndarray:
    """Unnormalized Choi state sum_k (I (x) E_k)|phi><phi|(I (x) E_k)^dag,
    with the reference on the slow slot and |phi> = sum_i |i>|i> / sqrt(n)."""
    n = elements[0].shape[1]
    phi = np.zeros(n * n, dtype=complex)
    for i in range(n):
        phi[i * n + i] = 1.0 / np.sqrt(n)
    rho = np.outer(phi, phi.conj())
    out = 0
    for e in elements:
        big = np.kron(np.eye(n), e)
        out = out + big @ rho @ big.conj().T
    return out


def restrict_by_kron(omega, v1_cols, v2_cols, env_in: int, env_out: int) -> np.ndarray:
    """(V2^dag (x) I_env_out) omega (V1 (x) I_env_in) by explicit Kronecker products."""
    left = np.kron(v2_cols.conj().T, np.eye(env_out))
    right = np.kron(v1_cols, np.eye(env_in))
    return left @ omega @ right


def projected_choi_by_kron(elements, v1_cols, v2_cols, env_in: int, env_out: int) -> np.ndarray:
    """Send half of the canonical d x d ket, embedded by V1 and tensored with
    the unnormalized environment identity, through I_d (x) E_k; trace out the
    output environment by a sum over its basis, then project with I_d (x) V2."""
    d = v1_cols.shape[1]
    amb_out = v2_cols.shape[0]
    phi = np.eye(d, dtype=complex).reshape(-1) / np.sqrt(d)
    embedded = np.kron(np.eye(d), v1_cols) @ phi
    rho_in = np.kron(np.outer(embedded, embedded.conj()), np.eye(env_in))
    out = 0
    for e in elements:
        big = np.kron(np.eye(d), e)
        out = out + big @ rho_in @ big.conj().T
    reduced = partial_trace_sum(out, (d, amb_out, env_out), traced=2)
    project = np.kron(np.eye(d), v2_cols)
    return project.conj().T @ reduced @ project


def orthogonal_branch_probability(blocks, d: int) -> float:
    """Distillation probability of the Choi state of code-space actions
    ``B_k = E_k C`` (``n x d``) whose ranges are mutually orthogonal.

    Branch ``k`` has weight ``||B_k||_F^2 / d`` and normalized Schmidt
    coefficients ``s_k / ||s_k||`` (``s_k`` the singular values of ``B_k``);
    a projective measurement onto the ranges separates the branches, and
    each is scored by the brute-force filter optimum.  A block whose range
    overlaps another block's range is not separated by that measurement
    and scores zero.
    """
    total = 0.0
    for k, b in enumerate(blocks):
        overlaps = [np.linalg.norm(b.conj().T @ other) > 1e-12
                    for j, other in enumerate(blocks) if j != k]
        s = np.linalg.svd(b, compute_uv=False)
        norm = float(np.linalg.norm(s))
        if any(overlaps) or norm == 0.0:
            continue
        total += norm**2 / d * filter_conversion_max(s / norm, d)
    return total


def search_mixed_nonzero_by_pairs(rho, dim_a: int, dim_b: int, d: int, tol: float = 1e-9):
    """The computational-basis sweep one pair at a time: build both
    isometries and run ``check_mixed_nonzero`` on every pair of ``d``-element
    index subsets in lexicographic order, returning the first nonzero
    certificate."""
    from uuqc.entanglement import TeleportCertificate, check_mixed_nonzero
    from uuqc.linalg import SubspaceIsometry

    for idx_a in combinations(range(dim_a), d):
        va = SubspaceIsometry.from_indices(dim_a, idx_a)
        for idx_b in combinations(range(dim_b), d):
            vb = SubspaceIsometry.from_indices(dim_b, idx_b)
            cert = check_mixed_nonzero(rho, dim_a, dim_b, d, va, vb, tol)
            if cert.probability > 0.0:
                return cert
    return TeleportCertificate(0.0, d)


def standard_recovery_two_pass(encoder, elements, h, tol: float = 1e-9) -> list:
    """Measure-and-rotate recovery by explicit loops: remix the elements by
    the eigenvectors of the overlap matrix ``h`` into ``F_m``, recompute the
    overlap matrix of the remixed set, and return ``C (F_m C /
    sqrt(lambda_m))^dag`` for every diagonal entry ``lambda_m`` above
    ``tol``, in order."""
    d = encoder.shape[1]
    _, vecs = np.linalg.eigh(h)
    rotated = []
    for m in range(len(elements)):
        f = np.zeros_like(elements[0])
        for i, e in enumerate(elements):
            f = f + vecs[i, m] * e
        rotated.append(f)
    out = []
    for f in rotated:
        lam = np.trace(encoder.conj().T @ f.conj().T @ f @ encoder).real / d
        if lam > tol:
            out.append(encoder @ (f @ encoder / np.sqrt(lam)).conj().T)
    return out


def refine_by_kron(unitary, thetas, v1_cols, v2_cols, b_in, b_out, tol: float = 1e-9) -> list:
    """Rank-one refinement by explicit Kronecker products: for every basis
    pair ``(j, i)`` in row-major order, ``w_ji V2 U V1^dag (x)
    |out_j><in_i|`` with ``w_ji^2 = sum_k |<out_j| theta_k |in_i>|^2``,
    keeping the pairs whose weight exceeds ``tol``."""
    embedded = v2_cols @ unitary @ v1_cols.conj().T
    out = []
    for j in range(b_out.shape[1]):
        for i in range(b_in.shape[1]):
            w = np.sqrt(sum(abs(b_out[:, j].conj() @ t @ b_in[:, i]) ** 2 for t in thetas))
            if w > tol:
                out.append(np.kron(embedded, w * np.outer(b_out[:, j], b_in[:, i].conj())))
    return out


def correction_by_choi_eigh(code, noise, tol: float = 1e-9) -> tuple:
    """The Choi-matrix route to the unambiguous correction probability and
    the certainty condition: build the ``(d n) x (d n)`` Choi state of
    encode-then-noise with ``noise_choi_state``, ``eigh`` it, and score its
    eigen-branches.  Returns ``(probability, method, certainty_condition)``."""
    from uuqc.entanglement import conversion_probability, is_rank_d_ues, schmidt
    from uuqc.qec import noise_choi_state

    sigma = noise_choi_state(code, noise)
    d, n = code.logical_dim, noise.out_dim
    weight = float(np.trace(sigma).real)
    if weight <= tol:
        return 0.0, "pure-exact", False
    evals, evecs = np.linalg.eigh(sigma)
    if weight - float(evals[-1]) <= tol:
        psi = evecs[:, -1]
        prob = weight * conversion_probability(schmidt(psi, d, n), d)
        return float(prob), "pure-exact", is_rank_d_ues(psi, d, n, d, tol)

    keep = evals > tol
    kets = evecs[:, keep].T.reshape(-1, d, n)
    _, svals, vh = np.linalg.svd(kets, full_matrices=False)
    support = svals > tol
    ranges, labels = vh[support].T, np.nonzero(support)[0]
    cross = (ranges.conj().T @ ranges) * (labels[:, None] != labels)
    prob = 0.0
    for m, (lam, ket) in enumerate(zip(evals[keep], kets)):
        if np.max(np.abs(cross[labels == m]), initial=0.0) <= tol:
            prob += lam * conversion_probability(schmidt(ket, d, n, tol), d)
    return float(prob), "filter-lower-bound", False


def uum_by_index_loops(restricted, d: int, env_in: int, env_out: int) -> dict:
    """Per-element certificate data of one restricted ``(d env_out) x (d
    env_in)`` operator, by explicit index loops.

    Entry ``(a env_out + e, b env_in + f)`` goes to row ``a d + b`` and
    column ``e env_in + f`` of the operator-Schmidt matrix, whose dominant
    singular triple gives the unit-norm system factor ``S`` and the
    environment factor.  The scale is measured as ``Tr(S^dag S) / d``; the
    unitary is ``S`` over its root and the unitarity deviation is
    ``||S^dag S - scale I||_F``.
    """
    m = np.zeros((d * d, env_out * env_in), dtype=complex)
    for a in range(d):
        for b in range(d):
            for e in range(env_out):
                for f in range(env_in):
                    m[a * d + b, e * env_in + f] = restricted[a * env_out + e, b * env_in + f]
    left, values, right_h = np.linalg.svd(m)
    sys_factor = np.zeros((d, d), dtype=complex)
    for a in range(d):
        for b in range(d):
            sys_factor[a, b] = left[a * d + b, 0]
    env_factor = np.zeros((env_out, env_in), dtype=complex)
    for e in range(env_out):
        for f in range(env_in):
            env_factor[e, f] = values[0] * right_h[0, e * env_in + f]
    gram = sys_factor.conj().T @ sys_factor
    scale = np.trace(gram).real / d
    return {
        "probability": values[0] ** 2 / d,
        "residual": float(np.sqrt(np.sum(values[1:] ** 2))),
        "unitarity_deviation": float(np.linalg.norm(gram - scale * np.eye(d))),
        "unitary": sys_factor / np.sqrt(scale),
        "env_factor": env_factor * np.sqrt(scale),
        "schmidt_values": values,
    }


def simulate_per_message(state, protocol, trials: int, seed) -> tuple:
    """Dense-coding Monte Carlo trial by trial, one pass per message:
    ``(sent, succeeded, decode_errors)`` from one message, one coin and,
    on success, one decoding draw per trial.  ``densecode.simulate`` draws
    the same counts from their joint law."""
    d = state.lambdas.size
    encoders = np.asarray(protocol.encoders)
    n_msg = len(encoders)
    # column x holds A_x[i, j] at entry j*d + i
    kets = encoders.transpose(2, 1, 0).reshape(-1, n_msg)
    filtered = np.kron(protocol.filter @ np.diag(state.lambdas), np.eye(d)) @ kets
    success_prob = np.sum(np.abs(filtered) ** 2, axis=0)
    dist = np.abs(protocol.discrimination_basis.conj().T @ filtered) ** 2
    outcome_dist = np.full((n_msg, n_msg), 1.0 / n_msg)
    for x in range(n_msg):
        if success_prob[x] > 0:
            outcome_dist[x] = dist[:, x] / np.sum(dist[:, x])

    rng = np.random.default_rng(seed)
    messages = rng.integers(0, n_msg, size=trials)
    coins = rng.uniform(size=trials)
    sent = np.zeros(n_msg, dtype=np.int64)
    succeeded = np.zeros(n_msg, dtype=np.int64)
    decode_errors = 0
    for x in range(n_msg):
        mask = messages == x
        sent[x] = int(np.sum(mask))
        wins = int(np.sum(coins[mask] < success_prob[x]))
        succeeded[x] = wins
        if wins:
            decoded = rng.choice(n_msg, size=wins, p=outcome_dist[x])
            decode_errors += int(np.sum(decoded != x))
    return sent, succeeded, decode_errors


def kl_by_projector(encoder, elements) -> tuple:
    """The Knill-Laflamme data by its literal formula on the code projector
    ``P``: ``h_ji = Tr(P E_j^dag E_i P) / d`` and the residual
    ``max_ji ||P E_j^dag E_i P - h_ji P||_F``, one pair at a time."""
    proj = encoder @ encoder.conj().T
    d = encoder.shape[1]
    h = np.zeros((len(elements), len(elements)), dtype=complex)
    residual = 0.0
    for j, ej in enumerate(elements):
        for i, ei in enumerate(elements):
            sandwich = proj @ ej.conj().T @ ei @ proj
            h[j, i] = np.trace(sandwich) / d
            residual = max(residual, float(np.linalg.norm(sandwich - h[j, i] * proj)))
    return h, residual

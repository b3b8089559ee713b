from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from uuqc import entanglement
from uuqc.channels import KrausChannel, apply
from uuqc.entanglement import (
    SchmidtForm,
    check_mixed_nonzero,
    conversion_probability,
    is_rank_d_ues,
    schmidt,
    search_mixed_nonzero,
    teleport_probability_pure,
    teleportation_parts,
    ues_to_uuqc,
    uuqc_to_ues,
)
from uuqc.linalg import (
    SubspaceIsometry,
    random_unitary,
    shift_clock_unitaries,
    tensor_product,
)
from uuqc.unambiguous import certify_uuqc

from builders import make_uuqc, maximally_entangled_ket, rand_complex, random_ket
from oracles import (
    filter_conversion_max,
    majorized_by_uniform,
    projected_choi_by_kron,
    search_mixed_nonzero_by_pairs,
    vidal_by_cuts,
)


def spectrum(*lam2):
    lam = np.sqrt(np.asarray(lam2, dtype=float))
    return SchmidtForm(lam, np.eye(lam.size), np.eye(lam.size), lam.size)


def test_schmidt_product_state():
    psi = np.zeros(4)
    psi[0] = 1.0
    form = schmidt(psi, 2, 2)
    assert form.rank == 1
    np.testing.assert_allclose(form.coefficients, [1.0, 0.0], atol=1e-12)


def test_schmidt_canonical_entangled():
    form = schmidt(maximally_entangled_ket(2), 2, 2)
    np.testing.assert_allclose(form.coefficients, [1 / np.sqrt(2)] * 2, atol=1e-12)
    assert form.rank == 2


def test_schmidt_matches_svd_oracle_and_reconstructs():
    rng = np.random.default_rng(0)
    psi = rand_complex(rng, 12)
    psi /= np.linalg.norm(psi)
    form = schmidt(psi, 3, 4)
    oracle = np.linalg.svd(psi.reshape(3, 4), compute_uv=False)
    np.testing.assert_allclose(form.coefficients, oracle, atol=1e-12)
    rebuilt = sum(
        form.coefficients[k] * np.kron(form.left_basis[:, k], form.right_basis[:, k])
        for k in range(form.coefficients.size)
    )
    np.testing.assert_allclose(rebuilt, psi, atol=1e-9)
    # bases orthonormal
    np.testing.assert_allclose(
        form.left_basis.conj().T @ form.left_basis, np.eye(3), atol=1e-12
    )


def test_schmidt_dimension_mismatch():
    with pytest.raises(ValueError):
        schmidt(np.ones(5), 2, 2)


@pytest.mark.parametrize("d", [1, 2, 5])
def test_ues_defining_property(d):
    ket = maximally_entangled_ket(d)
    form = schmidt(ket, d, d)
    assert form.rank == d
    np.testing.assert_allclose(form.coefficients, np.full(d, 1 / np.sqrt(d)), atol=1e-10)


def test_ues_small_cases():
    np.testing.assert_allclose(maximally_entangled_ket(1), [1.0])
    np.testing.assert_allclose(maximally_entangled_ket(2), np.array([1, 0, 0, 1]) / np.sqrt(2))


def test_conversion_probability_uniform_and_rank_deficient():
    assert conversion_probability(spectrum(0.25, 0.25, 0.25, 0.25), 4) == pytest.approx(1.0)
    assert conversion_probability(spectrum(1.0), 2) == 0.0


def test_conversion_probability_filter_case():
    assert conversion_probability(spectrum(0.8, 0.2), 2) == pytest.approx(0.4, abs=1e-12)


def test_conversion_probability_matches_filter_oracle():
    rng = np.random.default_rng(1)
    for rank in (2, 3):
        for _ in range(8):
            lam2 = rng.dirichlet(np.ones(rank))
            lam2 = np.sort(lam2)[::-1]
            form = spectrum(*lam2)
            got = conversion_probability(form, rank)
            oracle = filter_conversion_max(np.sqrt(lam2), rank)
            assert got == pytest.approx(oracle, abs=1e-6)


def test_conversion_probability_majorization_agreement():
    rng = np.random.default_rng(2)
    for _ in range(30):
        lam2 = np.sort(rng.dirichlet(np.ones(3)))[::-1]
        d = 2
        got = conversion_probability(spectrum(*lam2), d)
        assert (got >= 1.0 - 1e-9) == majorized_by_uniform(lam2, d)


def test_conversion_probability_monotone_in_d():
    lam2 = (0.4, 0.3, 0.2, 0.1)
    values = [conversion_probability(spectrum(*lam2), d) for d in (1, 2, 3, 4)]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


@st.composite
def _descending_values(draw):
    """A stack of 1-4 rows of descending Schmidt values at rank 1-12, each
    row's squares summing to a weight in (0, 1], and a ``d`` up to the rank."""
    rank, rows = draw(st.integers(1, 12)), draw(st.integers(1, 4))
    squares = np.array(draw(st.lists(st.lists(st.floats(0.0, 1.0), min_size=rank, max_size=rank),
                                     min_size=rows, max_size=rows)))
    squares = np.sort(squares + 1e-3, axis=1)[:, ::-1]
    weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=rows, max_size=rows)))
    return np.sqrt(squares * (weights / squares.sum(1))[:, None]), draw(st.integers(1, rank))


@given(_descending_values())
def test_vidal_optimum_matches_the_cut_loop(case):
    values, d = case
    stacked = entanglement._vidal_optimum(values, d)
    assert stacked.shape == (len(values),)
    for row, got in zip(values, stacked):
        want = vidal_by_cuts(row, d)
        assert abs(got - want) <= 1e-15
        assert abs(entanglement._vidal_optimum(row, d) - want) <= 1e-15


def test_vidal_optimum_needs_the_whole_tail():
    # the closed form min(1, d s_d^2) reads 2 * 0.1 = 0.2 here, but the cut
    # at l = 1 sums the tail 0.4, so the optimum is 2 * 0.4 = 0.8
    form = spectrum(0.6, 0.1, 0.1, 0.1, 0.1)
    assert conversion_probability(form, 2) == pytest.approx(0.8, abs=1e-15)
    shared = np.diag(form.coefficients).reshape(-1)
    assert teleport_probability_pure(shared, 5, 5, 2).probability == pytest.approx(0.8, abs=1e-15)


def test_uuqc_to_ues_identity_channel():
    weight, ket = uuqc_to_ues(KrausChannel((np.eye(2, dtype=complex),)))
    assert weight == pytest.approx(1.0, abs=1e-10)
    assert abs(np.vdot(maximally_entangled_ket(2), ket)) ** 2 == pytest.approx(1.0, abs=1e-10)


def test_uuqc_to_ues_weight_and_output():
    rng = np.random.default_rng(3)
    ch, u, thetas, v1, v2 = make_uuqc(rng, 2, 3, 3, 2, 2, [0.3, 0.5], with_noise=True)
    weight, ket = uuqc_to_ues(ch, v1, v2, 2, 2)
    assert weight == pytest.approx(0.8, abs=1e-10)
    target = tensor_product(np.eye(2), u) @ maximally_entangled_ket(2)
    assert abs(np.vdot(target, ket)) ** 2 == pytest.approx(1.0, abs=1e-10)
    assert is_rank_d_ues(ket, 2, 2, 2)


def test_uuqc_to_ues_matches_projected_choi_reference():
    # env_in, env_out > 1 and proper subspaces on both sides
    rng = np.random.default_rng(5)
    for d, dim1, dim2, env_in, env_out, probs in [
        (2, 4, 3, 2, 3, [0.5, 0.25]),
        (3, 5, 4, 3, 2, [0.2, 0.1, 0.3, 0.15]),
    ]:
        ch, u, _, v1, v2 = make_uuqc(rng, d, dim1, dim2, env_in, env_out, probs, with_noise=True)
        weight, ket = uuqc_to_ues(ch, v1, v2, env_in, env_out)
        sigma = projected_choi_by_kron(ch.stack, v1.columns, v2.columns, env_in, env_out)
        assert weight == pytest.approx(np.trace(sigma).real, abs=1e-10)
        assert weight == pytest.approx(sum(probs), abs=1e-10)
        np.testing.assert_allclose(weight * np.outer(ket, ket.conj()), sigma, atol=1e-10)
        target = tensor_product(np.eye(d), u) @ maximally_entangled_ket(d)
        assert abs(np.vdot(target, ket)) ** 2 == pytest.approx(1.0, abs=1e-10)


def test_uuqc_to_ues_bit_flip():
    flip = np.array([[0, 1], [1, 0]], dtype=complex)
    weight, ket = uuqc_to_ues(KrausChannel((flip,)))
    expect = np.array([0, 1, 1, 0]) / np.sqrt(2)
    assert weight == pytest.approx(1.0, abs=1e-10)
    assert abs(np.vdot(expect, ket)) ** 2 == pytest.approx(1.0, abs=1e-10)


def test_uuqc_to_ues_refuses_non_certified():
    with pytest.raises(ValueError):
        uuqc_to_ues(KrausChannel((np.diag([1.0, 0.5]).astype(complex),)))


def test_round_trip_probability_invariant():
    rng = np.random.default_rng(4)
    for d in (2, 3):
        probs = [0.3, 0.4]
        ch, u, thetas, v1, v2 = make_uuqc(rng, d, d + 1, d + 1, 2, 2, probs)
        cert = certify_uuqc(ch, v1, v2, 2, 2)
        weight, _ = uuqc_to_ues(ch, v1, v2, 2, 2)
        assert weight == pytest.approx(cert.total_probability, abs=1e-9)


@pytest.mark.parametrize("d", [2, 3])
def test_teleportation_channel_is_unit_probability_identity(d):
    ch = ues_to_uuqc(d)
    assert len(ch.stack) == d * d
    cert = certify_uuqc(ch)
    assert cert.is_uuqc
    assert cert.total_probability == pytest.approx(1.0, abs=1e-10)
    np.testing.assert_allclose(cert.unitary, np.eye(d), atol=1e-9)
    for k in range(5):
        psi = random_ket(d, k)
        rho = np.outer(psi, psi.conj())
        np.testing.assert_allclose(apply(ch, rho), rho, atol=1e-10)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_teleportation_elements_are_scaled_identities(d):
    ch = ues_to_uuqc(d)
    assert len(ch.stack) == d * d
    for elem in ch.stack:
        np.testing.assert_allclose(elem, np.eye(d) / d, atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_teleportation_bras_are_bell_kets(d):
    # bra x is the conjugate of (W_x (x) I)|phi>, built here by Kronecker products
    bras, _ = teleportation_parts(d)
    phi = maximally_entangled_ket(d)
    for bra, w in zip(bras, shift_clock_unitaries(d)):
        assert bra.shape == (1, d * d)
        np.testing.assert_allclose(bra, np.conj(np.kron(w, np.eye(d)) @ phi)[None], atol=1e-12)


def test_teleportation_outcomes_uniform():
    d = 3
    ch = ues_to_uuqc(d)
    psi = random_ket(d, 9)
    rho = np.outer(psi, psi.conj())
    probs = [np.trace(e @ rho @ e.conj().T).real for e in ch.stack]
    np.testing.assert_allclose(probs, np.full(d * d, 1 / d**2), atol=1e-10)


def test_teleportation_measurement_is_rank_one():
    # the sender-side Kraus operators can be rank-one without losing
    # probability; the standard scheme realizes exactly that
    for d in (2, 3):
        bras, corrections = teleportation_parts(d)
        assert len(bras) == d * d
        for bra in bras:
            assert np.linalg.matrix_rank(bra) == 1
        # reconstruct the channel elements from the parts
        ch = ues_to_uuqc(d)
        phi = maximally_entangled_ket(d)
        for bra, corr, elem in zip(bras, corrections, ch.stack):
            manual = np.zeros((d, d), dtype=complex)
            for i in range(d):
                e_i = np.zeros(d)
                e_i[i] = 1.0
                joint = np.kron(e_i, phi)  # input (x) held pair
                collapsed = bra @ joint.reshape(d * d, d)
                manual[:, i] = corr @ collapsed.reshape(d)
            np.testing.assert_allclose(manual, elem, atol=1e-10)


def test_teleport_probability_pure_cases():
    assert teleport_probability_pure(maximally_entangled_ket(2), 2, 2, 2).probability == pytest.approx(1.0)
    lam = np.sqrt([0.8, 0.2])
    shared = np.kron([1, 0], [1, 0]) * lam[0] + np.kron([0, 1], [0, 1]) * lam[1]
    cert = teleport_probability_pure(shared, 2, 2, 2)
    assert cert.probability == pytest.approx(0.4, abs=1e-9)
    assert cert.probability == pytest.approx(
        filter_conversion_max(lam, 2), abs=1e-4
    )
    product = np.kron([1, 0], np.array([1, 1]) / np.sqrt(2))
    assert teleport_probability_pure(product, 2, 2, 2).probability == 0.0


def test_check_mixed_nonzero_pure_entangled():
    phi = maximally_entangled_ket(2)
    rho = np.outer(phi, phi.conj())
    cert = check_mixed_nonzero(
        rho, 2, 2, 2, SubspaceIsometry(np.eye(2)), SubspaceIsometry(np.eye(2))
    )
    assert cert.probability == pytest.approx(1.0, abs=1e-9)
    assert cert.witness_subspaces is not None


def test_check_mixed_nonzero_maximally_mixed():
    rho = np.eye(4) / 4
    cert = search_mixed_nonzero(rho, 2, 2, 2)
    assert cert.probability == 0.0
    assert cert.witness_subspaces is None


def test_check_mixed_nonzero_block_mixture():
    phi = maximally_entangled_ket(2)
    v01 = SubspaceIsometry.from_indices(3, (0, 1))
    emb = np.kron(v01.columns, v01.columns) @ phi
    ket22 = np.zeros(9)
    ket22[8] = 1.0
    rho = 0.5 * np.outer(emb, emb.conj()) + 0.5 * np.outer(ket22, ket22)
    cert = check_mixed_nonzero(rho, 3, 3, 2, v01, v01)
    assert cert.probability == pytest.approx(0.5, abs=1e-9)
    swept = search_mixed_nonzero(rho, 3, 3, 2)
    assert swept.probability > 0.0


def test_check_mixed_nonzero_rejects_wrong_ranks():
    with pytest.raises(ValueError):
        check_mixed_nonzero(
            np.eye(4) / 4, 2, 2, 2,
            SubspaceIsometry.from_indices(2, (0,)), SubspaceIsometry(np.eye(2)),
        )


def _shared_state(rng, dim_a, dim_b, d, kind):
    """``"block"``: a rank-``d`` entangled ket on a random ``d x d`` block of
    basis states plus diagonal noise on basis states outside the block (one
    witness pair).  ``"pure"``: a random pure state (generically every pair
    witnesses, so the sweep order decides).  ``"product"``: a product of
    mixed states (no basis-subspace block is pure and entangled)."""
    if kind == "product":
        ga, gb = rand_complex(rng, (dim_a, dim_a)), rand_complex(rng, (dim_b, dim_b))
        rho = np.kron(ga @ ga.conj().T, gb @ gb.conj().T)
        return rho / np.trace(rho).real
    if kind == "pure":
        psi = random_ket(dim_a * dim_b, rng)
        return np.outer(psi, psi.conj())
    ia = rng.choice(dim_a, d, replace=False)
    ib = rng.choice(dim_b, d, replace=False)
    coeff = np.zeros((dim_a, dim_b), dtype=complex)
    coeff[np.ix_(ia, ib)] = random_unitary(d, rng) * rng.uniform(0.3, 1.0, d)
    psi = coeff.reshape(-1) / np.linalg.norm(coeff)
    noise = rng.uniform(size=(dim_a, dim_b))
    noise[np.ix_(ia, ib)] = 0.0
    rho = np.outer(psi, psi.conj())
    if noise.any():
        w = rng.uniform(0.3, 0.9)
        rho = w * rho + (1 - w) * np.diag(noise.reshape(-1) / noise.sum())
    return rho


def _basis_indices(v: SubspaceIsometry) -> list:
    return list(np.nonzero(v.columns.T)[1])


def _low_rank_state(rng, dim_a, dim_b, rank, sparse):
    """A random state of rank at most ``rank``; ``sparse`` keeps about a
    third of the amplitudes, so basis-subset witnesses become likely."""
    g = rand_complex(rng, (dim_a * dim_b, rank))
    if sparse:
        g = g * (rng.uniform(size=g.shape) < 0.3)
        g[rng.integers(dim_a * dim_b), 0] = 1.0
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


@given(
    seed=st.integers(0, 2**32 - 1),
    dim_a=st.integers(2, 4),
    dim_b=st.integers(2, 4),
    d=st.integers(2, 3),
    kind=st.sampled_from(["block", "pure", "product", "low-rank", "sparse"]),
    rank=st.integers(1, 3),
)
def test_filter_search_never_weaker_than_pairwise_oracle(seed, dim_a, dim_b, d, kind, rank):
    rng = np.random.default_rng(seed)
    fits = d <= min(dim_a, dim_b)
    if kind in ("low-rank", "sparse"):
        rho = _low_rank_state(rng, dim_a, dim_b, rank, kind == "sparse")
    else:
        rho = _shared_state(rng, dim_a, dim_b, d, kind if fits else "product")
    got = search_mixed_nonzero(rho, dim_a, dim_b, d)
    want = search_mixed_nonzero_by_pairs(rho, dim_a, dim_b, d)
    if want.probability > 0.0:
        assert got.probability > 0.0
    if kind in ("block", "pure", "product"):
        assert (got.probability > 0.0) == (fits and kind != "product")
        assert got.probability >= want.probability - 1e-12
    if got.probability > 0.0:
        again = check_mixed_nonzero(rho, dim_a, dim_b, d, *got.witness_subspaces)
        assert again.probability == got.probability
    else:
        assert got.witness_subspaces is None


def test_baseline_choi_state_reaches_one_half():
    # Normalised Choi state of sqrt(0.6) diag(1, 1, 0) and
    # sqrt(0.4) (|0><0| + |2><1|) on span(e0, e1): the receiver filter
    # [[1, 0, 0], [0, 1, 1]] / sqrt(2) leaves the canonical ket with weight 0.5.
    first = np.zeros((2, 3))
    first[0, 0] = first[1, 1] = np.sqrt(0.6)
    second = np.zeros((2, 3))
    second[0, 0] = second[1, 2] = np.sqrt(0.4)
    kets = np.stack([first.reshape(-1), second.reshape(-1)]) / np.sqrt(2)
    rho = kets.T @ kets
    cert = search_mixed_nonzero(rho, 2, 3, 2)
    assert cert.probability == pytest.approx(0.5, abs=1e-9)
    va, vb = cert.witness_subspaces
    np.testing.assert_allclose(abs(va.projector()), np.eye(2), atol=1e-12)
    np.testing.assert_allclose(abs(vb.projector()), [[1, 0, 0], [0, 0.5, 0.5], [0, 0.5, 0.5]], atol=1e-12)
    assert check_mixed_nonzero(rho, 2, 3, 2, va, vb).probability == cert.probability
    # the basis-subset pairs hold no witness
    assert search_mixed_nonzero_by_pairs(rho, 2, 3, 2).probability == 0.0


def _qubit_times_six(rng):
    """Half a maximally entangled ket on a random plane of C^6 (weight 0.7),
    plus noise on the qubit's |0> times a direction outside that plane."""
    frame = random_unitary(6, rng)
    psi = (np.kron([1, 0], frame[:, 0]) + np.kron([0, 1], frame[:, 1])) / np.sqrt(2)
    noise = np.kron([1, 0], frame[:, 2])
    return 0.7 * np.outer(psi, psi.conj()) + 0.3 * np.outer(noise, noise.conj())


def test_qubit_witness_beyond_four_levels():
    rho = _qubit_times_six(np.random.default_rng(12))
    cert = search_mixed_nonzero(rho, 2, 6, 2)
    assert cert.probability == pytest.approx(0.7, abs=1e-9)
    assert check_mixed_nonzero(rho, 2, 6, 2, *cert.witness_subspaces).probability == cert.probability
    # the same state with its factors swapped, and the witness pair with them
    swapped = rho.reshape(2, 6, 2, 6).transpose(1, 0, 3, 2).reshape(12, 12)
    flipped = search_mixed_nonzero(swapped, 6, 2, 2)
    assert flipped.probability == pytest.approx(0.7, abs=1e-9)
    assert [v.ambient_dim for v in flipped.witness_subspaces] == [6, 2]


def test_qubit_product_beyond_four_levels_has_no_witness():
    rng = np.random.default_rng(13)
    ga, gb = rand_complex(rng, (2, 2)), rand_complex(rng, (6, 6))
    rho = np.kron(ga @ ga.conj().T, gb @ gb.conj().T)
    cert = search_mixed_nonzero(rho / np.trace(rho).real, 2, 6, 2)
    assert cert.probability == 0.0
    assert cert.witness_subspaces is None


def test_check_mixed_nonzero_refuses_a_pure_product_projection():
    rho = np.zeros((4, 4))
    rho[0, 0] = 1.0
    cert = check_mixed_nonzero(rho, 2, 2, 2, SubspaceIsometry(np.eye(2)), SubspaceIsometry(np.eye(2)))
    assert cert.probability == 0.0
    assert cert.witness_subspaces is None


@pytest.mark.parametrize("dim_a, dim_b", [(3, 4), (4, 3)])
def test_search_takes_the_first_basis_subset(dim_a, dim_b):
    # every subset of a generic pure state holds a solution
    psi = random_ket(dim_a * dim_b, np.random.default_rng(15))
    cert = search_mixed_nonzero(np.outer(psi, psi.conj()), dim_a, dim_b, 2)
    swept = cert.witness_subspaces[0 if dim_a < dim_b else 1]
    np.testing.assert_allclose(swept.projector(), np.diag([1, 1, 0]), atol=1e-12)


def test_near_solution_does_not_hide_a_later_subset():
    # Rows {0, 1} hold an entangled ket made impure by a 1e-6 eigenket that
    # no filter removes, so subset (0, 1) has only a near solution; rows
    # {2, 3} hold an exact witness.
    rng = np.random.default_rng(16)
    near, exact, flaw = np.zeros((3, 4, 4), dtype=complex)
    near[:2, :2] = random_unitary(2, rng) / np.sqrt(2)
    exact[2:, 2:] = random_unitary(2, rng) / np.sqrt(2)
    flaw[1, 0] = 1.0
    near, exact, flaw = (k.reshape(-1) for k in (near, exact, flaw))
    rho = 0.5 * (1 - 1e-6) * np.outer(near, near.conj()) + 0.5e-6 * np.outer(flaw, flaw)
    rho = rho + 0.5 * np.outer(exact, exact.conj())
    cert = search_mixed_nonzero(rho, 4, 4, 2)
    assert cert.probability > 0.0
    np.testing.assert_allclose(cert.witness_subspaces[0].projector(), np.diag([0, 0, 1, 1]), atol=1e-12)


def test_sweep_bound_applies_to_the_smaller_factor():
    with pytest.raises(ValueError, match="smaller factor"):
        search_mixed_nonzero(np.eye(25) / 25, 5, 5, 2)


@pytest.mark.parametrize("search", [True, False])
@pytest.mark.parametrize("make", [
    lambda rng: rand_complex(rng, (9, 9)),  # not Hermitian
    lambda rng: -np.eye(9) / 9,  # not positive semidefinite
    lambda rng: np.eye(9) / 18,  # trace 0.5
    lambda rng: np.diag([np.nan] + [1 / 8] * 8),  # not finite
], ids=["non-hermitian", "negative", "wrong-trace", "not-finite"])
def test_mixed_checks_reject_non_density_matrices(make, search):
    rho = make(np.random.default_rng(14))
    v01 = SubspaceIsometry.from_indices(3, (0, 1))
    with pytest.raises(ValueError, match="density matrix"):
        if search:
            search_mixed_nonzero(rho, 3, 3, 2)
        else:
            check_mixed_nonzero(rho, 3, 3, 2, v01, v01)


@pytest.mark.parametrize("d", [0, -1])
def test_mixed_checks_reject_empty_targets(d):
    rho = np.eye(4) / 4
    with pytest.raises(ValueError, match="d must be >= 1"):
        search_mixed_nonzero(rho, 2, 2, d)
    with pytest.raises(ValueError, match="d must be >= 1"):
        check_mixed_nonzero(rho, 2, 2, d, SubspaceIsometry(np.eye(2)), SubspaceIsometry(np.eye(2)))


@pytest.mark.parametrize("d", [0, -1])
def test_is_rank_d_ues_rejects_empty_targets(d):
    with pytest.raises(ValueError, match="d must be >= 1"):
        is_rank_d_ues(maximally_entangled_ket(2), 2, 2, d)


def test_sweep_checks_the_state_shape():
    with pytest.raises(ValueError, match="state shape"):
        search_mixed_nonzero(np.eye(6) / 6, 2, 2, 2)


def _pure_product(rng):
    psi = np.kron(random_ket(4, rng), random_ket(4, rng))
    return np.outer(psi, psi.conj())


def _isotropic(rng):
    # every block is mixed, with an entangled top eigenvector
    psi = random_ket(16, rng)
    return 0.5 * np.outer(psi, psi.conj()) + 0.5 * np.eye(16) / 16


def _faint_witness(rng):
    # the only pure, entangled block has weight 1e-10, below tol
    phi = np.zeros((4, 4), dtype=complex)
    phi[:2, :2] = random_unitary(2, rng) / np.sqrt(2)
    corner = np.zeros(16)
    corner[15] = 1.0
    phi = phi.reshape(-1)
    return 1e-10 * np.outer(phi, phi.conj()) + (1 - 1e-10) * np.diag(corner)


@pytest.mark.parametrize("make, calls", [
    (lambda rng: _shared_state(rng, 4, 4, 2, "product"), 0),
    (_pure_product, 0),
    (_isotropic, 0),
    (_faint_witness, 0),
    (lambda rng: _shared_state(rng, 4, 4, 2, "block"), 1),
    (lambda rng: _shared_state(rng, 4, 4, 2, "pure"), 1),
])
def test_sweep_certifies_only_the_first_passing_pair(make, calls):
    # only the first subset with a filter solution reaches check_mixed_nonzero's
    # step, and the state is validated once, by the search
    rho = make(np.random.default_rng(8))
    with mock.patch.object(entanglement, "_witness_certificate",
                           wraps=entanglement._witness_certificate) as check, \
            mock.patch.object(entanglement, "check_mixed_nonzero") as public, \
            mock.patch.object(entanglement, "_density_eigh", wraps=entanglement._density_eigh) as validate:
        cert = search_mixed_nonzero(rho, 4, 4, 2)
    assert public.call_count == 0 and validate.call_count == 1
    assert check.call_count == calls
    assert (cert.probability > 0.0) == (calls == 1)

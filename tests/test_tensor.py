"""Reductions, transposes, norms, spectra and local-support compression."""

import math

import numpy as np
import pytest

from gwlab import (
    DensityOperator,
    Partition,
    PureState,
    SubsystemLayout,
    build_w_qubit,
    coarse_grain,
    coarse_grain_state,
    compress_local_support,
    partial_trace,
    partial_transpose,
    schmidt_spectrum,
    superpose_with_vacuum,
    trace_norm,
)
from conftest import rand_unit, random_gw_spec

FIG1_AMPS = (math.sqrt(0.5), 0.5, 0.4, 0.3)


def test_layout_validation():
    assert SubsystemLayout((2, 3, 2)).total_dim == 12
    with pytest.raises(ValueError):
        SubsystemLayout((2, 1))
    with pytest.raises(ValueError):
        SubsystemLayout(())
    with pytest.raises(ValueError):
        SubsystemLayout((2,) * 21)  # above the dense-dimension cap


def test_partial_trace_bell_is_maximally_mixed(bell_state):
    rho = partial_trace(bell_state, {0})
    np.testing.assert_allclose(rho.matrix, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_product_state():
    psi = PureState(np.array([0, 1, 0, 0]), SubsystemLayout((2, 2)))  # |01>
    rho = partial_trace(psi, {1})
    np.testing.assert_allclose(rho.matrix, np.diag([0.0, 1.0]), atol=1e-12)


def test_partial_trace_four_qubit_reduction():
    # tracing the least significant qubit leaves a rank-2 operator: the
    # weight on |0001> collapses onto the three-party vacuum
    psi = build_w_qubit(FIG1_AMPS)
    rho = partial_trace(psi, {0, 1, 2})
    phi = np.zeros(8, dtype=complex)
    phi[1] = 0.4  # |001>
    phi[2] = 0.5  # |010>
    phi[4] = math.sqrt(0.5)  # |100>
    expected = np.outer(phi, phi.conj())
    expected[0, 0] += 0.09
    np.testing.assert_allclose(rho.matrix, expected, atol=1e-12)
    assert rho.rank() == 2


def test_partial_trace_errors(bell_state):
    with pytest.raises(ValueError):
        partial_trace(bell_state, set())
    with pytest.raises(IndexError):
        partial_trace(bell_state, {5})


def test_partial_trace_density_input_matches_pure(rng):
    psi = PureState(rand_unit(rng, 12), SubsystemLayout((2, 3, 2)))
    for keep in ({0}, {1}, {0, 2}, {1, 2}):
        a = partial_trace(psi, keep)
        b = partial_trace(psi.density(), keep)
        np.testing.assert_allclose(a.matrix, b.matrix, atol=1e-12)


def test_partial_transpose_diagonal_invariant():
    rho = DensityOperator(np.diag([0.4, 0.3, 0.2, 0.1]), SubsystemLayout((2, 2)))
    np.testing.assert_allclose(partial_transpose(rho, 0), rho.matrix, atol=1e-15)


def test_partial_transpose_bell_spectrum(bell_state):
    pt = partial_transpose(bell_state.density(), 0)
    eigs = np.sort(np.linalg.eigvalsh(pt))
    np.testing.assert_allclose(eigs, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)
    assert abs(np.trace(pt) - 1.0) < 1e-12
    np.testing.assert_allclose(pt, pt.conj().T, atol=1e-12)


def test_partial_transpose_product_stays_positive(rng):
    for _ in range(5):
        a = rand_unit(rng, 2)
        b = rand_unit(rng, 3)
        mat = np.kron(np.outer(a, a.conj()), np.outer(b, b.conj()))
        rho = DensityOperator(mat, SubsystemLayout((2, 3)))
        pt = partial_transpose(rho, 0)
        assert np.linalg.eigvalsh(pt).min() > -1e-12


def test_trace_norm_identity():
    assert abs(trace_norm(np.eye(4)) - 4.0) < 1e-12


def test_trace_norm_bell_partial_transpose(bell_state):
    pt = partial_transpose(bell_state.density(), 0)
    assert abs(trace_norm(pt) - 2.0) < 1e-12


def test_trace_norm_projector_difference(bell_state):
    # two-path oracle: eigensolve of the difference and 2 sqrt(1 - lambda_0)
    diff = bell_state.density().matrix.copy()
    diff[0, 0] -= 1.0
    by_eig = float(np.abs(np.linalg.eigvalsh(diff)).sum())
    assert abs(trace_norm(diff) - by_eig) < 1e-12
    assert abs(trace_norm(diff) - math.sqrt(2.0)) < 1e-12


def test_trace_norm_dominates_trace(rng):
    for _ in range(10):
        m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        m = m + m.conj().T
        assert trace_norm(m) >= abs(np.trace(m)) - 1e-10


def test_trace_norm_rejects_non_square():
    with pytest.raises(ValueError):
        trace_norm(np.ones((2, 3)))


def test_schmidt_bell_and_product(bell_state):
    np.testing.assert_allclose(
        schmidt_spectrum(bell_state, ({0}, {1})).coefficients, [0.5, 0.5], atol=1e-12
    )
    prod = PureState(np.array([0, 0, 1, 0]), SubsystemLayout((2, 2)))
    np.testing.assert_allclose(
        schmidt_spectrum(prod, ({0}, {1})).coefficients, [1.0, 0.0], atol=1e-12
    )


def test_schmidt_four_qubit_merged_cut():
    # purity of the merged block matches the closed-form polynomial in the
    # amplitudes: a1^4 + 2 a1^2 (a2^2+a3^2) + (a2^2+a3^2)^2 + a4^4
    a1, a2, a3, a4 = 3 / 4, 1 / 2, math.sqrt(2) / 4, 1 / 4
    psi = build_w_qubit((a1, a2, a3, a4))
    lams = schmidt_spectrum(psi, ({0, 1, 2}, {3})).coefficients
    expected_purity = a1**4 + 2 * a1**2 * (a2**2 + a3**2) + (a2**2 + a3**2) ** 2 + a4**4
    assert abs(expected_purity - 113 / 128) < 1e-15
    assert abs(float((lams**2).sum()) - 113 / 128) < 1e-12
    assert abs(float(lams.sum()) - 1.0) < 1e-10


def test_schmidt_requires_cover(bell_state):
    with pytest.raises(ValueError):
        schmidt_spectrum(bell_state, ({0}, {0, 1}))
    with pytest.raises(ValueError):
        schmidt_spectrum(bell_state, ({0}, set()))


def test_coarse_grain_layouts():
    dims = (2, 2, 2, 2)
    assert coarse_grain(dims, Partition.of([{0}, {1, 2}, {3}])) == (2, 4, 2)
    assert coarse_grain(dims, Partition.singletons(4)) == dims
    assert coarse_grain((2, 2, 2), Partition.of([{0, 1, 2}])) == (8,)
    # parties in no block are left out; a party past the dims is refused
    assert coarse_grain((2, 3, 5, 7), Partition.of([{3}, {0, 2}])) == (7, 10)
    with pytest.raises(IndexError, match="party 4 out of range for 4 parties"):
        coarse_grain(dims, Partition.of([{0}, {4}]))


def _block_products(dims, partition):
    return tuple(math.prod(dims[p] for p in block) for block in partition.sorted_blocks)


def test_coarse_grain_matches_per_block_products(rng):
    # random mixed local dimensions and block shapes, then a second merge of
    # the merged (bignum) dimensions
    for _ in range(50):
        n = int(rng.integers(1, 40))
        dims = tuple(rng.integers(2, 6, size=n).tolist())
        partition = Partition(rng.permutation(np.arange(n) % int(rng.integers(1, n + 1))))
        merged = coarse_grain(dims, partition)
        assert merged == _block_products(dims, partition)
        m = len(merged)
        again = Partition(rng.permutation(np.arange(m) % min(2, m)))
        assert coarse_grain(merged, again) == _block_products(merged, again)
    big = coarse_grain((7,) * 300, Partition(np.arange(300) % 3))
    twice = coarse_grain(big * 2, Partition([0, 1, 0, 1, 1, 0]))
    assert twice == (7**300, 7**300)


def test_coarse_grain_of_a_million_parties_in_two_blocks():
    # a block's dimension is u ** count, not a product of 5 * 10**5 factors
    n = 10**6
    merged = coarse_grain((2,) * n, Partition(np.repeat([0, 1], n // 2)))
    assert merged == (2 ** (n // 2),) * 2


def test_full_merge_gives_trivial_spectrum(rng):
    psi = PureState(rand_unit(rng, 8), SubsystemLayout((2, 2, 2)))
    merged = coarse_grain_state(psi, Partition.of([{0, 1}, {2}]))
    lams = schmidt_spectrum(merged, ({0}, {1})).coefficients
    ref = schmidt_spectrum(psi, ({0, 1}, {2})).coefficients
    np.testing.assert_allclose(lams, ref, atol=1e-12)


def test_coarse_grain_commutes_with_partial_trace(rng):
    psi = PureState(rand_unit(rng, 16), SubsystemLayout((2, 2, 2, 2)))
    partition = Partition.of([{0}, {1, 2}, {3}])
    merged = coarse_grain_state(psi, partition)
    via_merge = partial_trace(merged, {1})
    direct = partial_trace(psi, {1, 2})
    np.testing.assert_allclose(via_merge.matrix, direct.matrix, atol=1e-12)


def test_compress_recovers_qubit_structure(rng):
    spec = random_gw_spec(rng, n_min=4, n_max=4)
    psi = superpose_with_vacuum(spec)
    merged = coarse_grain_state(psi, Partition.of([{0}, {1, 2}, {3}]))
    compressed, layout = compress_local_support(merged)
    assert layout.dims == (2, 2, 2)
    before = schmidt_spectrum(merged, ({1}, {0, 2})).coefficients
    after = schmidt_spectrum(compressed, ({1}, {0, 2})).coefficients
    np.testing.assert_allclose(before[:2], after[:2], atol=1e-10)
    assert float(np.abs(before[2:]).sum()) < 1e-10


def test_compress_full_rank_state_unchanged(rng):
    psi = PureState(rand_unit(rng, 4), SubsystemLayout((2, 2)))
    compressed, layout = compress_local_support(psi)
    assert layout.dims == (2, 2)
    np.testing.assert_allclose(compressed.amplitudes, psi.amplitudes, atol=1e-12)


def test_compress_pads_rank_one_marginals():
    vac = np.zeros(8)
    vac[0] = 1.0
    psi = PureState(vac, SubsystemLayout((2, 2, 2)))
    compressed, layout = compress_local_support(psi)
    assert layout.dims == (2, 2, 2)
    np.testing.assert_allclose(compressed.amplitudes, psi.amplitudes, atol=1e-12)


def test_compress_schmidt_invariance_before_after(rng):
    for _ in range(5):
        spec = random_gw_spec(rng, n_min=3, n_max=5)
        psi = superpose_with_vacuum(spec)
        n = spec.n
        partition = Partition.of([{0}, set(range(1, n))])
        merged = coarse_grain_state(psi, partition)
        compressed, _ = compress_local_support(merged)
        s_before = schmidt_spectrum(merged, ({0}, {1})).coefficients[:2]
        s_after = schmidt_spectrum(compressed, ({0}, {1})).coefficients[:2]
        np.testing.assert_allclose(s_before, s_after, atol=1e-10)


def test_marginals_of_random_family_states(rng):
    # every single-party marginal of a generated state is a unit-trace
    # positive operator
    for _ in range(200):
        spec = random_gw_spec(rng, n_min=2, n_max=6)
        psi = superpose_with_vacuum(spec)
        party = int(rng.integers(0, spec.n))
        rho = partial_trace(psi, {party})
        assert abs(np.trace(rho.matrix).real - 1.0) < 1e-12
        assert np.linalg.eigvalsh(rho.matrix).min() > -1e-10


def test_density_operator_validation():
    with pytest.raises(ValueError):
        DensityOperator(np.array([[0.5, 0.5], [0.4, 0.5]]), SubsystemLayout((2,)))
    with pytest.raises(ValueError):
        DensityOperator(np.eye(2), SubsystemLayout((2,)))  # trace 2
    with pytest.raises(ValueError):
        PureState(np.array([1.0, 0.5]), SubsystemLayout((2,)))  # norm off


def test_partial_trace_ignores_keep_order():
    psi = build_w_qubit(FIG1_AMPS)
    first = partial_trace(psi, {2, 0})
    again = partial_trace(psi, [0, 2])
    np.testing.assert_array_equal(first.matrix, again.matrix)
    assert first.layout == again.layout
    # a density-operator input gives the same reduction
    np.testing.assert_allclose(
        partial_trace(psi.density(), {1}).matrix, partial_trace(psi, {1}).matrix,
        atol=1e-12,
    )


def test_schmidt_spectrum_ignores_side_order():
    psi = build_w_qubit(FIG1_AMPS)
    first = schmidt_spectrum(psi, ({2, 0}, [3, 1]))
    again = schmidt_spectrum(psi, ([0, 2], {1, 3}))
    np.testing.assert_array_equal(again.coefficients, first.coefficients)
    # the sides are interchangeable
    swapped = schmidt_spectrum(psi, ({1, 3}, {0, 2}))
    np.testing.assert_allclose(swapped.coefficients, first.coefficients, atol=1e-12)

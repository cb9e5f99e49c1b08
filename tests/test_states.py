"""State-family constructors, purification and serialization."""

import math

import numpy as np
import pytest

from gwlab import (
    GWBlocks,
    GWSpec,
    Partition,
    build_w_qubit,
    coarse_grain_state,
    compress_local_support,
    gw_spec_from_json,
    gw_spec_to_json,
    mix_with_vacuum,
    partial_trace,
    purify_mixture,
    reduce_to_parties,
    superpose_with_vacuum,
)
from conftest import rand_unit, random_gw_spec


def test_standard_w_state():
    psi = build_w_qubit(np.ones(3) / math.sqrt(3))
    amps = psi.amplitudes
    for idx in (1, 2, 4):
        assert abs(amps[idx] - 1 / math.sqrt(3)) < 1e-12
    assert abs(np.linalg.norm(amps) - 1.0) < 1e-12


def test_four_qubit_amplitude_placement():
    psi = build_w_qubit((math.sqrt(0.5), 0.5, 0.4, 0.3))
    amps = psi.amplitudes
    assert abs(amps[8] - math.sqrt(0.5)) < 1e-12  # |1000>
    assert abs(amps[4] - 0.5) < 1e-12  # |0100>
    assert abs(amps[2] - 0.4) < 1e-12  # |0010>
    assert abs(amps[1] - 0.3) < 1e-12  # |0001>


def test_single_excitation_is_product():
    psi = build_w_qubit((1.0, 0.0, 0.0))
    assert abs(psi.amplitudes[4] - 1.0) < 1e-12
    rho = partial_trace(psi, {1})
    assert abs(rho.matrix[0, 0] - 1.0) < 1e-12


def test_normalization_rejected_beyond_tolerance():
    with pytest.raises(ValueError):
        build_w_qubit((0.8, 0.8))
    # within tolerance it silently renormalizes
    eps = 5e-11
    psi = build_w_qubit((math.sqrt(0.5 + eps), math.sqrt(0.5)))
    assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-14


def test_qudit_matches_qubit_special_case(rng):
    amps = rand_unit(rng, 4)
    a = build_w_qubit(amps)
    b = superpose_with_vacuum(GWSpec(n=4, d=2, amplitudes=amps.reshape(4, 1)))
    np.testing.assert_allclose(a.amplitudes, b.amplitudes, atol=1e-14)


def test_qudit_weight_one_support():
    spec = GWSpec(n=2, d=3, amplitudes=np.full((2, 2), 0.5))
    psi = superpose_with_vacuum(spec)
    t = psi.amplitudes.reshape(3, 3)
    for i in range(3):
        for j in range(3):
            weight = (i != 0) + (j != 0)
            if weight != 1:
                assert t[i, j] == 0
    for party in (0, 1):
        rho = partial_trace(psi, {party})
        assert rho.rank() <= 3


def test_hamming_weight_support_exact(rng):
    for _ in range(20):
        spec = random_gw_spec(rng, n_min=2, n_max=5, vacuum="never")
        psi = superpose_with_vacuum(spec)
        t = psi.amplitudes.reshape(psi.layout.dims)
        for idx in np.ndindex(*psi.layout.dims):
            if sum(1 for i in idx if i != 0) != 1:
                assert t[idx] == 0


def test_vacuum_superposition_limits(rng):
    spec = random_gw_spec(rng, vacuum="never")
    # at w = 0 the ket exciting party s to level i carries a_si itself
    pure_w = superpose_with_vacuum(spec).amplitudes.reshape(spec.layout.dims)
    for s, i in np.ndindex(spec.n, spec.d - 1):
        ket = [0] * spec.n
        ket[s] = i + 1
        assert pure_w[tuple(ket)] == spec.amplitudes[s, i]
    all_vac = GWSpec(
        n=spec.n, d=spec.d, amplitudes=spec.amplitudes, vacuum_weight=1.0
    )
    vac = superpose_with_vacuum(all_vac)
    assert abs(vac.amplitudes[0] - 1.0) < 1e-12


def test_vacuum_superposition_marginal_purity(rng):
    # closed form for the first-party purity, cross-checked by partial trace
    spec = GWSpec.qubit(np.ones(3) / math.sqrt(3), vacuum_weight=0.5)
    psi = superpose_with_vacuum(spec)
    [w] = Partition.of([{0}]).block_sums(GWBlocks.of(spec).weights)  # carries 1 - vacuum
    expected = w**2 + (1 - w) ** 2 + 2 * w * spec.vacuum_weight
    marginal = partial_trace(psi, {0}).matrix
    assert abs(np.trace(marginal @ marginal).real - expected) < 1e-12


def test_mixture_rank_and_spectrum(rng):
    spec = GWSpec.qubit(np.ones(3) / math.sqrt(3), vacuum_weight=0.5)
    rho = mix_with_vacuum(spec)
    eigs = np.sort(np.linalg.eigvalsh(rho.matrix))[::-1]
    np.testing.assert_allclose(eigs[:2], [0.5, 0.5], atol=1e-12)
    assert rho.rank() == 2
    pure = mix_with_vacuum(random_gw_spec(rng, vacuum="never"))
    assert pure.rank() == 1
    for _ in range(10):
        assert mix_with_vacuum(random_gw_spec(rng)).rank() <= 2


def test_purification_decoupled_ancilla():
    spec = GWSpec.qubit(np.ones(3) / math.sqrt(3), vacuum_weight=0.0)
    puri = purify_mixture(spec, [1.0])
    t = puri.amplitudes.reshape(2, 2, 2, 2)
    np.testing.assert_allclose(
        t[..., 0].reshape(-1), superpose_with_vacuum(spec).amplitudes, atol=1e-12
    )
    assert float(np.abs(t[..., 1]).sum()) < 1e-12


def test_purification_traces_back_to_mixture():
    spec = GWSpec.qubit([0.6, 0.8], vacuum_weight=0.5)
    puri = purify_mixture(spec, [1.0])
    back = partial_trace(puri, {0, 1})
    np.testing.assert_allclose(back.matrix, mix_with_vacuum(spec).matrix, atol=1e-10)


def test_purification_roundtrip_random(rng):
    worst = 0.0
    for _ in range(50):
        spec = random_gw_spec(rng, n_min=2, n_max=4, d=int(rng.integers(2, 4)))
        anc = rand_unit(rng, spec.d - 1)
        puri = purify_mixture(spec, anc)
        back = partial_trace(puri, set(range(spec.n)))
        gap = float(np.max(np.abs(back.matrix - mix_with_vacuum(spec).matrix)))
        worst = max(worst, gap)
    assert worst < 1e-10


def test_purification_is_weight_one_state(rng):
    spec = random_gw_spec(rng, vacuum="always")
    anc = rand_unit(rng, spec.d - 1)
    puri = purify_mixture(spec, anc)
    t = puri.amplitudes.reshape(puri.layout.dims)
    for idx in np.ndindex(*puri.layout.dims):
        if sum(1 for i in idx if i != 0) != 1:
            assert t[idx] == 0


def test_reduce_to_parties_keeps_provenance(rng):
    spec = random_gw_spec(rng)
    psi = superpose_with_vacuum(spec)
    rho = reduce_to_parties(psi, {0, 1})
    assert rho.gw
    plain = np.zeros(4)
    plain[0] = 1.0
    from gwlab import PureState, SubsystemLayout

    untagged = PureState(plain, SubsystemLayout((2, 2)))
    with pytest.raises(ValueError):
        reduce_to_parties(untagged, {0})


def test_partition_closure_of_vacuum_superpositions(rng):
    # coarse-graining then compressing stays inside the family: all weight on
    # the vacuum ket plus single-excitation kets, and the state rebuilds from
    # the extracted amplitudes
    for _ in range(10):
        spec = random_gw_spec(rng, n_min=3, n_max=5, d=int(rng.integers(2, 4)))
        psi = superpose_with_vacuum(spec)
        n = spec.n
        cut = int(rng.integers(1, n - 1))
        partition = Partition.of([set(range(cut + 1)), *[{p} for p in range(cut + 1, n)]])
        merged = coarse_grain_state(psi, partition)
        compressed, layout = compress_local_support(merged)
        t = compressed.amplitudes.reshape(layout.dims)
        rebuilt = np.zeros_like(t)
        rebuilt[(0,) * len(layout.dims)] = t[(0,) * len(layout.dims)]
        for party in range(len(layout.dims)):
            for level in range(1, layout.dims[party]):
                idx = [0] * len(layout.dims)
                idx[party] = level
                rebuilt[tuple(idx)] = t[tuple(idx)]
        assert float(np.linalg.norm((t - rebuilt).reshape(-1))) < 1e-10


def test_reduced_states_supported_on_weight_leq_one(rng):
    for _ in range(10):
        spec = random_gw_spec(rng, n_min=3, n_max=5)
        psi = superpose_with_vacuum(spec)
        keep = sorted(
            rng.choice(spec.n, size=int(rng.integers(2, spec.n)), replace=False)
        )
        rho = partial_trace(psi, keep)
        evals, evecs = np.linalg.eigh(rho.matrix)
        dims = rho.layout.dims
        for lam, vec in zip(evals, evecs.T):
            if lam < 1e-10:
                continue
            t = vec.reshape(dims)
            for idx in np.ndindex(*dims):
                if sum(1 for i in idx if i != 0) > 1:
                    assert abs(t[idx]) < 1e-10


def test_json_roundtrip(rng):
    spec = random_gw_spec(rng, d=3, vacuum="always")
    doc = gw_spec_to_json(spec)
    back = gw_spec_from_json(doc)
    assert back.n == spec.n and back.d == spec.d
    np.testing.assert_allclose(back.amplitudes, spec.amplitudes, atol=1e-15)
    assert back.vacuum_weight == spec.vacuum_weight


def test_json_rejects_malformed():
    with pytest.raises(ValueError):
        gw_spec_from_json('{"n": 3, "d": 2}')
    with pytest.raises(ValueError):
        gw_spec_from_json('{"n": 3, "d": 2, "amplitudes": [[1, 0]], "vacuum_weight": 0}')
    # amplitude entries must be [re, im] pairs, not bare numbers
    with pytest.raises(ValueError, match="malformed"):
        gw_spec_from_json('{"n": 2, "d": 2, "amplitudes": [1.0, 0.0], "vacuum_weight": 0}')


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_amplitudes_rejected(bad):
    # abs(nan - 1) > tol is False, so the norm check alone lets NaN through
    with pytest.raises(ValueError, match="non-finite"):
        GWSpec(n=2, d=2, amplitudes=[[bad], [0.5]])
    with pytest.raises(ValueError, match="non-finite"):
        GWSpec.qubit([complex(0.6, bad), 0.8])
    base = GWSpec(n=2, d=3, amplitudes=[[0.6, 0.0], [0.0, 0.8]], vacuum_weight=0.3)
    with pytest.raises(ValueError, match="non-finite"):
        purify_mixture(base, [bad, 1.0])

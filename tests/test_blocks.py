"""Block-weight descriptions against the dense reference values."""

import json
import math

import mpmath
import numpy as np
import pytest

from gwlab import (
    DensityOperator,
    GWBlocks,
    GWSpec,
    Partition,
    ProvenanceError,
    PureState,
    SubsystemLayout,
    TighterParams,
    at_orders,
    block_pair_reduction,
    build_w_qubit,
    check_merged_block_upper_bound,
    check_monogamy_cap,
    check_monogamy_power,
    check_monogamy_sq,
    check_polygamy,
    check_polygamy_power,
    check_reoa_triangle,
    check_tighter_multi,
    check_tighter_three,
    check_trace_bound_renyi,
    check_upper_bound_bipartition,
    coarse_grain_state,
    concurrence_pure,
    concurrence_two_qubit,
    cren_gw,
    cut_spectrum,
    gw_one_to_rest_concurrence_sq,
    gw_pairwise_concurrence,
    mix_with_vacuum,
    partial_trace,
    prepare_checks,
    purify_mixture,
    renyi_entanglement_gw,
    report_to_json_line,
    run_mixture_suite,
    schmidt_spectrum,
    superpose_with_vacuum,
    verify_c_equals_ca,
    verify_e_alpha_formula,
)
from gwlab.tensor import SUPPORT_TOL
from conftest import (
    assert_same_doc,
    dense_block_pair,
    rand_unit,
    random_complete_partition,
    random_gw_spec,
)

#: Orders on both sides of each window edge, one inside the expm1 band.
ORDERS = (0.9, 1.00002, 1.2, 2.0)
TIGHTER = TighterParams(c_pow=2.0, b_pow=1.0, k=2.0)


def _verify_checks(state, partition, order, mu):
    """The checks ``gwlab verify`` runs at one order, in its stream order."""
    blocks = list(partition.blocks)
    reports = [
        check_monogamy_sq(state, partition, 0, order),
        check_polygamy(state, partition, 0, order),
    ]
    if mu >= 2.0:
        reports.append(check_monogamy_power(state, partition, 0, order, mu))
    else:
        reports.append(check_polygamy_power(state, partition, 0, order, mu))
    first_three = Partition.of(blocks[:3])
    if len(blocks) >= 3:
        p, q, rest = blocks[0], blocks[1], blocks[2:]
        reports.append(check_reoa_triangle(state, first_three, order))
        reports.append(check_merged_block_upper_bound(state, p, q, rest, order))
        reports.append(check_upper_bound_bipartition(state, p, q, rest, order))
    reports.append(check_monogamy_cap(state, partition, order))
    rest = set().union(*blocks[1:])
    reports.append(check_trace_bound_renyi(state, order, (blocks[0], rest)))
    if len(blocks) >= 3:
        for kind in ("concurrence", "cren"):
            reports.append(check_tighter_three(state, first_three, TIGHTER, kind))
        reports.append(
            check_tighter_three(state, first_three, TIGHTER, "renyi", order=order)
        )
    if len(blocks) >= 4:
        reports.append(check_tighter_multi(state, partition, 1, TIGHTER))
    return reports


def _assert_same_reports(got, want):
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        doc = json.loads(report_to_json_line(w))
        assert_same_doc(json.loads(report_to_json_line(g)), doc, f"#{i} {w.name}")


def _dense_purification(spec):
    """The dense purification: its weights are the spec's with w appended."""
    anc = np.zeros(spec.d - 1, dtype=complex)
    anc[-1] = 1.0
    return purify_mixture(spec, anc)


def _dense_mixture_suite(spec, order):
    """run_mixture_suite's checks on the dense purification and mixture."""
    purified = _dense_purification(spec)
    reports = []
    for stage, state in (("purified", purified), ("mixture", mix_with_vacuum(spec))):
        singles = Partition.singletons(state.layout.n_parties)
        first_three = Partition.of([{0}, {1}, {2}])
        for rep in (
            check_monogamy_sq(state, singles, 0, order),
            check_tighter_three(
                state, first_three, TighterParams(2.0, 1.0, 1.0), "concurrence"
            ),
        ):
            rep.params["stage"] = stage
            reports.append(rep)
    return reports


# d=3 stops at six parties: a pair of blocks covering every party is a dense
# d^n x d^n operator on the reference path
@pytest.mark.parametrize("d,n_max", [(2, 10), (3, 6)])
@pytest.mark.parametrize("w", [0.0, 0.2, 0.5])
def test_checkers_agree_on_weights_and_dense(rng, d, n_max, w):
    for trial in range(2):
        n = int(rng.integers(3, n_max + 1)) if trial else n_max
        spec = GWSpec(n=n, d=d, amplitudes=rand_unit(rng, n, d - 1), vacuum_weight=w)
        partition = random_complete_partition(rng, n)
        dense, blocks = superpose_with_vacuum(spec), GWBlocks.of(spec)
        mu = (2.0, 3.0, 0.5)[trial]
        for order in ORDERS:
            want = _verify_checks(blocks, partition, order, mu)
            _assert_same_reports(want, _verify_checks(dense, partition, order, mu))
            # prepare_checks, verify's whole suite, against the public checkers
            for state in (blocks, dense):
                got = at_orders([order], prepare_checks(state, partition, mu, TIGHTER))
                _assert_same_reports(got, want)
        _assert_same_reports(
            run_mixture_suite(spec, 1.1), _dense_mixture_suite(spec, 1.1)
        )
        # dense first principles against the weight forms: the canonical pair
        # against the dense compressed pair, Wootters C of the dense pair
        # against the pair C^2, the dense cut's Schmidt spectrum against
        # cut_spectrum and its concurrence against the one-to-rest C^2
        first = partition.blocks[0]
        for other in partition.blocks[1:]:
            pairs = [
                block_pair_reduction(blocks, first, other),
                dense_block_pair(dense, first, other),
            ]
            spectra = [
                np.concatenate([p.eigenvalues()]
                               + [partial_trace(p, {q}).eigenvalues() for q in (0, 1)])
                for p in pairs
            ]
            np.testing.assert_allclose(spectra[0], spectra[1], rtol=0.0, atol=1e-12)
            got, want = (concurrence_two_qubit(p) for p in pairs)
            assert got == pytest.approx(want, abs=1e-12)
            pair_sq = gw_pairwise_concurrence(blocks, first, other) ** 2
            assert want**2 == pytest.approx(pair_sq, abs=1e-12)
        cut = (first, partition.parties() - first)
        want = schmidt_spectrum(dense, cut).coefficients
        got = cut_spectrum(blocks, cut).coefficients
        np.testing.assert_allclose(got, want[:2], rtol=0.0, atol=1e-12)
        assert want[2:].sum() == pytest.approx(0.0, abs=1e-12)
        direct = concurrence_pure(dense, cut) ** 2
        c2 = gw_one_to_rest_concurrence_sq(blocks, partition, 0)
        assert direct == pytest.approx(c2, abs=1e-12)


def test_restriction_and_merging_match_dense(rng):
    for _ in range(6):
        spec = random_gw_spec(rng, n_min=4, n_max=6, d=int(rng.integers(2, 4)))
        blocks, psi = GWBlocks.of(spec), superpose_with_vacuum(spec)
        keep = sorted(rng.choice(spec.n, size=3, replace=False).tolist())
        pair = ({0}, {1, 2})
        want = concurrence_two_qubit(dense_block_pair(partial_trace(psi, keep), *pair))
        reduced = blocks.merged(Partition.of([p] for p in keep))
        assert not reduced.pure and len(reduced.weights) == 3
        assert gw_pairwise_concurrence(reduced, *pair) == pytest.approx(
            want, abs=1e-12
        )
        partition = random_complete_partition(rng, spec.n, 3)
        merged = blocks.merged(partition)
        dense_merged = coarse_grain_state(psi, partition)
        assert tuple(merged.dims) == dense_merged.layout.dims
        for k in (1, 2):
            want = gw_pairwise_concurrence(dense_merged, {0}, {k}) ** 2
            assert gw_pairwise_concurrence(merged, {0}, {k}) ** 2 == pytest.approx(
                want, abs=1e-12)
        cut = (partition.blocks[0], partition.parties() - partition.blocks[0])
        direct = concurrence_pure(psi, cut) ** 2
        c2 = gw_one_to_rest_concurrence_sq(merged, Partition.singletons(3), 0)
        assert c2 == pytest.approx(direct, abs=1e-12)


def test_block_sums_are_exact_and_reductions_count_the_rest_as_vacuum(rng):
    # every block weight is one block sum over the label vector, bit for bit
    # the fsum of its parties' weights; a partition with blocks dropped gives
    # the reduction to the parties it keeps, with the rest counted as vacuum
    for _ in range(60):
        spec = random_gw_spec(rng, n_min=2, n_max=9, d=int(rng.integers(2, 4)))
        blocks = GWBlocks.of(spec)
        complete = random_complete_partition(rng, spec.n)
        kept = [b for b in complete.blocks if rng.uniform() < 0.6] or [complete.blocks[-1]]
        # values spread over forty decades, so that adding in any order but
        # fsum's would round differently
        values = rng.uniform(size=spec.n) * 10.0 ** rng.integers(-20, 20, size=spec.n)
        for partition in (complete, Partition.of(kept)):
            assert partition.sorted_blocks == [sorted(b) for b in partition.blocks]
            assert all(type(p) is int for b in partition.sorted_blocks for p in b)
            for vector in (blocks.weights, values):
                want = [math.fsum(vector[p] for p in b).hex() for b in partition.blocks]
                assert [x.hex() for x in partition.block_sums(vector).tolist()] == want
            merged = blocks.merged(partition)
            assert merged.weights.tolist() == partition.block_sums(blocks.weights).tolist()
            assert tuple(merged.dims) == tuple(spec.d ** len(b) for b in partition.blocks)
            if partition.covers(spec.n):
                assert merged.vacuum_weight == blocks.vacuum_weight
                assert merged.pure == blocks.pure
                continue
            kept_weights = [blocks.weights[p] for p in sorted(partition.parties())]
            assert merged.vacuum_weight == max(0.0, 1.0 - math.fsum(kept_weights))
            assert not merged.pure


def test_cut_spectrum_is_exact_for_weak_cuts():
    # one party carries about 1e-12 of the excitation, so the smaller Schmidt
    # coefficient is about 1e-12: (1 - sqrt(1 - C^2)) / 2 and 1 - lambda_0
    # would each lose about five digits of it to cancellation
    spec = GWSpec.qubit([math.sqrt(1e-12), math.sqrt(1.0 - 1e-12)])
    blocks = GWBlocks.of(spec)
    with mpmath.workdps(40):
        c2 = 4 * mpmath.mpf(blocks.weights[0]) * mpmath.mpf(blocks.weights[1])
        exact = float((1 - mpmath.sqrt(1 - c2)) / 2)
    minor = cut_spectrum(blocks, ({0}, {1})).coefficients[1]
    assert minor == pytest.approx(exact, rel=1e-14, abs=0.0)
    report = check_trace_bound_renyi(blocks, 2.0, ({0}, {1}))
    assert report.lhs == pytest.approx(2.0 * math.sqrt(exact), rel=1e-14, abs=0.0)
    dense = schmidt_spectrum(superpose_with_vacuum(spec), ({0}, {1}))
    assert dense.coefficients[1] == pytest.approx(exact, rel=1e-9, abs=0.0)


def test_blocks_validation_and_purity():
    spec = GWSpec.qubit([0.6, 0.8], vacuum_weight=0.3)
    with pytest.raises(ValueError, match="sum to"):
        GWBlocks((0.5, 0.4), GWBlocks.of(spec).dims)
    with pytest.raises(ValueError, match="nonnegative"):
        GWBlocks((1.5, -0.5), GWBlocks.of(spec).dims)
    member = GWBlocks.of(spec)
    mixture = GWBlocks(member.weights, member.dims, member.vacuum_weight, pure=False)
    with pytest.raises(ValueError, match="pure state"):
        cut_spectrum(mixture, ({0}, {1}))
    with pytest.raises(ValueError, match="pure state"):
        block_pair_reduction(mixture, {0}, {1})
    with pytest.raises(ValueError, match="nonempty"):
        block_pair_reduction(GWBlocks.of(spec), set(), {1})
    three = GWBlocks.of(GWSpec.qubit([0.6, 0.64, 0.48]))
    with pytest.raises(ValueError, match="pure state"):
        check_merged_block_upper_bound(
            GWBlocks(three.weights, three.dims, pure=False), {0}, {1}, [{2}], 1.1
        )
    with pytest.raises(IndexError, match="party 2 out of range"):
        gw_pairwise_concurrence(GWBlocks.of(spec), {0}, {2})
    with pytest.raises(ValueError, match="negative"):
        gw_pairwise_concurrence(GWBlocks.of(spec), {0}, {-1})
    with pytest.raises(ValueError, match="overlap"):
        gw_pairwise_concurrence(GWBlocks.of(spec), {0}, {0, 1})


#: Each public entry point that builds a partition from raw blocks, called on
#: a three-party pure member with blocks that list party p.
OUT_OF_RANGE_CALLS = {
    "gw_pairwise_concurrence": lambda s, p: gw_pairwise_concurrence(s, {0}, {p}),
    "block_pair_reduction": lambda s, p: block_pair_reduction(s, {0}, {p}),
    "cren_gw": lambda s, p: cren_gw(s, ({0}, {p})),
    "cut_spectrum": lambda s, p: cut_spectrum(s, ({0}, {1, 2, p})),
    "check_merged_block_upper_bound":
        lambda s, p: check_merged_block_upper_bound(s, {0}, {1}, [{2, p}], 1.1),
    "check_upper_bound_bipartition":
        lambda s, p: check_upper_bound_bipartition(s, {0}, {1}, [{2, p}], 1.1),
    "check_trace_bound_renyi": lambda s, p: check_trace_bound_renyi(s, 2.0, ({0}, {1, 2, p})),
    "verify_c_equals_ca": lambda s, p: verify_c_equals_ca(s, 64, 1, ({0}, {p})),
    "verify_e_alpha_formula": lambda s, p: verify_e_alpha_formula(s, 1.1, 64, 1, ({0}, {p})),
    "overlap": lambda s, p: Partition.of([[0, p], [p]]),
}


@pytest.mark.parametrize("entry", list(OUT_OF_RANGE_CALLS))
def test_a_party_out_of_range_is_refused_before_allocating(entry):
    # a label vector of max(party) + 1 entries, or a bincount of the parties,
    # made party 10**12 a MemoryError; it is refused as party n is, at once
    state, call = GWBlocks.of(GWSpec.qubit([0.6, 0.64, 0.48])), OUT_OF_RANGE_CALLS[entry]
    errors = []
    for party in (3, 10**12):
        with pytest.raises((IndexError, ValueError)) as info:
            call(state, party)
        errors.append((info.type, str(info.value)))
    (small_type, small), (big_type, big) = errors
    assert big_type is small_type
    assert big == small.replace("3", str(10**12), 1)
    want = "blocks overlap" if entry == "overlap" else (
        "does not cover all 3" if "cut_spectrum" in entry or "trace" in entry
        else "party 3 out of range for 3 parties")
    assert want in small


def test_dims_are_exact_python_ints():
    # a merged block's dimension passes int64, and the cap's d reaches JSON as
    # an int: dims is a read-only object array of Python ints, one per party
    blocks = GWBlocks.of(GWSpec(n=300, d=7, amplitudes=np.ones((300, 6)) / math.sqrt(1800)))
    assert blocks.dims.dtype == object and not blocks.dims.flags.writeable
    merged = blocks.merged(Partition(np.arange(300) % 3))
    assert merged.dims.tolist() == [7**100] * 3
    assert all(type(d) is int for d in merged.dims.tolist())
    assert check_monogamy_cap(merged, Partition.singletons(3), 1.1).params["d"] == 7**100
    assert GWBlocks((0.5, 0.5), np.array([2, 3])).dims.tolist() == [2, 3]
    for dims, message in (((2, 2, 2), "2 weights for 3 parties"), ((), "2 weights for 0"),
                          ((2, 1), "an int >= 2, got 1"), ((2, 2.0), "an int >= 2, got 2.0")):
        with pytest.raises(ValueError, match=message):
            GWBlocks((0.5, 0.5), dims)


def test_cut_of_three_blocks_is_refused():
    # the trace bound used to read ({0}, {1}, {2}) as the cut {0} | {1, 2},
    # and cut_spectrum failed on it with "too many values to unpack"
    blocks = GWBlocks.of(GWSpec.qubit([0.6, 0.64, 0.48]))
    three = ({0}, {1}, {2})
    with pytest.raises(ValueError, match="bipartition needs two blocks, got 3"):
        check_trace_bound_renyi(blocks, 2.0, three)
    with pytest.raises(ValueError, match="bipartition needs two blocks, got 3"):
        cut_spectrum(blocks, three)
    with pytest.raises(ValueError, match="bipartition needs two blocks, got 3"):
        schmidt_spectrum(build_w_qubit([0.6, 0.64, 0.48]), three)


@pytest.mark.parametrize("d", [2, 3])
def test_from_state_matches_spec_weights(rng, d):
    # one encoding per state: a dense member and the weights built from its
    # spec agree on every excitation probability and on the vacuum population
    for _ in range(6):
        spec = random_gw_spec(rng, n_min=2, n_max=5, d=d)
        psi = superpose_with_vacuum(spec)
        keep = sorted(rng.choice(spec.n, size=2, replace=False).tolist())
        blocks, w = GWBlocks.of(spec), spec.vacuum_weight
        # the mixture is the pure state itself when w = 0; the purification
        # holds the mixture's weights and an ancilla party of weight w
        purified = (*blocks.dims, d)
        cases = [
            (psi, blocks),
            (mix_with_vacuum(spec), GWBlocks(blocks.weights, blocks.dims, w, pure=w == 0.0)),
            (_dense_purification(spec), GWBlocks(np.append(blocks.weights, w), purified)),
            (partial_trace(psi, keep), blocks.merged(Partition.of([p] for p in keep))),
        ]
        for dense, want in cases:
            got = GWBlocks.from_state(dense)
            assert got.pure == want.pure
            assert got.dims.tolist() == want.dims.tolist()
            np.testing.assert_allclose(got.weights, want.weights, rtol=0.0, atol=1e-12)
            assert got.vacuum_weight == pytest.approx(want.vacuum_weight, abs=1e-12)
            total = math.fsum(want.weights) + want.vacuum_weight
            assert total == pytest.approx(1.0, abs=1e-12)
        assert GWBlocks.from_state(blocks) is blocks


def test_from_state_accepts_population_within_support_tolerance():
    # a doubly-excited population just under SUPPORT_TOL leaves the weights
    # and the vacuum summing to 1 - 0.9 SUPPORT_TOL, which the sum check allows
    w_pair = np.array([0.0, 0.6, 0.8, 0.0])
    for eps, ok in ((0.9 * SUPPORT_TOL, True), (1.1 * SUPPORT_TOL, False)):
        vec = math.sqrt(1.0 - eps) * w_pair + math.sqrt(eps) * np.array([0, 0, 0, 1.0])
        rho = (1.0 - eps) * np.outer(w_pair, w_pair)
        rho[3, 3] += eps
        for state in (
            PureState(vec, SubsystemLayout((2, 2)), gw=True),
            DensityOperator(rho, SubsystemLayout((2, 2)), gw=True),
        ):
            if not ok:
                with pytest.raises(ValueError, match="outside Hamming weight <= 1"):
                    GWBlocks.from_state(state)
                continue
            blocks = GWBlocks.from_state(state)
            assert blocks.pure == isinstance(state, PureState)  # rho has rank 2
            np.testing.assert_allclose(blocks.weights, [0.64, 0.36], rtol=0.0, atol=1e-9)
            assert blocks.vacuum_weight == 0.0


def test_rank_one_operator_is_pure(rng):
    # psi.density() gives the weights of psi: the same canonical pairs and
    # cut spectra, and the same oracle report on the maximally entangled pair
    psi = build_w_qubit(np.ones(2) / math.sqrt(2.0))
    report = verify_e_alpha_formula(psi, 2.0, trials=200, seed=4)
    same = verify_e_alpha_formula(psi.density(), 2.0, trials=200, seed=4)
    assert report_to_json_line(same) == report_to_json_line(report)
    for _ in range(4):
        spec = random_gw_spec(rng, n_min=3, n_max=4, vacuum="always")
        psi = superpose_with_vacuum(spec)
        vector, operator = (GWBlocks.from_state(s) for s in (psi, psi.density()))
        assert operator.pure and operator.dims.tolist() == vector.dims.tolist()
        np.testing.assert_allclose(operator.weights, vector.weights, rtol=1e-15, atol=0.0)
        assert operator.vacuum_weight == pytest.approx(vector.vacuum_weight, rel=1e-15)
        blocks = ({0}, set(range(1, spec.n)))
        np.testing.assert_allclose(
            block_pair_reduction(operator, *blocks).matrix,
            block_pair_reduction(vector, *blocks).matrix,
            rtol=0.0, atol=1e-15,
        )
        np.testing.assert_allclose(
            cut_spectrum(operator, blocks).coefficients,
            cut_spectrum(vector, blocks).coefficients,
            rtol=0.0, atol=1e-15,
        )
        # a mixture of rank two has no canonical pair
        mixture = mix_with_vacuum(spec)
        assert not GWBlocks.from_state(mixture).pure
        with pytest.raises(ValueError, match="pure state"):
            block_pair_reduction(mixture, *blocks)
        with pytest.raises(ValueError, match="pure state"):
            verify_e_alpha_formula(mixture, 2.0, trials=10)


def test_from_state_vacuum_has_no_entanglement():
    spec = GWSpec.qubit(np.ones(3) / math.sqrt(3), vacuum_weight=1.0)
    singles = Partition.singletons(3)
    for state in (superpose_with_vacuum(spec), mix_with_vacuum(spec)):
        assert gw_pairwise_concurrence(state, {0}, {1}) == 0.0
        assert gw_one_to_rest_concurrence_sq(state, singles, 0) == 0.0
        assert gw_pairwise_concurrence(state, {0}, {2}) == 0.0
        assert cren_gw(state, ({0}, {1, 2})) == 0.0
        assert renyi_entanglement_gw(state, singles, 0, 2.0) == 0.0
    psi = superpose_with_vacuum(spec)
    assert cut_spectrum(psi, ({0}, {1, 2})).coefficients.tolist() == [1.0, 0.0]
    assert concurrence_two_qubit(block_pair_reduction(psi, {0}, {1})) == 0.0


def test_from_state_refuses_off_family_and_untagged_states():
    bell = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
    doubly_excited = [
        PureState(bell, SubsystemLayout((2, 2)), gw=True),
        DensityOperator(np.eye(4) / 4.0, SubsystemLayout((2, 2)), gw=True),
    ]
    for state in doubly_excited:
        with pytest.raises(ValueError, match="outside Hamming weight <= 1"):
            GWBlocks.from_state(state)
    w_pair = np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2.0)
    untagged = [
        PureState(w_pair, SubsystemLayout((2, 2))),
        DensityOperator(np.outer(w_pair, w_pair), SubsystemLayout((2, 2))),
    ]
    for state in untagged:
        with pytest.raises(ProvenanceError):
            GWBlocks.from_state(state)

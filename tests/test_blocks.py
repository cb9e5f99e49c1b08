"""Block-weight descriptions against the dense reference path."""

import json
import math

import mpmath
import numpy as np
import pytest

from gwlab import (
    GWBlocks,
    GWSpec,
    Partition,
    PurificationSpec,
    TighterParams,
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
    cut_spectrum,
    gw_one_to_rest_concurrence_sq,
    gw_pairwise_concurrence,
    mix_with_vacuum,
    partial_trace,
    purify_mixture,
    reduce_to_parties,
    report_to_json_line,
    run_mixture_suite,
    schmidt_spectrum,
    superpose_with_vacuum,
)
from conftest import (
    assert_same_doc,
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
    if len(blocks) >= 3:
        p, q, rest = blocks[0], blocks[1], blocks[2:]
        first_three = Partition.of(blocks[:3])
        reports.append(check_reoa_triangle(state, first_three, order))
        reports.append(check_merged_block_upper_bound(state, p, q, rest, order))
        reports.append(check_upper_bound_bipartition(state, p, q, rest, order))
        for kind in ("concurrence", "cren"):
            reports.append(check_tighter_three(state, first_three, TIGHTER, kind))
        reports.append(
            check_tighter_three(state, first_three, TIGHTER, "renyi", order=order)
        )
    if len(blocks) >= 4:
        reports.append(check_tighter_multi(state, partition, 1, TIGHTER))
    reports.append(check_monogamy_cap(state, partition, order))
    rest = set().union(*blocks[1:])
    reports.append(check_trace_bound_renyi(state, order, (blocks[0], rest)))
    return reports


def _assert_same_reports(got, want):
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        doc = json.loads(report_to_json_line(w))
        assert_same_doc(json.loads(report_to_json_line(g)), doc, f"#{i} {w.name}")


def _dense_mixture_suite(spec, order):
    """run_mixture_suite's checks on the dense purification and mixture."""
    anc = np.zeros(spec.d - 1, dtype=complex)
    anc[-1] = 1.0
    purified = purify_mixture(PurificationSpec(base=spec, ancilla_amplitudes=anc))
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
            _assert_same_reports(
                _verify_checks(blocks, partition, order, mu),
                _verify_checks(dense, partition, order, mu),
            )
        _assert_same_reports(
            run_mixture_suite(spec, 1.1), _dense_mixture_suite(spec, 1.1)
        )


def test_restriction_and_merging_match_dense(rng):
    for _ in range(6):
        spec = random_gw_spec(rng, n_min=4, n_max=6, d=int(rng.integers(2, 4)))
        blocks, psi = GWBlocks.of(spec), superpose_with_vacuum(spec)
        keep = sorted(rng.choice(spec.n, size=3, replace=False).tolist())
        pair = ({0}, {1, 2})
        want = gw_pairwise_concurrence(partial_trace(psi, keep), *pair).value
        reduced = reduce_to_parties(blocks, keep)
        assert not reduced.pure and reduced.layout.n_parties == 3
        assert gw_pairwise_concurrence(reduced, *pair).value == pytest.approx(
            want, abs=1e-12
        )
        partition = random_complete_partition(rng, spec.n, 3)
        merged = blocks.merged(partition)
        dense_merged = coarse_grain_state(psi, partition)
        assert merged.layout.dims == dense_merged.layout.dims
        split = gw_one_to_rest_concurrence_sq(merged, Partition.singletons(3), 0)
        want = gw_one_to_rest_concurrence_sq(dense_merged, Partition.singletons(3), 0)
        assert split.pair_sq == pytest.approx(want.pair_sq, abs=1e-12)
        assert split.direct_sq == pytest.approx(want.direct_sq, abs=1e-12)


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
        GWBlocks((0.5, 0.4), GWBlocks.of(spec).layout)
    with pytest.raises(ValueError, match="nonnegative"):
        GWBlocks((1.5, -0.5), GWBlocks.of(spec).layout)
    with pytest.raises(ValueError, match="pure state"):
        cut_spectrum(GWBlocks.of(spec, pure=False), ({0}, {1}))
    three = GWBlocks.of(GWSpec.qubit([0.6, 0.64, 0.48]))
    with pytest.raises(ValueError, match="pure state"):
        check_merged_block_upper_bound(
            three.restricted({0, 1, 2}), {0}, {1}, [{2}], 1.1
        )
    with pytest.raises(IndexError):
        GWBlocks.of(spec).block_weight({-1})
    with pytest.raises(ValueError, match="overlap"):
        gw_pairwise_concurrence(GWBlocks.of(spec), {0}, {0, 1})

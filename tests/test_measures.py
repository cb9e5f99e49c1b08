"""Measure closed forms, the Renyi-order map and its analytic properties."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gwlab import (
    ALPHA_MONOGAMY_MIN,
    ALPHA_POLYGAMY_MAX,
    ApplicabilityError,
    DensityOperator,
    DomainError,
    FindingError,
    GWSpec,
    Partition,
    ProvenanceError,
    PureState,
    SchmidtSpectrum,
    SubsystemLayout,
    block_pair_reduction,
    build_w_qubit,
    concurrence_pure,
    concurrence_two_qubit,
    cren_gw,
    f_alpha,
    g_alpha,
    gw_one_to_rest_concurrence_sq,
    gw_pairwise_concurrence,
    linear_entropy,
    negativity,
    partial_trace,
    reduce_to_parties,
    renyi_entanglement_gw,
    renyi_entropy,
    superpose_with_vacuum,
)
from gwlab.featured import (
    FIG1_AMPLITUDES,
    FIG2_AMPLITUDES,
    FIG3_AMPLITUDES,
    figure1_reduction,
    figure2_state,
    figure3_state,
)
from conftest import rand_unit, random_gw_spec

SQRT2_OVER_2 = math.sqrt(2.0) / 2.0
TWO_SQRT2_OVER_5 = 2.0 * math.sqrt(2.0) / 5.0


def f2_closed(x: float) -> float:
    # order-2 closed form used as an independent oracle
    return 1.0 - math.log2(2.0 - x)


def binary_entropy(p: float) -> float:
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def test_window_constants():
    assert abs(ALPHA_MONOGAMY_MIN - 0.8228756555322954) < 1e-15
    assert abs(ALPHA_POLYGAMY_MAX - 1.302775637731995) < 1e-14


def test_f_alpha_endpoints():
    for a in (0.83, 0.9, 1.0, 1.1, 2.0, 5.0):
        assert f_alpha(0.0, a) == pytest.approx(0.0, abs=1e-12)
        assert f_alpha(1.0, a) == pytest.approx(1.0, abs=1e-12)


def test_f_alpha_order_two_closed_form():
    assert f_alpha(0.5, 2.0) == pytest.approx(f2_closed(0.5), abs=1e-14)
    assert f2_closed(0.5) == pytest.approx(0.4150374992788438, abs=1e-15)
    for x in np.linspace(0.0, 1.0, 21):
        assert f_alpha(float(x), 2.0) == pytest.approx(f2_closed(float(x)), abs=1e-12)


def test_f_alpha_von_neumann_branch():
    for x in (0.2, 0.5, 0.9):
        lam = (1 - math.sqrt(1 - x)) / 2
        assert f_alpha(x, 1.0) == pytest.approx(binary_entropy(lam), abs=1e-12)
        # approaching order 1 from both sides converges to the same value
        assert f_alpha(x, 1.0 + 1e-9) == pytest.approx(f_alpha(x, 1.0), abs=1e-9)
        assert f_alpha(x, 1.0 - 1e-9) == pytest.approx(f_alpha(x, 1.0), abs=1e-9)


def test_f_alpha_domain():
    assert f_alpha(1.0 + 5e-10, 2.0) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(DomainError):
        f_alpha(1.0 + 1e-8, 2.0)
    with pytest.raises(DomainError):
        f_alpha(-1e-3, 2.0)


@settings(max_examples=200, deadline=None)
@given(
    x=st.floats(min_value=0.0, max_value=1.0),
    y=st.floats(min_value=0.0, max_value=1.0),
    a=st.floats(min_value=0.83, max_value=5.0),
)
# orders just outside the von Neumann band, where the plain Renyi quotient
# lost about eps / |1 - a| and overshot 1 or broke monotonicity
@example(x=0.9999999999999999, y=0.0, a=0.99999)
@example(x=1.0, y=0.9999999999999999, a=0.9999989)
def test_f_alpha_monotone_property(x, y, a):
    lo, hi = sorted((x, y))
    assert f_alpha(hi, a) >= f_alpha(lo, a) - 1e-10
    assert 0.0 <= f_alpha(x, a) <= 1.0 + 1e-12


def test_g_alpha_matches_squared_argument():
    assert g_alpha(1.0, 2.0) == pytest.approx(1.0, abs=1e-12)
    assert g_alpha(0.0, 2.0) == pytest.approx(0.0, abs=1e-12)
    assert g_alpha(math.sqrt(0.5), 2.0) == pytest.approx(f_alpha(0.5, 2.0), abs=1e-12)


def test_renyi_entropy_values():
    for a in (0.5, 0.9, 1.0, 2.0, 4.0):
        assert renyi_entropy(SchmidtSpectrum([0.5, 0.5]), a).value == pytest.approx(
            1.0, abs=1e-12
        )
        assert renyi_entropy(SchmidtSpectrum([1.0]), a).value == pytest.approx(
            0.0, abs=1e-12
        )
    expected = -math.log2(10.0 / 16.0)
    assert renyi_entropy(SchmidtSpectrum([0.75, 0.25]), 2.0).value == pytest.approx(
        expected, abs=1e-12
    )
    vn = binary_entropy(0.25)
    assert renyi_entropy(SchmidtSpectrum([0.75, 0.25]), 1.0).value == pytest.approx(
        vn, abs=1e-12
    )
    # orders just outside the von Neumann band, where the plain quotient
    # loses about eps / |1 - alpha|; spectrum (0.8, 0.2) has C^2 = 0.64
    for a in (1.0 + 2e-6, 1.00002, 1.0 - 2e-6, 1.0009):
        with mpmath.workdps(50):
            lams = (mpmath.mpf("0.8"), mpmath.mpf("0.2"))
            exact = mpmath.log(sum(lam**a for lam in lams), 2) / (1 - mpmath.mpf(a))
        value = renyi_entropy(SchmidtSpectrum([0.8, 0.2]), a).value
        assert abs(value - float(exact)) < 1e-14, a
        assert abs(value - f_alpha(0.64, a)) < 1e-14, a


def test_renyi_on_density_operator(bell_state):
    rho = partial_trace(bell_state, {0})
    assert renyi_entropy(rho, 3.0).value == pytest.approx(1.0, abs=1e-12)


def test_rank_two_identity_between_entropy_and_concurrence(rng):
    # spectrum (l, 1-l) has Renyi entropy equal to f_alpha(4 l (1-l))
    for _ in range(20):
        lam = float(rng.uniform(0.5, 1.0))
        c2 = 4.0 * lam * (1.0 - lam)
        for a in (0.83, 0.95, 1.0, 1.2, 2.0, 3.5):
            s = renyi_entropy(SchmidtSpectrum([lam, 1 - lam]), a).value
            assert s == pytest.approx(f_alpha(c2, a), abs=1e-10)


def test_concurrence_pure_values(bell_state):
    assert concurrence_pure(bell_state, ({0}, {1})).value == pytest.approx(1.0, abs=1e-12)
    prod = PureState(np.array([0, 1, 0, 0]), SubsystemLayout((2, 2)))
    assert concurrence_pure(prod, ({0}, {1})).value == pytest.approx(0.0, abs=1e-12)
    psi3 = figure3_state()
    assert concurrence_pure(psi3, ({0}, {1, 2})).value == pytest.approx(
        math.sqrt(5.0) / 3.0, abs=1e-12
    )


def test_two_qubit_concurrence_on_featured_pairs():
    rho, _ = figure1_reduction()
    pair01 = gw_pairwise_concurrence(rho, {0}, {1})
    pair02 = gw_pairwise_concurrence(rho, {0}, {2})
    assert pair01.value == pytest.approx(SQRT2_OVER_2, abs=1e-10)
    assert pair02.value == pytest.approx(TWO_SQRT2_OVER_5, abs=1e-10)
    assert pair01.method == "two_qubit_formula"


def test_two_qubit_concurrence_maximally_mixed():
    rho = DensityOperator(np.eye(4) / 4, SubsystemLayout((2, 2)))
    assert concurrence_two_qubit(rho).value == 0.0


def test_two_qubit_concurrence_agrees_with_pure(rng):
    for _ in range(20):
        psi = PureState(rand_unit(rng, 4), SubsystemLayout((2, 2)))
        a = concurrence_pure(psi, ({0}, {1})).value
        b = concurrence_two_qubit(psi.density()).value
        assert a == pytest.approx(b, abs=1e-10)


def test_two_qubit_concurrence_matches_spinflip_product_route(rng):
    # independent oracle: eigenvalues of rho @ rho_tilde without the
    # Hermitian symmetrization
    y2 = np.kron(np.array([[0, -1j], [1j, 0]]), np.array([[0, -1j], [1j, 0]]))
    for _ in range(10):
        mats = [rand_unit(rng, 4) for _ in range(3)]
        mat = sum(
            w * np.outer(v, v.conj()) for w, v in zip((0.5, 0.3, 0.2), mats)
        )
        rho = DensityOperator(mat, SubsystemLayout((2, 2)))
        tilde = y2 @ mat.conj() @ y2
        mu = np.sort(np.abs(np.real(np.linalg.eigvals(mat @ tilde))))[::-1]
        mu = np.sqrt(mu)
        expected = max(0.0, mu[0] - mu[1] - mu[2] - mu[3])
        assert concurrence_two_qubit(rho).value == pytest.approx(expected, abs=1e-8)


def test_werner_mixture_separable_point(bell_state):
    q = 0.3
    mat = q * bell_state.density().matrix + (1 - q) * np.eye(4) / 4
    rho = DensityOperator(mat, SubsystemLayout((2, 2)))
    assert concurrence_two_qubit(rho).value == 0.0


def test_linear_entropy_values():
    pure = DensityOperator(np.diag([1.0, 0.0]), SubsystemLayout((2,)))
    assert linear_entropy(pure).value == pytest.approx(0.0, abs=1e-12)
    mixed = DensityOperator(np.eye(2) / 2, SubsystemLayout((2,)))
    assert linear_entropy(mixed).value == pytest.approx(0.5, abs=1e-12)
    psi2 = figure2_state()
    rho = partial_trace(psi2, {0, 1, 2})
    assert linear_entropy(rho).value == pytest.approx(15.0 / 128.0, abs=1e-12)


def test_linear_entropy_triangle_on_reductions(rng):
    for _ in range(20):
        spec = random_gw_spec(rng, n_min=3, n_max=5)
        psi = superpose_with_vacuum(spec)
        a, b = sorted(rng.choice(spec.n, size=2, replace=False))
        rho_ab = partial_trace(psi, {int(a), int(b)})
        t_ab = linear_entropy(rho_ab).value
        t_a = linear_entropy(partial_trace(psi, {int(a)})).value
        t_b = linear_entropy(partial_trace(psi, {int(b)})).value
        assert abs(t_a - t_b) <= t_ab + 1e-12
        assert t_ab <= t_a + t_b + 1e-12


def _grid_values(alpha: float, xs: np.ndarray) -> np.ndarray:
    return np.array([f_alpha(float(x), alpha) for x in xs])


def test_f_squared_increasing_and_convex_grid():
    xs = np.linspace(0.0, 1.0, 101)
    for a in np.arange(0.83, 5.001, 0.1):
        vals = _grid_values(float(a), xs) ** 2
        assert np.all(np.diff(vals) >= -1e-12)
        # midpoint convexity on grid pairs with even index sum
        i, j = np.triu_indices(101)
        keep = (i + j) % 2 == 0
        i, j = i[keep], j[keep]
        mid = vals[(i + j) // 2]
        assert np.all(mid <= (vals[i] + vals[j]) / 2 + 1e-12)


def test_f_increasing_and_concave_in_window_grid():
    xs = np.linspace(0.0, 1.0, 101)
    for a in np.arange(0.8229, ALPHA_POLYGAMY_MAX, 0.04):
        vals = _grid_values(float(a), xs)
        assert np.all(np.diff(vals) >= -1e-12)
        i, j = np.triu_indices(101)
        keep = (i + j) % 2 == 0
        i, j = i[keep], j[keep]
        mid = vals[(i + j) // 2]
        assert np.all(mid >= (vals[i] + vals[j]) / 2 - 1e-12)


def test_g_increasing_and_convex_grid():
    ys = np.linspace(0.0, 1.0, 101)
    for a in (0.8229, 0.9, 1.1, 2.0, 4.0):
        vals = np.array([g_alpha(float(y), a) for y in ys])
        assert np.all(np.diff(vals) >= -1e-12)
        i, j = np.triu_indices(101)
        keep = (i + j) % 2 == 0
        i, j = i[keep], j[keep]
        mid = vals[(i + j) // 2]
        assert np.all(mid <= (vals[i] + vals[j]) / 2 + 1e-12)


def test_f_squared_superadditive_grid():
    xs = np.linspace(0.0, 1.0, 101)
    for a in (0.8229, 0.9, 1.2, 2.0, 5.0):
        sq = _grid_values(float(a), xs) ** 2
        i, j = np.triu_indices(101)
        keep = i + j <= 100
        i, j = i[keep], j[keep]
        assert np.all(sq[i + j] >= sq[i] + sq[j] - 1e-12)


def test_f_subadditive_in_window_grid():
    xs = np.linspace(0.0, 1.0, 101)
    for a in (0.8229, 0.9, 1.0, 1.2, 1.3027):
        vals = _grid_values(float(a), xs)
        i, j = np.triu_indices(101)
        keep = i + j <= 100
        i, j = i[keep], j[keep]
        assert np.all(vals[i + j] <= vals[i] + vals[j] + 1e-12)


def test_pairwise_concurrence_needs_provenance(bell_state):
    with pytest.raises(ProvenanceError):
        gw_pairwise_concurrence(bell_state, {0}, {1})


def test_pairwise_concurrence_closed_form_cross_check(rng):
    # independent oracle: 2 (1 - vacuum) sqrt(w_s w_k) in the block weights
    for _ in range(10):
        spec = random_gw_spec(rng, n_min=3, n_max=5, d=int(rng.integers(2, 4)))
        psi = superpose_with_vacuum(spec)
        blocks = [{0}, {1, 2} if spec.n > 3 else {1}]
        got = gw_pairwise_concurrence(psi, blocks[0], blocks[1]).value
        w = 1.0 - spec.vacuum_weight
        expected = (
            2.0
            * w
            * math.sqrt(spec.block_weight(blocks[0]) * spec.block_weight(blocks[1]))
        )
        assert got == pytest.approx(expected, abs=1e-10)


def test_pairwise_zero_cross_amplitudes():
    psi = build_w_qubit((0.0, 0.6, 0.8))
    assert gw_pairwise_concurrence(psi, {0}, {1}).value == pytest.approx(0.0, abs=1e-12)


def test_one_to_rest_split_featured():
    rho, partition = figure1_reduction()
    split = gw_one_to_rest_concurrence_sq(rho, partition, 0)
    assert split.pair_sum_sq == pytest.approx(0.82, abs=1e-10)
    assert split.direct_sq == pytest.approx(split.pair_sum_sq, abs=1e-9)
    assert split.pair_sq[0] == pytest.approx(0.5, abs=1e-10)
    assert split.pair_sq[1] == pytest.approx(0.32, abs=1e-10)


def test_one_to_rest_vacuum_state():
    spec = GWSpec.qubit(np.ones(3) / math.sqrt(3), vacuum_weight=1.0)
    psi = superpose_with_vacuum(spec)
    split = gw_one_to_rest_concurrence_sq(psi, Partition.singletons(3), 0)
    assert split.direct_sq == pytest.approx(0.0, abs=1e-12)
    assert split.pair_sum_sq == pytest.approx(0.0, abs=1e-12)


def test_one_to_rest_additivity_random(rng):
    worst = 0.0
    for _ in range(30):
        spec = random_gw_spec(rng, n_min=3, n_max=6)
        psi = superpose_with_vacuum(spec)
        from conftest import random_complete_partition

        partition = random_complete_partition(rng, spec.n)
        for s in range(partition.n_blocks):
            split = gw_one_to_rest_concurrence_sq(psi, partition, s)
            worst = max(worst, abs(split.direct_sq - split.pair_sum_sq))
    assert worst < 1e-9


def test_renyi_entanglement_featured():
    rho, partition = figure1_reduction()
    value = renyi_entanglement_gw(rho, partition, 0, 2.0).value
    assert value == pytest.approx(f2_closed(0.82), abs=1e-10)
    with pytest.raises(ApplicabilityError):
        renyi_entanglement_gw(rho, partition, 0, 0.5)


def test_negativity_values(bell_state):
    assert negativity(bell_state, ({0}, {1})).value == pytest.approx(1.0, abs=1e-10)
    prod = PureState(np.array([0, 1, 0, 0]), SubsystemLayout((2, 2)))
    assert negativity(prod, ({0}, {1})).value == pytest.approx(0.0, abs=1e-10)


def test_negativity_rank_two_equals_concurrence():
    psi = PureState(
        np.array([math.sqrt(0.75), 0.0, 0.0, 0.5]), SubsystemLayout((2, 2))
    )
    n = negativity(psi, ({0}, {1})).value
    c = concurrence_pure(psi, ({0}, {1})).value
    assert n == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-10)
    assert n == pytest.approx(c, abs=1e-10)


def test_cren_matches_concurrence_on_featured_pairs():
    rho, _ = figure1_reduction()
    pair01 = gw_pairwise_concurrence(rho, {0}, {1}).value
    assert cren_gw(rho, ({0}, {1})).value == pytest.approx(pair01, abs=1e-12)
    assert cren_gw(rho, ({0}, {2})).value == pytest.approx(
        TWO_SQRT2_OVER_5, abs=1e-10
    )


def test_cren_vacuum_is_zero():
    spec = GWSpec.qubit(np.ones(3) / math.sqrt(3), vacuum_weight=1.0)
    psi = superpose_with_vacuum(spec)
    assert cren_gw(psi, ({0}, {1, 2})).value == pytest.approx(0.0, abs=1e-12)


def test_cren_random_matches_pairwise(rng):
    for _ in range(10):
        spec = random_gw_spec(rng, n_min=3, n_max=5)
        psi = superpose_with_vacuum(spec)
        c = gw_pairwise_concurrence(psi, {0}, {1}).value
        assert cren_gw(psi, ({0}, {1})).value == pytest.approx(c, abs=1e-12)


def test_block_pair_reduction_memo_per_ordered_pair():
    psi = superpose_with_vacuum(GWSpec.qubit(FIG1_AMPLITUDES, vacuum_weight=0.2))
    twin = superpose_with_vacuum(GWSpec.qubit(FIG1_AMPLITUDES, vacuum_weight=0.2))
    ab = block_pair_reduction(psi, {0}, {1, 3})
    assert block_pair_reduction(psi, [0], (3, 1)) is ab
    ba = block_pair_reduction(psi, {1, 3}, {0})
    assert ba is not ab
    for mine, (a, b) in ((ab, ({0}, {1, 3})), (ba, ({1, 3}, {0}))):
        fresh = block_pair_reduction(twin, a, b)
        assert fresh is not mine
        np.testing.assert_array_equal(mine.matrix, fresh.matrix)
    # the orders compress differently; the qubit-pair concurrence agrees
    assert not np.allclose(ab.matrix, ba.matrix)
    c_ab = concurrence_two_qubit(ab)
    assert concurrence_two_qubit(ab) is c_ab
    assert concurrence_two_qubit(ba).value == pytest.approx(c_ab.value, abs=1e-12)


def test_block_pair_reduction_errors_are_not_memoized():
    psi = build_w_qubit(FIG1_AMPLITUDES)
    for _ in range(2):
        with pytest.raises(ValueError, match="overlap"):
            block_pair_reduction(psi, {0, 1}, {1})
    # three-level local supports on both sides: not a GW qubit pair
    qutrit_pair = PureState(
        np.array([1, 0, 0, 0, 1, 0, 0, 0, 1]) / math.sqrt(3.0),
        SubsystemLayout((3, 3)),
        gw=True,
    )
    for _ in range(2):
        with pytest.raises(FindingError):
            block_pair_reduction(qutrit_pair, {0}, {1})
    bad = DensityOperator(np.eye(8) / 8.0, SubsystemLayout((2, 2, 2)))
    for _ in range(2):
        with pytest.raises(ValueError, match="qubit pair"):
            concurrence_two_qubit(bad)

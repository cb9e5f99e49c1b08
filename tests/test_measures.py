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
    GWBlocks,
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
    negativity,
    partial_trace,
    reduce_to_parties,
    renyi_entanglement_gw,
    renyi_entropy,
    superpose_with_vacuum,
)
from gwlab.measures import _band, _f_alpha_tables
from gwlab.featured import (
    FIG1_AMPLITUDES,
    FIG2_AMPLITUDES,
    FIG3_AMPLITUDES,
    figure1_reduction,
    figure2_state,
    figure3_state,
)
from conftest import dense_block_pair, rand_unit, random_gw_spec

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


#: One order in each kernel branch and on both sides of 1: von Neumann
#: (1), expm1 (1 -+ 2e-6, 1.0005) and the log1p quotient (the rest).
BRANCH_ORDERS = (0.83, 0.9, 1.0 - 2e-6, 1.0, 1.0 + 2e-6, 1.0005, 1.2, 2.0, 5.0, 5000.0)
#: x = 0 has a zero Schmidt coefficient, 1e-300 a subnormal-free tiny one.
BRANCH_XS = (0.0, 1e-300, 1e-12, 0.3, 0.64, 1.0 - 1e-15, 1.0)


def test_f_alpha_array_matches_scalar():
    # the scalar is the one-value table, so every element of a longer table
    # is bit-equal to it, in every branch
    for a in BRANCH_ORDERS:
        values = next(_f_alpha_tables(np.array(BRANCH_XS), [a], 1))[0]
        assert values.shape == (len(BRANCH_XS),)
        for x, value in zip(BRANCH_XS, values):
            assert value == f_alpha(x, a), (x, a)


def test_zero_entropy_is_positive_zero():
    # above order 1 a zero entropy is 0.0 / (1 - a), which is -0.0 unless the
    # kernel adds 0.0, and CSV would write it as "-0"
    for a in BRANCH_ORDERS:
        assert math.copysign(1.0, f_alpha(0.0, a)) == 1.0, a
        assert not np.signbit(next(_f_alpha_tables(np.zeros(3), [a], 1))).any(), a
        assert math.copysign(1.0, renyi_entropy(SchmidtSpectrum([1.0]), a)) == 1.0, a


def test_f_alpha_grid_rows_match_scalar():
    # a table groups its orders by branch and evaluates each group in one
    # call; its rows come back in the grid's order, bit-equal to f_alpha,
    # whether the tables hold the whole grid or a few orders each
    grid = [1.2, 1.0, 0.9, 1.0 + 2e-6, 5000.0, 1.0 - 3e-7, 1.0005, 0.83, 2.0]
    for step in (len(grid), 4, 1):
        table = np.vstack(list(_f_alpha_tables(np.array(BRANCH_XS), grid, step)))
        assert table.shape == (len(grid), len(BRANCH_XS))
        for a, row in zip(grid, table):
            assert row.tolist() == [f_alpha(x, a) for x in BRANCH_XS], a
    single = next(_f_alpha_tables(np.array([0.3]), grid, len(grid)))
    assert single[:, 0].tolist() == [f_alpha(0.3, a) for a in grid]


def test_f_alpha_tables_are_position_independent():
    # a value's f_alpha does not depend on where it sits in a table or on its
    # neighbours: one table of the distinct values of many vectors, gathered
    # back by index, equals each vector's own table bit for bit, on lengths
    # that end in every SIMD tail and at orders in each kernel band
    rng = np.random.default_rng(9)
    lengths = [*range(1, 18), 31, 33, 64, 65]
    vectors = [rng.uniform(0.0, 1.0, size) for size in lengths]
    vectors[4][:2] = vectors[20][:2] = (0.0, 1.0)  # the domain's ends, and shared values
    grid = [0.83, 1.2, 2.0, 1.0005, 1.0 - 4e-4, 1.0 - 3e-7, 1.0, 1.0 + 5e-7]
    assert {_band(a) for a in grid} == {0, 1, 2}
    values, inverse = np.unique(np.concatenate(vectors), return_inverse=True)
    table = next(_f_alpha_tables(values, grid, len(grid)))
    ends = np.cumsum([0, *lengths])
    for vector, start, stop in zip(vectors, ends, ends[1:]):
        direct = next(_f_alpha_tables(vector, grid, len(grid)))
        assert table[:, inverse[start:stop]].tobytes() == direct.tobytes(), len(vector)


def _f_alpha_exact(x: float, a: float):
    """f_alpha at 700 digits, from the cancellation-free lambda_lo; 50 digits
    cannot tell 1 - lambda_lo from 1 at x = 1e-300."""
    with mpmath.workdps(700):
        x, a = mpmath.mpf(x), mpmath.mpf(a)
        lo = x / (2 * (1 + mpmath.sqrt(1 - x)))
        lams = (lo, 1 - lo)
        if a == 1:
            return -sum(lam * mpmath.log(lam, 2) for lam in lams)
        return mpmath.log(sum(lam**a for lam in lams), 2) / (1 - a)


@pytest.mark.parametrize("a", [0.83, 0.9, 1.0 - 2e-6, 1.0, 1.0 + 2e-6, 1.2, 2.0, 5.0])
def test_f_alpha_relative_error_over_full_range(a):
    # the smaller Schmidt coefficient used to come from (1 - sqrt(1-x))/2,
    # which cancels: relative error 8.5e-4 at x = 1e-14 and 1 below 1e-16
    xs = [10.0**e for e in range(-300, 0, 9)] + [0.3, 0.5, 0.9, 1.0 - 1e-9, 1.0]
    for x in xs:
        exact = _f_alpha_exact(x, a)
        assert abs(f_alpha(x, a) - exact) <= 1e-13 * exact, x


def test_g_alpha_matches_squared_argument():
    assert g_alpha(1.0, 2.0) == pytest.approx(1.0, abs=1e-12)
    assert g_alpha(0.0, 2.0) == pytest.approx(0.0, abs=1e-12)
    assert g_alpha(math.sqrt(0.5), 2.0) == pytest.approx(f_alpha(0.5, 2.0), abs=1e-12)


def test_renyi_entropy_values():
    for a in (0.5, 0.9, 1.0, 2.0, 4.0):
        assert renyi_entropy(SchmidtSpectrum([0.5, 0.5]), a) == pytest.approx(
            1.0, abs=1e-12
        )
        assert renyi_entropy(SchmidtSpectrum([1.0]), a) == pytest.approx(
            0.0, abs=1e-12
        )
    expected = -math.log2(10.0 / 16.0)
    assert renyi_entropy(SchmidtSpectrum([0.75, 0.25]), 2.0) == pytest.approx(
        expected, abs=1e-12
    )
    vn = binary_entropy(0.25)
    assert renyi_entropy(SchmidtSpectrum([0.75, 0.25]), 1.0) == pytest.approx(
        vn, abs=1e-12
    )
    # orders just outside the von Neumann band, where the plain quotient
    # loses about eps / |1 - alpha|; spectrum (0.8, 0.2) has C^2 = 0.64
    for a in (1.0 + 2e-6, 1.00002, 1.0 - 2e-6, 1.0009):
        with mpmath.workdps(50):
            lams = (mpmath.mpf("0.8"), mpmath.mpf("0.2"))
            exact = mpmath.log(sum(lam**a for lam in lams), 2) / (1 - mpmath.mpf(a))
        value = renyi_entropy(SchmidtSpectrum([0.8, 0.2]), a)
        assert abs(value - float(exact)) < 1e-14, a
        assert abs(value - f_alpha(0.64, a)) < 1e-14, a


@pytest.mark.parametrize("a", [2000.0, 5000.0, 1e4, 1e6])
def test_renyi_values_at_large_orders_match_mpmath(a):
    # past order ~1000 the plain power sum underflows; the factored form
    # keeps all three implementations finite and accurate
    xs = [0.05, 0.3, 0.75, 1.0]
    lams = [0.6, 0.3, 0.1]
    with mpmath.workdps(50):
        def plain(spectrum):
            total = sum(mpmath.mpf(lam) ** a for lam in spectrum)
            return float(mpmath.log(total, 2) / (1 - mpmath.mpf(a)))

        halves = [(1 - mpmath.sqrt(1 - mpmath.mpf(x))) / 2 for x in xs]
        exact_f = [plain((lo, 1 - lo)) for lo in halves]
        exact_s = plain(lams)
    arrays = next(_f_alpha_tables(np.array(xs), [a], 1))[0]
    for x, value, exact in zip(xs, arrays, exact_f):
        assert f_alpha(x, a) == pytest.approx(exact, rel=1e-12), x
        assert value == pytest.approx(exact, rel=1e-12), x
    assert renyi_entropy(SchmidtSpectrum(lams), a) == pytest.approx(exact_s, rel=1e-12)


@pytest.mark.parametrize("a", [0.9, 1.0 - 2e-6, 1.0, 1.0 + 2e-6, 1.0005, 2.0])
def test_rank_three_renyi_matches_mpmath_in_every_branch(a):
    # the kernel's rank > 2 form in the von Neumann, expm1 and quotient
    # branches: the largest coefficient enters as one minus the others, so
    # the reference normalizes the same way (near order 1 an unnormalized
    # sum would move the plain quotient by about eps / |1 - a|)
    with mpmath.workdps(50):
        minor = [mpmath.mpf(0.3), mpmath.mpf(0.1)]
        lams = [1 - sum(minor)] + minor
        exact = (
            -sum(lam * mpmath.log(lam, 2) for lam in lams) if a == 1.0
            else mpmath.log(sum(lam**a for lam in lams), 2) / (1 - mpmath.mpf(a))
        )
    value = renyi_entropy(SchmidtSpectrum([0.6, 0.3, 0.1]), a)
    assert value == pytest.approx(float(exact), rel=1e-13)


def test_renyi_on_density_operator(bell_state):
    rho = partial_trace(bell_state, {0})
    assert renyi_entropy(rho, 3.0) == pytest.approx(1.0, abs=1e-12)


def test_rank_two_identity_between_entropy_and_concurrence(rng):
    # spectrum (l, 1-l) has Renyi entropy equal to f_alpha(4 l (1-l))
    for _ in range(20):
        lam = float(rng.uniform(0.5, 1.0))
        c2 = 4.0 * lam * (1.0 - lam)
        for a in (0.83, 0.95, 1.0, 1.2, 2.0, 3.5):
            s = renyi_entropy(SchmidtSpectrum([lam, 1 - lam]), a)
            assert s == pytest.approx(f_alpha(c2, a), abs=1e-10)


def test_concurrence_pure_values(bell_state):
    assert concurrence_pure(bell_state, ({0}, {1})) == pytest.approx(1.0, abs=1e-12)
    prod = PureState(np.array([0, 1, 0, 0]), SubsystemLayout((2, 2)))
    assert concurrence_pure(prod, ({0}, {1})) == pytest.approx(0.0, abs=1e-12)
    psi3 = figure3_state()
    assert concurrence_pure(psi3, ({0}, {1, 2})) == pytest.approx(
        math.sqrt(5.0) / 3.0, abs=1e-12
    )


def test_two_qubit_concurrence_on_featured_pairs():
    rho, _ = figure1_reduction()
    pair01 = concurrence_two_qubit(dense_block_pair(rho, {0}, {1}))
    pair02 = concurrence_two_qubit(dense_block_pair(rho, {0}, {2}))
    assert pair01 == pytest.approx(SQRT2_OVER_2, abs=1e-10)
    assert pair02 == pytest.approx(TWO_SQRT2_OVER_5, abs=1e-10)
    assert gw_pairwise_concurrence(rho, {0}, {1}) == pytest.approx(pair01, abs=1e-12)


def test_two_qubit_concurrence_maximally_mixed():
    rho = DensityOperator(np.eye(4) / 4, SubsystemLayout((2, 2)))
    assert concurrence_two_qubit(rho) == 0.0


def test_two_qubit_concurrence_agrees_with_pure(rng):
    for _ in range(20):
        psi = PureState(rand_unit(rng, 4), SubsystemLayout((2, 2)))
        a = concurrence_pure(psi, ({0}, {1}))
        b = concurrence_two_qubit(psi.density())
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
        assert concurrence_two_qubit(rho) == pytest.approx(expected, abs=1e-8)


def test_werner_mixture_separable_point(bell_state):
    q = 0.3
    mat = q * bell_state.density().matrix + (1 - q) * np.eye(4) / 4
    rho = DensityOperator(mat, SubsystemLayout((2, 2)))
    assert concurrence_two_qubit(rho) == 0.0


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
    # independent oracle: 2 sqrt(t_s t_k) in the block weights t, which carry
    # the factor 1 - vacuum
    for _ in range(10):
        spec = random_gw_spec(rng, n_min=3, n_max=5, d=int(rng.integers(2, 4)))
        psi = superpose_with_vacuum(spec)
        blocks = [{0}, {1, 2} if spec.n > 3 else {1}]
        got = gw_pairwise_concurrence(psi, blocks[0], blocks[1])
        t_s, t_k = Partition.of(blocks).block_sums(GWBlocks.of(spec).weights).tolist()
        expected = 2.0 * math.sqrt(t_s * t_k)
        assert got == pytest.approx(expected, abs=1e-10)


def test_pairwise_zero_cross_amplitudes():
    psi = build_w_qubit((0.0, 0.6, 0.8))
    assert gw_pairwise_concurrence(psi, {0}, {1}) == pytest.approx(0.0, abs=1e-12)


def test_one_to_rest_split_featured():
    rho, partition = figure1_reduction()
    first, *others = partition.blocks
    c2 = gw_one_to_rest_concurrence_sq(rho, partition, 0)
    assert c2 == pytest.approx(0.82, abs=1e-10)
    pair_sq = [gw_pairwise_concurrence(rho, first, other) ** 2 for other in others]
    assert pair_sq == pytest.approx([0.5, 0.32], abs=1e-10)


def test_one_to_rest_vacuum_state():
    spec = GWSpec.qubit(np.ones(3) / math.sqrt(3), vacuum_weight=1.0)
    psi = superpose_with_vacuum(spec)
    c2 = gw_one_to_rest_concurrence_sq(psi, Partition.singletons(3), 0)
    assert c2 == pytest.approx(0.0, abs=1e-12)


def test_one_to_rest_sum_adds_left_to_right():
    # each 2**-55 term is under half an ulp of 0.75, so a left-to-right sum
    # stays at 0.75; a compensated one (CPython 3.12's builtin sum) rounds
    # the three terms together up to the next float
    delta = 2.0**-55
    weights = (0.25, 0.75, delta, delta, delta)
    blocks = GWBlocks(weights, (2,) * 5)
    pair_sq = [4.0 * weights[0] * t for t in weights[1:]]
    assert pair_sq == [0.75, delta, delta, delta]
    assert gw_one_to_rest_concurrence_sq(blocks, Partition.singletons(5), 0) == 0.75
    assert math.fsum(pair_sq) > 0.75


def test_one_to_rest_additivity_random(rng):
    # the pair table sums to the dense one-to-rest concurrence of the cut
    worst = 0.0
    for _ in range(30):
        spec = random_gw_spec(rng, n_min=3, n_max=6)
        psi = superpose_with_vacuum(spec)
        from conftest import random_complete_partition

        partition = random_complete_partition(rng, spec.n)
        for s in range(partition.n_blocks):
            c2 = gw_one_to_rest_concurrence_sq(psi, partition, s)
            block = partition.blocks[s]
            direct = concurrence_pure(psi, (block, partition.parties() - block))
            worst = max(worst, abs(direct**2 - c2))
    assert worst < 1e-9


def test_renyi_entanglement_featured():
    rho, partition = figure1_reduction()
    value = renyi_entanglement_gw(rho, partition, 0, 2.0)
    assert value == pytest.approx(f2_closed(0.82), abs=1e-10)
    with pytest.raises(ApplicabilityError):
        renyi_entanglement_gw(rho, partition, 0, 0.5)


def test_negativity_values(bell_state):
    assert negativity(bell_state, ({0}, {1})) == pytest.approx(1.0, abs=1e-10)
    prod = PureState(np.array([0, 1, 0, 0]), SubsystemLayout((2, 2)))
    assert negativity(prod, ({0}, {1})) == pytest.approx(0.0, abs=1e-10)


def test_negativity_rank_two_equals_concurrence():
    psi = PureState(
        np.array([math.sqrt(0.75), 0.0, 0.0, 0.5]), SubsystemLayout((2, 2))
    )
    n = negativity(psi, ({0}, {1}))
    c = concurrence_pure(psi, ({0}, {1}))
    assert n == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-10)
    assert n == pytest.approx(c, abs=1e-10)


def test_cren_matches_concurrence_on_featured_pairs():
    rho, _ = figure1_reduction()
    pair01 = gw_pairwise_concurrence(rho, {0}, {1})
    assert cren_gw(rho, ({0}, {1})) == pytest.approx(pair01, abs=1e-12)
    assert cren_gw(rho, ({0}, {2})) == pytest.approx(
        TWO_SQRT2_OVER_5, abs=1e-10
    )


def test_cren_vacuum_is_zero():
    spec = GWSpec.qubit(np.ones(3) / math.sqrt(3), vacuum_weight=1.0)
    psi = superpose_with_vacuum(spec)
    assert cren_gw(psi, ({0}, {1, 2})) == pytest.approx(0.0, abs=1e-12)


def test_cren_random_matches_pairwise(rng):
    for _ in range(10):
        spec = random_gw_spec(rng, n_min=3, n_max=5)
        psi = superpose_with_vacuum(spec)
        c = gw_pairwise_concurrence(psi, {0}, {1})
        assert cren_gw(psi, ({0}, {1})) == pytest.approx(c, abs=1e-12)


def test_block_pair_reduction_either_order_gives_one_concurrence():
    psi = superpose_with_vacuum(GWSpec.qubit(FIG1_AMPLITUDES, vacuum_weight=0.2))
    ab = block_pair_reduction(psi, {0}, {1, 3})
    np.testing.assert_array_equal(block_pair_reduction(psi, [0], (3, 1)).matrix, ab.matrix)
    ba = block_pair_reduction(psi, {1, 3}, {0})
    # block a comes first, so the orders give different pairs with one concurrence
    assert not np.allclose(ab.matrix, ba.matrix)
    c_ab = concurrence_two_qubit(ab)
    assert concurrence_two_qubit(ba) == pytest.approx(c_ab, abs=1e-12)
    assert c_ab == pytest.approx(gw_pairwise_concurrence(psi, {0}, {1, 3}), abs=1e-12)


def test_block_pair_reduction_refuses_bad_blocks_and_states():
    psi = build_w_qubit(FIG1_AMPLITUDES)
    with pytest.raises(ValueError, match="overlap"):
        block_pair_reduction(psi, {0, 1}, {1})
    with pytest.raises(ValueError, match="pure state"):
        block_pair_reduction(reduce_to_parties(psi, {0, 1, 2}), {0}, {1})
    # three-level local supports on both sides: not a GW qubit pair
    qutrit_pair = PureState(
        np.array([1, 0, 0, 0, 1, 0, 0, 0, 1]) / math.sqrt(3.0),
        SubsystemLayout((3, 3)),
        gw=True,
    )
    with pytest.raises(ValueError, match="outside Hamming weight <= 1"):
        block_pair_reduction(qutrit_pair, {0}, {1})
    bad = DensityOperator(np.eye(8) / 8.0, SubsystemLayout((2, 2, 2)))
    with pytest.raises(ValueError, match="qubit pair"):
        concurrence_two_qubit(bad)

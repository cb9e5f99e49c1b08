"""Checker behavior on the featured instances and random family states."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gwlab import (
    Applicability,
    GWBlocks,
    GWSpec,
    Partition,
    TighterParams,
    build_w_qubit,
    check_merged_block_upper_bound,
    check_monogamy_power,
    check_monogamy_sq,
    check_polygamy,
    check_polygamy_power,
    check_reoa_triangle,
    check_tighter_multi,
    check_tighter_three,
    check_upper_bound_bipartition,
    f_alpha,
    h_coefficient,
    renyi_entropy,
    report_to_csv_row,
    report_to_json_line,
    run_mixture_suite,
    schmidt_spectrum,
    superpose_with_vacuum,
)
import gwlab.inequalities
from gwlab.featured import figure1_reduction, figure2_blocks, figure2_state, figure3_state
from gwlab.inequalities import (
    _HELD, _OUT, Prepared, _block_weights, _fold, _grid, _merged_cut_bound, _monogamy_cap,
    _power_relation, _reoa_triangle, _tightened, _trace_bound_renyi, at_orders,
)
from gwlab.measures import _pair_table
from conftest import random_complete_partition, random_gw_spec


def f2_closed(x):
    return 1.0 - math.log2(2.0 - x)


def test_h_coefficient_values():
    for k in (1.0, 2.0, 7.5):
        assert h_coefficient(k, 1.0) == pytest.approx(1.0, abs=1e-14)
        assert h_coefficient(k, 0.0) == pytest.approx(0.0, abs=1e-14)
    assert h_coefficient(2.0, 0.5) == pytest.approx(
        (math.sqrt(3.0) - 1.0) / math.sqrt(2.0), abs=1e-12
    )
    with pytest.raises(ValueError):
        h_coefficient(0.5, 0.5)
    with pytest.raises(ValueError):
        h_coefficient(2.0, 1.5)


def test_h_coefficient_and_tighter_params_need_finite_values():
    # an infinite k made h = inf / inf = NaN
    for k in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            h_coefficient(k, 0.5)
    for bad in ({"k": math.nan}, {"k": math.inf}, {"c_pow": math.inf},
                {"c_pow": math.nan}, {"b_pow": math.nan}):
        with pytest.raises(ValueError, match="must be finite"):
            TighterParams(**{"c_pow": 2.0, "b_pow": 1.0, "k": 2.0, **bad})


def _power_bound_slack(x, k, t):
    """(1+x)^t - (1 + h(k, t) x^t), the lemma behind h_coefficient: it is
    nonnegative for x >= k >= 1 and t in [0, 1]."""
    return (1.0 + x) ** t - (1.0 + h_coefficient(k, t) * x**t)


@settings(max_examples=200, deadline=None)
@given(
    k=st.floats(min_value=1.0, max_value=50.0),
    t=st.floats(min_value=0.0, max_value=1.0),
    extra=st.floats(min_value=0.0, max_value=100.0),
)
def test_scalar_power_bound_property(k, t, extra):
    assert _power_bound_slack(k + extra, k, t) >= -1e-12


def test_scalar_power_bound_boundary_equality():
    # equality at x = k, and at t = 1 for every x (h = 1 there)
    for k in (1.0, 2.0, 5.0):
        for t in (0.1, 0.5, 0.9):
            assert abs(_power_bound_slack(k, k, t)) < 1e-12
    assert abs(_power_bound_slack(17.0, 3.0, 1.0)) < 1e-12


def test_scalar_power_bound_precondition():
    # below x = k the bound fails, which is why the tightened bounds are
    # conditioned on k-fold dominance
    assert _power_bound_slack(0.5, 1.0, 0.5) < -0.05


def test_monogamy_sq_featured_values():
    rho, partition = figure1_reduction()
    report = check_monogamy_sq(rho, partition, 0, 2.0)
    assert report.lhs == pytest.approx(f2_closed(0.82) ** 2, abs=1e-10)
    assert report.rhs == pytest.approx(
        f2_closed(0.5) ** 2 + f2_closed(0.32) ** 2, abs=1e-10
    )
    assert report.satisfied


def test_monogamy_sq_window_gate():
    rho, partition = figure1_reduction()
    report = check_monogamy_sq(rho, partition, 0, 0.5)
    assert report.applicability == Applicability.OUT_OF_WINDOW
    assert report.satisfied  # vacuously


def test_monogamy_sq_vacuum():
    spec = GWSpec.qubit(np.ones(3) / math.sqrt(3), vacuum_weight=1.0)
    psi = superpose_with_vacuum(spec)
    report = check_monogamy_sq(psi, Partition.singletons(3), 0, 2.0)
    assert report.lhs == pytest.approx(0.0, abs=1e-12)
    assert report.rhs == pytest.approx(0.0, abs=1e-12)
    assert report.satisfied


def test_monogamy_power_reduces_to_square():
    rho, partition = figure1_reduction()
    a = check_monogamy_power(rho, partition, 0, 2.0, 2.0)
    b = check_monogamy_sq(rho, partition, 0, 2.0)
    assert a.lhs == pytest.approx(b.lhs, abs=1e-14)
    assert a.rhs == pytest.approx(b.rhs, abs=1e-14)
    higher = check_monogamy_power(rho, partition, 0, 2.0, 4.0)
    assert higher.satisfied
    with pytest.raises(ValueError):
        check_monogamy_power(rho, partition, 0, 2.0, 1.5)


@pytest.mark.parametrize("mu", [math.nan, math.inf])
def test_power_checkers_reject_non_finite_mu(mu):
    rho, partition = figure1_reduction()
    with pytest.raises(ValueError, match="finite mu >= 2"):
        check_monogamy_power(rho, partition, 0, 2.0, mu)
    with pytest.raises(ValueError, match="mu in"):
        check_polygamy_power(rho, partition, 0, 1.1, mu)


def test_polygamy_featured_chain():
    rho, partition = figure1_reduction()
    report = check_polygamy(rho, partition, 0, 1.1)
    assert report.satisfied
    mono = check_monogamy_sq(rho, partition, 0, 1.1)
    lower = math.sqrt(mono.rhs)
    assert lower <= report.lhs + 1e-9
    assert report.lhs <= report.rhs + 1e-9


def test_polygamy_window_gate():
    rho, partition = figure1_reduction()
    assert (
        check_polygamy(rho, partition, 0, 2.0).applicability
        == Applicability.OUT_OF_WINDOW
    )


def test_polygamy_power_reduces_to_plain():
    rho, partition = figure1_reduction()
    a = check_polygamy_power(rho, partition, 0, 1.1, 1.0)
    b = check_polygamy(rho, partition, 0, 1.1)
    assert a.lhs == pytest.approx(b.lhs, abs=1e-14)
    assert check_polygamy_power(rho, partition, 0, 1.1, 0.5).satisfied
    with pytest.raises(ValueError):
        check_polygamy_power(rho, partition, 0, 1.1, 1.2)


def test_merged_block_bound_featured():
    psi = figure2_state()
    block_p, block_q, block_r = figure2_blocks()
    report = check_merged_block_upper_bound(psi, block_p, block_q, [block_r], 1.2)
    assert report.satisfied
    # the merged cut has Schmidt rank two, so the closed form agrees with the
    # spectrum entropy
    spectrum = schmidt_spectrum(psi, (block_p | block_q, block_r))
    assert report.lhs == pytest.approx(renyi_entropy(spectrum, 1.2), abs=1e-10)
    assert report.lhs == pytest.approx(f_alpha(15.0 / 64.0, 1.2), abs=1e-10)


def test_merged_block_bound_intermediate_values():
    # closed-form squared concurrences of the featured state
    psi = figure2_state()
    block_p, block_q, block_r = figure2_blocks()
    from gwlab import gw_one_to_rest_concurrence_sq, gw_pairwise_concurrence

    merged = Partition.of([block_p | block_q, block_r])
    c2 = gw_one_to_rest_concurrence_sq(psi, merged, 0)
    assert c2 == pytest.approx(15.0 / 64.0, abs=1e-12)
    assert gw_pairwise_concurrence(psi, block_p, block_q) ** 2 == pytest.approx(
        27.0 / 32.0, abs=1e-12
    )
    assert gw_pairwise_concurrence(psi, block_p, block_r) ** 2 == pytest.approx(
        9.0 / 64.0, abs=1e-12
    )
    assert gw_pairwise_concurrence(psi, block_q, block_r) ** 2 == pytest.approx(
        3.0 / 32.0, abs=1e-12
    )


def test_merged_block_bound_vacuum():
    spec = GWSpec.qubit(np.ones(4) / 2.0, vacuum_weight=1.0)
    psi = superpose_with_vacuum(spec)
    report = check_merged_block_upper_bound(psi, {0}, {1}, [{2}, {3}], 1.0 + 1e-3)
    assert report.lhs == pytest.approx(0.0, abs=1e-10)
    assert report.satisfied


def test_reoa_triangle_featured():
    rho, partition = figure1_reduction()
    report = check_reoa_triangle(rho, partition, 1.1)
    assert report.satisfied
    symmetric = build_w_qubit(np.ones(3) / math.sqrt(3))
    report = check_reoa_triangle(symmetric, Partition.singletons(3), 1.1)
    assert report.lhs == pytest.approx(report.rhs / 2.0, abs=1e-10)


def test_reoa_triangle_random(rng):
    for _ in range(25):
        spec = random_gw_spec(rng, n_min=3, n_max=6)
        psi = superpose_with_vacuum(spec)
        partition = random_complete_partition(rng, spec.n, 3)
        for a in (0.83, 1.05, 1.3):
            report = check_reoa_triangle(psi, partition, a)
            assert report.applicability == Applicability.APPLICABLE
            assert report.satisfied, report


def test_bipartition_bound_featured():
    psi = figure2_state()
    block_p, block_q, block_r = figure2_blocks()
    report = check_upper_bound_bipartition(psi, block_p, block_q, [block_r], 1.2)
    assert report.satisfied
    report = check_upper_bound_bipartition(psi, {0}, {1}, [{2}, {3}], 1.2)
    assert report.satisfied


def test_tighter_three_featured_dominance():
    psi = figure3_state()
    partition = Partition.singletons(3)
    exact = math.sqrt(5.0) / 3.0
    for b_pow in np.linspace(0.0, 2.0, 101):
        params_k1 = TighterParams(c_pow=2.0, b_pow=float(b_pow), k=1.0)
        params_k2 = TighterParams(c_pow=2.0, b_pow=float(b_pow), k=2.0)
        r1 = check_tighter_three(psi, partition, params_k1, "concurrence")
        r2 = check_tighter_three(psi, partition, params_k2, "concurrence")
        assert r1.applicability == Applicability.APPLICABLE
        assert r2.applicability == Applicability.APPLICABLE
        assert r1.satisfied and r2.satisfied
        assert r2.rhs >= r1.rhs - 1e-12  # larger k tightens the bound
        assert r1.lhs == pytest.approx(exact ** float(b_pow), abs=1e-10)
        # monotone tightening: slack shrinks but never goes negative
        assert r2.slack <= r1.slack + 1e-12
        assert r2.slack >= -1e-9


def test_tighter_three_b_equals_c_is_plain_additivity():
    psi = figure3_state()
    partition = Partition.singletons(3)
    params = TighterParams(c_pow=2.0, b_pow=2.0, k=3.0)
    report = check_tighter_three(psi, partition, params, "concurrence")
    assert params.h == pytest.approx(1.0, abs=1e-14)
    assert report.slack == pytest.approx(0.0, abs=1e-10)


def test_tighter_three_condition_unmet():
    psi = figure3_state()
    partition = Partition.singletons(3)
    params = TighterParams(c_pow=2.0, b_pow=1.0, k=5.0)  # condition needs k <= 4
    report = check_tighter_three(psi, partition, params, "concurrence")
    assert report.applicability == Applicability.CONDITION_UNMET
    assert "condition_margin" in report.params


def test_tighter_three_kinds_agree_numerically():
    psi = figure3_state()
    partition = Partition.singletons(3)
    params = TighterParams(c_pow=2.0, b_pow=1.0, k=2.0)
    conc = check_tighter_three(psi, partition, params, "concurrence")
    cren = check_tighter_three(psi, partition, params, "cren")
    assert conc.lhs == pytest.approx(cren.lhs, abs=1e-12)
    assert conc.rhs == pytest.approx(cren.rhs, abs=1e-12)
    renyi = check_tighter_three(psi, partition, params, "renyi", order=2.0)
    assert renyi.satisfied
    gated = check_tighter_three(psi, partition, params, "renyi", order=0.5)
    assert gated.applicability == Applicability.OUT_OF_WINDOW


def test_tighter_multi_matches_three_block_case():
    psi = figure3_state()
    partition = Partition.singletons(3)
    params = TighterParams(c_pow=2.0, b_pow=1.0, k=2.0)
    three = check_tighter_three(psi, partition, params, "concurrence")
    multi = check_tighter_multi(psi, partition, 2, params, "concurrence")
    # split index 2 puts the single condition on the same chain
    assert multi.applicability == Applicability.APPLICABLE
    assert multi.lhs == pytest.approx(three.lhs, abs=1e-12)
    assert multi.rhs == pytest.approx(three.rhs, abs=1e-12)


def test_tighter_multi_five_blocks():
    # weights engineered so both condition chains hold at k=1, split 2:
    # chain 1 needs w2 <= w3+w4+w5, chain 2 needs w3 >= w4+w5 and w4 >= w5
    weights = np.array([0.10, 0.05, 0.50, 0.25, 0.10])
    psi = build_w_qubit(np.sqrt(weights))
    params = TighterParams(c_pow=2.0, b_pow=1.0, k=1.0)
    report = check_tighter_multi(psi, Partition.singletons(5), 2, params, "concurrence")
    assert report.applicability == Applicability.APPLICABLE
    assert report.satisfied
    # k=1 with b = c reduces to plain power additivity with h = 1
    plain = TighterParams(c_pow=2.0, b_pow=2.0, k=1.0)
    report = check_tighter_multi(psi, Partition.singletons(5), 2, plain, "concurrence")
    assert report.applicability == Applicability.APPLICABLE
    assert report.slack == pytest.approx(0.0, abs=1e-9)


def test_tighter_multi_reports_failing_condition():
    weights = np.array([0.10, 0.05, 0.10, 0.25, 0.50])
    psi = build_w_qubit(np.sqrt(weights))
    params = TighterParams(c_pow=2.0, b_pow=1.0, k=1.0)
    report = check_tighter_multi(psi, Partition.singletons(5), 2, params, "concurrence")
    assert report.applicability == Applicability.CONDITION_UNMET
    assert report.params["failed_condition"]["chain"] == 2


def test_tighter_multi_random_condition_filtered(rng):
    # sample instances until the conditions hold, then the bound must too
    found = 0
    attempts = 0
    while found < 8 and attempts < 400:
        attempts += 1
        spec = random_gw_spec(rng, n_min=4, n_max=6, vacuum="never")
        psi = superpose_with_vacuum(spec)
        m = spec.n
        split = int(rng.integers(1, m))
        params = TighterParams(c_pow=2.0, b_pow=float(rng.uniform(0.2, 2.0)), k=1.0)
        report = check_tighter_multi(
            psi, Partition.singletons(m), split, params, "concurrence"
        )
        if report.applicability == Applicability.APPLICABLE:
            found += 1
            assert report.satisfied, report
    assert found >= 8


def _left_sum(values):
    """Add left to right from 0.0, the order every checker sums in."""
    total = 0.0
    for v in values:
        total += v
    return total


def _c2(t, a, b):
    # the one-to-rest table's product: (4 t_a) t_b
    return 4.0 * t[a] * t[b]


def test_merged_and_pair_block_bounds_fold_bit_for_bit(rng):
    # rhs = 2 f(PQ) + sum_R f(PR) + sum_R f(QR), each sum left to right, and
    # lhs = f(sum_R 4 t_PQ t_R) with t_PQ summed over the parties of P and Q
    def pair_rhs(t, f):  # t: the block weights of P, Q, R1, R2, ...
        rest = range(2, len(t))
        return (2.0 * f(_c2(t, 0, 1)) + _left_sum(f(_c2(t, 0, r)) for r in rest)
                + _left_sum(f(_c2(t, 1, r)) for r in rest))

    def cut_c2(weights, blocks):
        t = [math.fsum(weights[p] for p in blocks[0] | blocks[1])]
        t += [math.fsum(weights[p] for p in b) for b in blocks[2:]]
        return _left_sum(_c2(t, 0, r) for r in range(1, len(t)))

    def cases():
        # P = {0, 1}: here the fsum over P and Q is one ulp below t_P + t_Q
        weights = (0.21584984358706985, 0.17413972888425444, 0.22940563086548488,
                   0.14389989572471326, 0.2367049009384776)
        yield GWBlocks(weights, (2,) * 5), [{0, 1}, {2}, {3}, {4}], 1.1
        for _ in range(20):
            spec = random_gw_spec(rng, n_min=6, n_max=9)
            n_blocks = int(rng.integers(5, spec.n + 1))
            blocks = random_complete_partition(rng, spec.n, n_blocks).blocks
            yield GWBlocks.of(spec), blocks, float(rng.uniform(0.83, 1.3))

    for psi, blocks, order in cases():
        blocks = [frozenset(b) for b in blocks]

        def f(x):
            return f_alpha(x, order)

        t = [math.fsum(psi.weights[p] for p in b) for b in blocks]
        report = check_merged_block_upper_bound(psi, *blocks[:2], blocks[2:], order)
        cut = cut_c2(psi.weights, blocks)
        assert report.applicability == Applicability.APPLICABLE
        assert (report.lhs, report.rhs) == (f(cut), pair_rhs(t, f))

        # without the last block the pair-block bound runs on a reduction,
        # whose parties keep their weights
        t = t[:-1]
        report = check_upper_bound_bipartition(psi, *blocks[:2], blocks[2:-1], order)
        cut = cut_c2(psi.weights, blocks[:-1])
        assert report.applicability == Applicability.APPLICABLE
        assert (report.lhs, report.rhs) == (f(cut), pair_rhs(t, f))


def test_tighter_multi_renyi_folds_bit_for_bit(rng):
    # m blocks split at n, 2 <= n <= m - 2, both condition chains holding:
    # rhs = sum_{i<=n} h^(i-2) M_i^b + h^n sum_{n<i<m} M_i^b + h^(n-1) M_m^b
    k = 1.2
    for _ in range(20):
        m = int(rng.integers(6, 10))
        n = int(rng.integers(2, m - 1))
        later = [float(rng.uniform(0.5, 1.0))]  # pair weights m, m-1, ..., 2
        for j in range(m - 1, 1, -1):
            scale = k * rng.uniform(1.05, 2.0) if j > n else rng.uniform(0.1, 0.95) / k
            later.append(float(scale * math.fsum(later)))
        raw = [float(rng.uniform(0.5, 2.0) * math.fsum(later))] + later[::-1]
        t = tuple(x / math.fsum(raw) for x in raw)
        psi = GWBlocks(t, (2,) * m)
        params = TighterParams(c_pow=2.0, b_pow=float(rng.uniform(0.5, 2.0)), k=k)
        order, b, h = float(rng.uniform(0.9, 3.0)), params.b_pow, params.h
        report = check_tighter_multi(
            psi, Partition.singletons(m), n, params, "renyi", order
        )
        # each M^b is taken as the fold takes it, by np.power
        pair = [None, None] + [
            np.power(f_alpha(_c2(t, 0, i - 1), order), b) for i in range(2, m + 1)
        ]
        lhs = np.power(f_alpha(_left_sum(_c2(t, 0, i) for i in range(1, m)), order), b)
        rhs = _left_sum(h ** (i - 2) * pair[i] for i in range(2, n + 1))
        rhs += h**n * _left_sum(pair[i] for i in range(n + 1, m))
        rhs += h ** (n - 1) * pair[m]
        assert report.applicability == Applicability.APPLICABLE
        assert (report.lhs, report.rhs) == (lhs, rhs)


#: Lengths of a fold's rows: every SIMD tail up to 16 lanes, and past 32 and 64.
FOLD_LENGTHS = [*range(1, 18), 31, 33, 64, 65]


@pytest.mark.parametrize("mu", [0.5, 1.0, 2.0, 3.0])
def test_fold_rows_equal_one_row_calls(rng, mu):
    # each row of a block folds to the bits of a 1-D call on that row alone,
    # also when the block is a strided span of a wider table, as at_orders
    # hands it over
    for length in FOLD_LENGTHS:
        k = max(2, length // 2)
        for groups in (((1.0, 1, None),), ((2.0, 1, 2), (1.0, 2, k), (0.7, k, None))):
            wide = rng.uniform(0.0, 1.0, size=(9, length + 5))
            for block in (wide[:, :length].copy(), wide[:, 3 : 3 + length]):
                lhs, rhs = _fold(block, mu, groups)
                for row, l, r in zip(block, lhs, rhs):
                    one = _fold(row.copy(), mu, groups)
                    assert (float(one[0]), float(one[1])) == (l, r), (length, groups)
                    # and each group's terms add left to right, not pairwise
                    terms = np.power(row, mu).tolist()
                    want = 0.0
                    for coef, start, stop in groups:
                        want += coef * _left_sum(terms[start:stop])
                    assert r == want, (length, groups)


def _report_values(reports):
    return [(r.name, r.applicability, r.lhs, r.rhs, r.slack, r.params) for r in reports]


def test_split_grid_blocks_change_no_bit(rng, monkeypatch):
    # with GRID_VALUES small the grid is evaluated a few orders at a time;
    # every report keeps its bits
    spec = random_gw_spec(rng, n_min=6, n_max=6, vacuum="always")
    psi = GWBlocks.of(spec)
    partition = random_complete_partition(rng, 6, 5)
    t = psi.merged(partition).weights
    t3 = _block_weights(psi, Partition.of(partition.blocks[:3]))
    tighter = TighterParams(c_pow=2.0, b_pow=1.3, k=1.1)
    checks = [
        _power_relation("monogamy_power", "ge", _pair_table(t, 0), 0, 3.0),
        _power_relation("polygamy_power", "le", _pair_table(t, 1), 1, 0.5),
        _reoa_triangle(t3),
        _merged_cut_bound("pair_block_upper_bound", psi.weights, partition.labels, t,
                          _pair_table(t, 0)),
        _monogamy_cap(_pair_table(t, 0), 2),
        _trace_bound_renyi(psi, Partition.cut(({0}, range(1, 6)))),
        _tightened(_pair_table(t, 0), 2, tighter, "renyi"),
        _tightened(_pair_table(t, 0), 1, tighter, "concurrence"),
    ]
    grid = [0.6 + 0.037 * i for i in range(25)]
    whole = _report_values(at_orders(grid, checks))
    for values in (1, 5, 13, 40):
        monkeypatch.setattr(gwlab.inequalities, "GRID_VALUES", values)
        assert _report_values(at_orders(grid, checks)) == whole, values


def _cut_weights(monkeypatch, prepare):
    """The weights of the cut that ``prepare()`` hands to the pair table of
    its first block (the one ``_pair_table`` call with s = 0)."""
    seen = []

    def spy(t, s):
        seen.append((np.array(t, dtype=float), s))
        return _pair_table(t, s)

    with monkeypatch.context() as patch:
        patch.setattr(gwlab.inequalities, "_pair_table", spy)
        prepare()
    [cut] = [t for t, s in seen if s == 0]
    return cut


def test_cut_weights_are_the_block_sums_of_the_merged_blocks(rng, monkeypatch):
    # the merged-cut bounds' (t_PQ, t_R...) and the trace bound's (t_0,
    # t_rest) are fsums over masks of the labels; each is, bit for bit, the
    # block sum of the partition whose blocks are the merged ones, on
    # singletons, on blocks of many parties and on blocks that leave parties
    # out (as check_upper_bound_bipartition allows)
    for _ in range(40):
        n = int(rng.integers(4, 12))
        # weights over twelve decades, so that adding in another order than
        # fsum's would round differently
        raw = rng.uniform(size=n) * 10.0 ** rng.integers(-12, 1, size=n)
        psi = GWBlocks(raw / math.fsum(raw), (2,) * n)
        complete = random_complete_partition(rng, n, int(rng.integers(3, n + 1)))
        kept = [b for b in complete.blocks if rng.uniform() < 0.7]
        partial = [Partition.of(kept)] if len(kept) >= 3 else []
        for partition in (Partition.singletons(n), complete, *partial):
            blocks, t = partition.blocks, partition.block_sums(psi.weights)
            cut = _cut_weights(monkeypatch, lambda: _merged_cut_bound(
                "merged_block_upper_bound", psi.weights, partition.labels, t, _pair_table(t, 0)))
            want = Partition.of([blocks[0] | blocks[1], *blocks[2:]]).block_sums(psi.weights)
            assert cut.tobytes() == want.tobytes()
            if partition.covers(n):
                cut = _cut_weights(monkeypatch, lambda: _trace_bound_renyi(psi, partition))
                want = Partition.of([blocks[0], frozenset().union(*blocks[1:])])
                assert cut.tobytes() == want.block_sums(psi.weights).tobytes()


def test_grid_evaluates_each_relation_and_window_once(monkeypatch):
    # checks that share an evaluator and a vector, as the two merged-cut
    # bounds do, are evaluated once per block and share their columns; a
    # window that checks share is applied once per order
    evaluated, windowed = [], []

    def evaluate(block):
        evaluated.append(len(block))
        return block[:, 0], block[:, 1], block[:, 0] - block[:, 1]

    def window(alpha):
        windowed.append(alpha)
        return alpha > 1.0

    first = Prepared("first", window, {}, np.array([0.3, 0.2]), evaluate)
    checks = [first, first._replace(name="second"), first._replace(c2s=np.array([0.5, 0.1]))]
    grid = [0.9, 1.1, 1.2]
    for values, blocks in ((100, 1), (2, 3)):  # the whole grid, then one order per block
        monkeypatch.setattr(gwlab.inequalities, "GRID_VALUES", values)
        evaluated.clear()
        windowed.clear()
        _, codes, columns = _grid(grid, checks)
        assert len(evaluated) == 2 * blocks and sum(evaluated) == 2 * len(grid)
        assert windowed == grid
        assert columns[0] is columns[1] and columns[0] != columns[2]
        assert codes[0] == codes[1] == [_OUT, _HELD, _HELD]


def test_grid_memory_stays_within_a_few_tables():
    # 2 * 10^5 singleton qubits of distinct weights give about 6 * 10^5 C^2
    # values (4.8 MB a float vector), one order per table: the kernel writes
    # each table a slice at a time, so the grid's peak above what was live
    # before it stays near four such vectors (it was eight, 38 MB, when the
    # kernel's temporaries spanned the whole table)
    n = 2 * 10**5
    amplitudes = 0.1 + np.random.default_rng(5).uniform(size=(n, 1))
    spec = GWSpec(n=n, d=2, amplitudes=amplitudes / np.linalg.norm(amplitudes),
                  vacuum_weight=0.2)
    checks = gwlab.inequalities.prepare_checks(GWBlocks.of(spec), Partition.singletons(n))
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        _grid([0.9, 1.0005, 1.2, 2.0], checks)
        peak = tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()
    assert peak < 28e6, peak


#: Relative bound on a fold against the scalar closed forms, as a share of
#: the sum of its terms: each power may round apart by an ulp, and each of
#: at most a dozen additions by another.
FOLD_TOL = 1e-14


@pytest.mark.parametrize("mu", [0.5, 1.0, 2.0, 3.0])
def test_fold_matches_scalar_closed_forms(rng, mu):
    # f(C^2(s|rest))^mu against the left-to-right sum of f(C^2(s, k))^mu,
    # from f_alpha and Python's pow
    check = check_monogamy_power if mu >= 2.0 else check_polygamy_power
    for _ in range(20):
        spec = random_gw_spec(rng, n_min=3, n_max=9)
        partition = random_complete_partition(rng, spec.n)
        s = int(rng.integers(0, partition.n_blocks))
        order = float(rng.uniform(0.83, 1.3))
        report = check(GWBlocks.of(spec), partition, s, order, mu)
        t = GWBlocks.of(spec).merged(partition).weights
        pairs = [f_alpha(4.0 * t[s] * t[k], order) ** mu for k in range(len(t)) if k != s]
        lhs = f_alpha(_left_sum(4.0 * t[s] * t[k] for k in range(len(t)) if k != s), order) ** mu
        assert report.applicability == Applicability.APPLICABLE
        assert abs(report.lhs - lhs) <= FOLD_TOL * lhs
        assert abs(report.rhs - _left_sum(pairs)) <= FOLD_TOL * _left_sum(pairs)


def test_mixture_suite_pure_limit():
    spec = GWSpec.qubit([0.6, 0.48, 0.64], vacuum_weight=0.0)
    reports = run_mixture_suite(spec, 2.0)
    stages = {r.params["stage"] for r in reports}
    assert stages == {"purified", "mixture"}
    purified = [r for r in reports if r.params["stage"] == "purified"][0]
    mixture = [r for r in reports if r.params["stage"] == "mixture"][0]
    # with no vacuum weight the mixture is the pure projector: same physics
    assert purified.satisfied and mixture.satisfied
    assert mixture.lhs == pytest.approx(purified.lhs, abs=1e-9)


def test_mixture_suite_on_two_parties():
    # the mixture of two parties has no three blocks, so only its
    # three-party purification gets the tightened check; it used to raise
    # IndexError on the mixture stage
    reports = run_mixture_suite(GWSpec.qubit([0.6, 0.8], 0.3), 1.1)
    assert [(r.name, r.params["stage"]) for r in reports] == [
        ("monogamy_sq", "purified"),
        ("tighter_three_concurrence", "purified"),
        ("monogamy_sq", "mixture"),
    ]
    assert all(r.satisfied for r in reports)


def test_mixture_suite_half_and_vacuum():
    spec = GWSpec.qubit(np.ones(3) / math.sqrt(3), vacuum_weight=0.5)
    for report in run_mixture_suite(spec, 2.0):
        if report.applicability == Applicability.APPLICABLE:
            assert report.satisfied
    vac = GWSpec.qubit(np.ones(3) / math.sqrt(3), vacuum_weight=1.0)
    for report in run_mixture_suite(vac, 2.0):
        if report.applicability == Applicability.APPLICABLE:
            assert report.satisfied
            assert report.lhs == pytest.approx(0.0, abs=1e-10)


def test_report_serialization_shapes():
    rho, partition = figure1_reduction()
    report = check_monogamy_sq(rho, partition, 0, 2.0)
    line = report_to_json_line(report)
    assert '"name": "monogamy_sq"' in line
    row = report_to_csv_row(report)
    assert row[0] == "monogamy_sq"
    assert row[1] == "2"
    skipped = check_monogamy_sq(rho, partition, 0, 0.5)
    row = report_to_csv_row(skipped)
    assert row[4] == "" and row[7] == "true"

"""Acceptance suite: one test per exit criterion, at the pinned tolerances.

Each criterion prints a [PASS]/[FAIL] line with its runtime.  Criterion 6
has two parts.  The second checks the Renyi values of GW pair reductions
against the decomposition oracle: the minimizing side must match the closed
form f_alpha(C^2), and the maximizing (assisted) side must match the
vacuum-free closed form where one is proven and stay between proven bounds
everywhere.  f_alpha(C^2) is only a lower bound on the assisted value; the
oracle exceeds it by up to 0.144, which the test prints as a finding.
"""

import csv
import math
import time

import numpy as np
import pytest

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
    check_tighter_three,
    check_upper_bound_bipartition,
    concurrence_pure,
    concurrence_two_qubit,
    convex_roof_bounds,
    f_alpha,
    g_alpha,
    game_gap_grid_min,
    gap_bound,
    gw_one_to_rest_concurrence_sq,
    gw_pairwise_concurrence,
    partial_trace,
    reduce_to_parties,
    run_mixture_suite,
    superpose_with_vacuum,
    verify_c_equals_ca,
)
from gwlab.cli import cmd_figure, cmd_gamebounds, main
from gwlab.featured import figure1_reduction, figure1_state, figure2_state, figure2_blocks
from gwlab.roof import AGREEMENT_TOL
from conftest import dense_block_pair, random_complete_partition, random_gw_spec

#: Dense one-to-rest C^2 and the pairwise sum on the weights must agree this
#: tightly.
ADDITIVITY_TOL = 1e-9


def _report(criterion: str, started: float, limit: float, detail: str = "") -> None:
    elapsed = time.perf_counter() - started
    print(f"[PASS] {criterion}: {detail} ({elapsed:.2f}s, limit {limit:.0f}s)")
    assert elapsed < limit, f"{criterion} exceeded its runtime limit"


def test_criterion_01_worked_example_pair_concurrences():
    started = time.perf_counter()
    rho, _ = figure1_reduction()
    pair01 = dense_block_pair(rho, {0}, {1})
    pair02 = dense_block_pair(rho, {0}, {2})
    c01 = concurrence_two_qubit(pair01)
    c02 = concurrence_two_qubit(pair02)
    assert abs(c01 - math.sqrt(2.0) / 2.0) < 1e-10
    assert abs(c02 - 2.0 * math.sqrt(2.0) / 5.0) < 1e-10
    _report(
        "criterion 1",
        started,
        1.0,
        "pair concurrences reproduce sqrt(2)/2 and 2 sqrt(2)/5 at 1e-10",
    )


def test_criterion_02_figure1_envelope(tmp_path):
    started = time.perf_counter()
    out = tmp_path / "fig1.csv"
    cmd_figure(1, str(out))
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 96
    for row in rows:
        alpha = float(row["alpha"])
        assert 0.8229 <= alpha <= 1.3027 and abs(alpha - 1.0) > 1e-9
        lower, mid, upper = (
            float(row[k]) for k in ("lower", "e_mid", "upper")
        )
        assert mid - lower >= -1e-9
        assert upper - mid >= -1e-9
    _report("criterion 2", started, 5.0, "96 rows satisfy lower <= mid <= upper")


def test_criterion_03_figure2_closed_forms(tmp_path):
    started = time.perf_counter()
    a1, a2, a3, a4 = 3 / 4, 1 / 2, math.sqrt(2) / 4, 1 / 4
    psi = figure2_state()
    block_p, block_q, block_r = figure2_blocks()
    # closed-form oracles evaluated from the amplitudes
    purity = a1**4 + 2 * a1**2 * (a2**2 + a3**2) + (a2**2 + a3**2) ** 2 + a4**4
    expected = {
        "cut": 2 * (1 - purity),
        "pq": 4 * a1**2 * (a2**2 + a3**2),
        "pr": 4 * a1**2 * a4**2,
        "qr": 4 * a4**2 * (a2**2 + a3**2),
    }
    assert abs(expected["cut"] - 15 / 64) < 1e-15
    assert abs(expected["pq"] - 27 / 32) < 1e-15
    assert abs(expected["pr"] - 9 / 64) < 1e-15
    assert abs(expected["qr"] - 3 / 32) < 1e-15
    merged = Partition.of([block_p | block_q, block_r])
    c2 = gw_one_to_rest_concurrence_sq(psi, merged, 0)
    assert abs(c2 - expected["cut"]) < 1e-12
    values = {
        "pq": gw_pairwise_concurrence(psi, block_p, block_q) ** 2,
        "pr": gw_pairwise_concurrence(psi, block_p, block_r) ** 2,
        "qr": gw_pairwise_concurrence(psi, block_q, block_r) ** 2,
    }
    for key, val in values.items():
        assert abs(val - expected[key]) < 1e-12, key
    out = tmp_path / "fig2.csv"
    cmd_figure(2, str(out))
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 96
    for row in rows:
        assert float(row["upper_bound"]) - float(row["lhs"]) >= -1e-9
    _report(
        "criterion 3",
        started,
        5.0,
        "intermediate squared concurrences match closed forms at 1e-12; "
        "bound holds across the window",
    )


def test_criterion_04_figure3_dominance(tmp_path):
    started = time.perf_counter()
    out = tmp_path / "fig3.csv"
    cmd_figure(3, str(out))
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 101
    for row in rows:
        exact = float(row["exact"])
        k1, k2 = float(row["bound_k1"]), float(row["bound_k2"])
        assert k2 - k1 >= -1e-12
        assert exact - k2 >= -1e-9
        assert exact - k1 >= -1e-9
    _report(
        "criterion 4", started, 5.0, "k=2 bound dominates k=1 and stays below exact"
    )


def test_criterion_05_squared_concurrence_additivity():
    started = time.perf_counter()
    rng = np.random.default_rng(550)
    worst = 0.0
    for _ in range(200):
        spec = random_gw_spec(rng, n_min=2, n_max=6, d=2)
        psi, weights = superpose_with_vacuum(spec), GWBlocks.of(spec)
        partition = random_complete_partition(rng, spec.n)
        for s, block in enumerate(partition.blocks):
            rest = partition.parties() - block
            direct = concurrence_pure(psi, (block, rest)) ** 2
            c2 = gw_one_to_rest_concurrence_sq(weights, partition, s)
            worst = max(worst, abs(direct - c2))
    assert worst < ADDITIVITY_TOL
    _report(
        "criterion 5",
        started,
        120.0,
        f"200 random states, every block: dense C^2 vs weight pair sum {worst:.2e}",
    )


def test_criterion_06a_oracle_concurrence_agreement():
    started = time.perf_counter()
    rng = np.random.default_rng(660)
    seed = 660660
    worst = 0.0
    for _ in range(20):
        spec = random_gw_spec(rng, n_min=3, n_max=5, d=2)
        psi = superpose_with_vacuum(spec)
        keep = sorted(rng.choice(spec.n, size=2, replace=False))
        rho = reduce_to_parties(psi, keep)
        closed = gw_pairwise_concurrence(rho, {0}, {1})
        pair = dense_block_pair(rho, {0}, {1})
        roof_min, roof_max, _ = convex_roof_bounds(pair, trials=20000, seed=seed)
        dev = max(
            abs(roof_min - roof_max),
            abs(roof_min - closed),
            abs(roof_max - closed),
        )
        worst = max(worst, dev)
    assert worst < AGREEMENT_TOL
    _report(
        "criterion 6a",
        started,
        600.0,
        f"20 pair reductions: roof min/max/closed agree to {worst:.2e}",
    )


def _eigen_ensemble_average(pair, alpha: float) -> float:
    """Renyi average over the eigen-ensemble of a two-qubit density operator."""
    evals, evecs = np.linalg.eigh(pair.matrix)
    total = 0.0
    for lam, vec in zip(evals, evecs.T):
        if lam > 1e-12:
            c2 = min(1.0, (2.0 * abs(np.linalg.det(vec.reshape(2, 2)))) ** 2)
            total += lam * f_alpha(c2, alpha)
    return total


def test_criterion_06b_oracle_renyi_agreement():
    # The min side is the closed form f_alpha(C^2): every decomposition has
    # sum_k p_k C_k = C, and c -> f_alpha(c^2) is convex, so Jensen puts the
    # convex roof at f_alpha(C^2).  The same argument makes f_alpha(C^2) only
    # a lower bound on the assisted (max) side, so the max side is checked
    # against what is proven instead:
    # - vacuum-free draws: the entangled and product eigenvectors are
    #   orthogonal, the average is a subadditive function of the components'
    #   weights on them, and the maximum is the eigen-ensemble average
    #   (s_S + s_K) f_alpha(4 s_S s_K / (s_S + s_K)^2);
    # - every draw: the eigen-ensemble average is reached from below, and
    #   C (since f_alpha(c^2) <= c) and f_alpha(4 det rho_A) (concavity of
    #   f_alpha in the window and of the linear entropy) bound it above.
    started = time.perf_counter()
    rng = np.random.default_rng(661)
    seed = 661661
    min_devs, max_gaps, formula_devs = [], [], []
    eigen_margins, upper_margins = [], []
    for _ in range(10):
        spec = random_gw_spec(rng, n_min=3, n_max=5, d=2)
        psi = superpose_with_vacuum(spec)
        keep = sorted(rng.choice(spec.n, size=2, replace=False))
        rho = reduce_to_parties(psi, keep)
        closed_c = gw_pairwise_concurrence(rho, {0}, {1})
        pair = dense_block_pair(rho, {0}, {1})
        # block weights carry the factor 1 - vacuum; the assisted formula
        # below reads them on vacuum-free draws only
        s_s, s_k = Partition.of([[i] for i in keep]).block_sums(GWBlocks.of(spec).weights).tolist()
        dets = [
            float(np.linalg.det(partial_trace(pair, [p]).matrix).real)
            for p in (0, 1)
        ]
        for alpha in (0.9, 1.1, 1.25):
            closed = f_alpha(closed_c**2, alpha)
            roof_min, roof_max, _ = convex_roof_bounds(
                pair, trials=20000, seed=seed, order=alpha
            )
            min_devs.append(abs(roof_min - closed))
            max_gaps.append(roof_max - closed)
            if spec.vacuum_weight == 0.0:
                assisted = (s_s + s_k) * f_alpha(
                    4.0 * s_s * s_k / (s_s + s_k) ** 2, alpha
                )
                formula_devs.append(abs(roof_max - assisted))
            eigen_margins.append(
                roof_max - _eigen_ensemble_average(pair, alpha)
            )
            upper = min([closed_c] + [f_alpha(4.0 * d, alpha) for d in dets])
            upper_margins.append(upper - roof_max)
    print(
        f"convex-roof side: worst |min - closed| = {max(min_devs):.2e} "
        f"over 10 reductions x 3 orders"
    )
    print(
        f"assisted side:    worst max - closed = {max(max_gaps):.2e} "
        f"(f_alpha(C^2) is only a lower bound on the assisted value; an "
        f"explicit eigen-ensemble witness is exhibited in the roof tests)"
    )
    print(
        f"assisted side:    worst |max - vacuum-free formula| = "
        f"{max(formula_devs):.2e} over {len(formula_devs)} cases; "
        f"max - eigen-ensemble >= {min(eigen_margins):.2e}; "
        f"proven upper bound - max >= {min(upper_margins):.2e}"
    )
    elapsed = time.perf_counter() - started
    print(f"criterion 6b runtime {elapsed:.2f}s (limit 600s)")
    assert elapsed < 600.0
    assert max(min_devs) < AGREEMENT_TOL
    assert formula_devs, "no vacuum-free draw to check the assisted formula on"
    assert max(formula_devs) < AGREEMENT_TOL
    assert min(eigen_margins) >= -AGREEMENT_TOL
    assert min(upper_margins) >= -1e-9, (
        "an assisted average the oracle reached breaks a proven upper bound"
    )


def test_criterion_07_order_map_property_suite():
    started = time.perf_counter()
    xs = np.linspace(0.0, 1.0, 101)
    i, j = np.triu_indices(101)
    mid_mask = (i + j) % 2 == 0
    sum_mask = i + j <= 100
    for a in np.arange(0.83, 5.001, 0.07):
        vals = np.array([f_alpha(float(x), float(a)) for x in xs])
        sq = vals**2
        assert np.all(np.diff(sq) >= -1e-12)
        assert np.all(
            sq[(i[mid_mask] + j[mid_mask]) // 2]
            <= (sq[i[mid_mask]] + sq[j[mid_mask]]) / 2 + 1e-12
        )
        assert np.all(
            sq[i[sum_mask] + j[sum_mask]] >= sq[i[sum_mask]] + sq[j[sum_mask]] - 1e-12
        )
    for a in np.arange(0.8229, 1.3027, 0.02):
        vals = np.array([f_alpha(float(x), float(a)) for x in xs])
        assert np.all(np.diff(vals) >= -1e-12)
        assert np.all(
            vals[(i[mid_mask] + j[mid_mask]) // 2]
            >= (vals[i[mid_mask]] + vals[j[mid_mask]]) / 2 - 1e-12
        )
        assert np.all(
            vals[i[sum_mask] + j[sum_mask]]
            <= vals[i[sum_mask]] + vals[j[sum_mask]] + 1e-12
        )
    for a in (0.8229, 0.9, 1.1, 2.0, 5.0):
        gs = np.array([g_alpha(float(y), float(a)) for y in xs])
        assert np.all(np.diff(gs) >= -1e-12)
        assert np.all(
            gs[(i[mid_mask] + j[mid_mask]) // 2]
            <= (gs[i[mid_mask]] + gs[j[mid_mask]]) / 2 + 1e-12
        )
    _report(
        "criterion 7",
        started,
        30.0,
        "monotonicity, convexity, concavity, super/subadditivity on full grids",
    )


def test_criterion_08_inequality_suites():
    started = time.perf_counter()
    rng = np.random.default_rng(880)
    alphas = (0.83, 0.9, 1.1, 1.25, 2.0, 3.0)
    applicable = 0
    failures = []
    for _ in range(100):
        spec = random_gw_spec(rng, n_min=3, n_max=6, d=2)
        psi = superpose_with_vacuum(spec)
        partition = random_complete_partition(rng, spec.n)
        blocks = list(partition.blocks)
        reports = []
        for alpha in alphas:
            reports.append(check_monogamy_sq(psi, partition, 0, alpha))
            reports.append(check_polygamy(psi, partition, 0, alpha))
            for mu in (2.0, 3.0):
                reports.append(check_monogamy_power(psi, partition, 0, alpha, mu))
            for mu in (0.5, 1.0):
                reports.append(check_polygamy_power(psi, partition, 0, alpha, mu))
            if len(blocks) >= 3:
                reports.append(
                    check_reoa_triangle(psi, Partition.of(blocks[:3]), alpha)
                )
                reports.append(
                    check_merged_block_upper_bound(
                        psi, blocks[0], blocks[1], blocks[2:], alpha
                    )
                )
                reports.append(
                    check_upper_bound_bipartition(
                        psi, blocks[0], blocks[1], blocks[2:], alpha
                    )
                )
                reports.append(
                    check_tighter_three(
                        psi,
                        Partition.of(blocks[:3]),
                        TighterParams(2.0, 1.0, 1.0),
                        "concurrence",
                    )
                )
        if spec.vacuum_weight > 0.0:
            reports.extend(run_mixture_suite(spec, 2.0))
        for report in reports:
            if report.applicability == Applicability.APPLICABLE:
                applicable += 1
                if not report.satisfied:
                    failures.append(report)
    assert applicable > 1000
    assert not failures, failures[:3]
    _report(
        "criterion 8",
        started,
        300.0,
        f"{applicable} applicable checks, zero failures",
    )


def test_criterion_09_game_bound_table(tmp_path):
    started = time.perf_counter()
    new_bound, reference = gap_bound(1, 2)
    assert abs(new_bound - 2.0 * math.sqrt(2.0)) < 1e-12
    assert abs(reference - 6.2) < 1e-12
    rng = np.random.default_rng(990)
    for _ in range(100):
        d = int(rng.integers(2, 1025))
        n = int(rng.integers(1, 10**6))
        new_bound, reference = gap_bound(n, d)
        assert new_bound < reference
    assert game_gap_grid_min(2, lambda_step=0.001, alpha_step=0.05) >= -1e-9
    cmd_gamebounds([1, 16], [2, 4], str(tmp_path / "gb.csv"))
    _report(
        "criterion 9",
        started,
        10.0,
        "plug-in values exact; tighter over sampled (n, d); gap grid nonnegative",
    )


def test_criterion_10_byte_determinism(tmp_path):
    started = time.perf_counter()
    from gwlab import gw_spec_to_json
    from gwlab.featured import figure_spec

    spec_path = tmp_path / "spec.json"
    spec_path.write_text(gw_spec_to_json(figure_spec(1)))
    commands = [
        ["figure", "3"],
        ["gamebounds", "--n", "1,16", "--d", "2,4"],
        [
            "verify",
            "--spec",
            str(spec_path),
            "--alpha",
            "0.83:1.3:0.05",
            "--mu",
            "2",
            "--c-pow",
            "2",
            "--b-pow",
            "1",
            "--k",
            "2",
        ],
        ["oracle", "--spec", str(spec_path), "--trials", "500", "--seed", "31415"],
    ]
    for idx, command in enumerate(commands):
        a = tmp_path / f"{idx}_a.out"
        b = tmp_path / f"{idx}_b.out"
        assert main(command + ["--out", str(a)]) in (0, 1)
        assert main(command + ["--out", str(b)]) in (0, 1)
        assert a.read_bytes() == b.read_bytes(), command
    _report("criterion 10", started, 60.0,
            "four commands byte-identical on rerun, on the same numpy build with the same "
            "CPU features")

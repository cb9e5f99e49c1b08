"""Convex-roof oracle: sampling, estimation and closed-form agreement."""

import math
import tracemalloc

import numpy as np
import pytest

import gwlab
from gwlab import (
    Applicability,
    DensityOperator,
    GWBlocks,
    GWSpec,
    PartyLayout,
    PureState,
    SubsystemLayout,
    block_pair_reduction,
    build_w_qubit,
    concurrence_pure,
    concurrence_two_qubit,
    convex_roof_bounds,
    f_alpha,
    gw_pairwise_concurrence,
    negativity,
    reduce_to_parties,
    superpose_with_vacuum,
    verify_c_equals_ca,
    verify_e_alpha_formula,
)
import gwlab.roof
from gwlab.featured import figure1_state
from gwlab.roof import (
    AGREEMENT_TOL,
    EXPLORE_CYCLE,
    GENERATION,
    PLATEAU_TOL,
    _draw_chunk,
    _eigen_ensemble,
    _pair_rows,
    oracle_reports,
)
from gwlab.tensor import SUPPORT_TOL, Partition
from conftest import dense_block_pair, rand_unit, random_gw_spec

#: The blocks of ``_figure1_pair``, for the roof run on the pure state.
FIGURE1_PAIR = ({0}, {1})


def _figure1_pair():
    return reduce_to_parties(figure1_state(), {0, 1})


def _draws(rho, m, trials, seed):
    """The rows of each Haar-drawn decomposition, as the roof draws them:
    every trial of generation 0, later every EXPLORE_CYCLE-th trial."""
    ensemble = _eigen_ensemble(rho)
    for t, haar, _ in _draw_chunk(seed, 0, trials, m, ensemble.shape[0]):
        read = (t % EXPLORE_CYCLE == 0) | (t < GENERATION)
        yield from haar[read] @ ensemble


@pytest.mark.parametrize("g", [0, 1, 2, 7])
def test_haar_rows_match_full_qr(g):
    # only the rows read as Haar draws are orthonormalised, by one QR over the
    # chunk; each must equal, bit for bit, the same row of one QR over all
    # GENERATION draws of generation g, in a chunk of eight generations (the
    # last cut short) and in a chunk of g alone
    seed, m, r = 42, 4, 2
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(g,)))
    z = rng.standard_normal((GENERATION, m, r, 2)).view(np.complex128)[..., 0]
    q, rmat = np.linalg.qr(z)
    diag = np.diagonal(rmat, axis1=1, axis2=2).copy()
    full = q * (diag / np.abs(diag))[:, None, :]
    eight = _draw_chunk(seed, 0, 8 * GENERATION - 9, m, r)
    alone = _draw_chunk(seed, g * GENERATION, (g + 1) * GENERATION, m, r)
    assert len(eight) == 8 and len(alone) == 1
    for t, haar, _ in (eight[g], alone[0]):
        np.testing.assert_array_equal(t, g * GENERATION + np.arange(t.size))
        used = (t % EXPLORE_CYCLE == 0) | (g == 0)
        np.testing.assert_array_equal(haar[used], full[: t.size][used])
        assert np.isnan(haar[~used]).all()


def _near_support_tol(factor):
    """A triple whose pair has smaller eigenvalue factor * SUPPORT_TOL: the
    eigenvalues lo and 1 - lo multiply to r (t_a + t_b)."""
    lo, t_a, t_b = factor * SUPPORT_TOL, 0.2, 0.4
    r = lo * (1.0 - lo) / (t_a + t_b)
    return 1.0 - t_a - t_b - r, t_a, t_b


#: (w, t_a, t_b): r = 1 - w - t_a - t_b = 0 at w = 0 and at w > 0; t_a = 0;
#: t_a = t_b = 0; w = 0 with r > 0; a generic triple; w = 0 with r and
#: t_a + t_b near 0.5, where 4 r (t_a + t_b) rounds above 1; the smaller
#: eigenvalue on either side of SUPPORT_TOL, which decides purity.
PAIR_TRIPLES = [(0.0, 0.3, 0.7), (0.2, 0.3, 0.5), (0.2, 0.0, 0.5), (0.3, 0.0, 0.0),
                (0.0, 0.3, 0.2), (0.1, 0.2, 0.3),
                (0.0, 0.43088240841168696, 0.06911759158831321),
                _near_support_tol(0.5), _near_support_tol(2.0)]


@pytest.mark.parametrize("w, t_a, t_b", PAIR_TRIPLES)
def test_pair_rows_are_a_unitary_image_of_the_eigen_ensemble(w, t_a, t_b):
    # the oracle's two rows decompose every pair, and the pair is pure when
    # its eigen-ensemble has one row; where that ensemble has two, both have
    # one isometry shape and differ by a unitary (Hughston, Jozsa and
    # Wootters): Haar draws applied to either have one law
    weights = [t_a, t_b, max(0.0, 1.0 - w - t_a - t_b)]
    pair = block_pair_reduction(GWBlocks(weights, PartyLayout((2, 2, 2)), w), {0}, {1})
    (rows, pure), eigen = _pair_rows(w, t_a, t_b), _eigen_ensemble(pair)
    assert rows.shape == (2, 4) and pure == (len(eigen) == 1)
    assert np.abs(rows.T @ rows.conj() - pair.matrix).max() <= 1e-12
    if pure:
        return
    assert rows.shape == eigen.shape
    # eigh finds the smallest kept eigenvalue lo and its eigenvector to a few
    # ulps of the matrix, so that row of the eigen-ensemble, and U, carry
    # errors of up to about eps / lo: 1e-6 just above SUPPORT_TOL
    lo = pair.eigenvalues()[len(rows) - 1]
    tol = 1e-12 + 4.0 * np.finfo(float).eps / lo
    u = eigen @ np.linalg.pinv(rows)
    np.testing.assert_allclose(u @ rows, eigen, rtol=0.0, atol=tol)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(len(rows)), rtol=0.0, atol=tol)


def test_pure_state_has_unique_decomposition(bell_state):
    for rows in _draws(bell_state.density(), 3, 5, seed=3):
        for row in rows:
            w = float(np.vdot(row, row).real)
            if w > 1e-12:
                overlap = abs(np.vdot(row, bell_state.amplitudes)) / math.sqrt(w)
                assert overlap == pytest.approx(1.0, abs=1e-10)


def test_samples_reconstruct_state(rng):
    spec = random_gw_spec(rng, n_min=3, n_max=4)
    rho = reduce_to_parties(superpose_with_vacuum(spec), {0, 1})
    for rows in _draws(rho, 4, 20, seed=17):
        recon = rows.T @ rows.conj()
        assert float(np.max(np.abs(recon - rho.matrix))) < 1e-10
        assert abs(float(np.vdot(rows, rows).real) - 1.0) < 1e-10


def test_sampling_is_deterministic(rng):
    spec = random_gw_spec(rng, n_min=3, n_max=3)
    rho = reduce_to_parties(superpose_with_vacuum(spec), {0, 1})
    a = list(_draws(rho, 4, 10, seed=99))
    b = list(_draws(rho, 4, 10, seed=99))
    for ra, rb in zip(a, b):
        np.testing.assert_array_equal(ra, rb)


def test_roof_rejects_qutrit_pair():
    # the roof averages two-qubit components only; a pair of qutrits must
    # first become a qubit pair: the canonical pair of the pure state's
    # weights, or the dense compressed pair
    spec = GWSpec(n=3, d=3, amplitudes=np.full((3, 2), 1 / math.sqrt(6)))
    psi = superpose_with_vacuum(spec)
    rho = reduce_to_parties(psi, {0, 1})
    assert rho.layout.dims == (3, 3)
    with pytest.raises(ValueError, match="qubit pairs"):
        convex_roof_bounds(rho, trials=10)
    assert block_pair_reduction(psi, {0}, {1}).layout.dims == (2, 2)
    assert dense_block_pair(rho, {0}, {1}).layout.dims == (2, 2)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"trials": 0}, "trials must be >= 1, got 0"),
        ({"seed": -1}, "seed must be non-negative"),
        ({"order": -1.0}, "order must be positive"),
        ({"order": math.inf}, "must be positive and finite"),
    ],
    ids=["trials-zero", "seed-negative", "bad-order", "infinite-order"],
)
def test_roof_checks_arguments_before_linear_algebra(monkeypatch, kwargs, message):
    pair = dense_block_pair(_figure1_pair(), {0}, {1})

    def refuse(*args):
        raise AssertionError("an eigen-decomposition ran before the checks")

    monkeypatch.setattr(gwlab.roof, "_eigen_ensemble", refuse)
    with pytest.raises(ValueError, match=message):
        convex_roof_bounds(pair, **kwargs)


@pytest.mark.parametrize(
    "parties, orders, trials, message",
    [
        (None, [1.1], 0, "trials must be >= 1, got 0"),
        (None, [1.1, -2.0], 10, "order must be positive"),
        # about 2e6 singleton pairs: the budget is checked before any is built
        (2000, [], 10, "MAX_ORACLE_TARGETS = 100000 oracle targets"),
    ],
    ids=["trials-zero", "last-order-bad", "too-many-targets"],
)
def test_oracle_reports_check_every_target_first(monkeypatch, parties, orders, trials, message):
    if parties is None:
        state, partition = _figure1_pair(), Partition.of(FIGURE1_PAIR)
    else:
        spec = GWSpec.qubit(np.full(parties, 1.0 / math.sqrt(parties)), 0.2)
        state, partition = GWBlocks.of(spec), Partition.singletons(parties)

    def refuse(*args):
        raise AssertionError("a reduction or roof ran before every target was checked")

    for name in ("block_pair_reduction", "gw_pairwise_concurrence", "_eigen_ensemble",
                 "_pair_rows", "_roof_estimates"):
        monkeypatch.setattr(gwlab.roof, name, refuse)
    monkeypatch.setattr(Partition, "block_sums", refuse)
    with pytest.raises(ValueError, match=message):
        oracle_reports(state, partition, orders, trials=trials, seed=3)


def test_roof_bounds_pin_featured_pair():
    pair = dense_block_pair(_figure1_pair(), {0}, {1})
    roof_min, roof_max, converged = convex_roof_bounds(pair, trials=3000, seed=5)
    closed = math.sqrt(2.0) / 2.0
    assert abs(roof_min - closed) < AGREEMENT_TOL
    assert abs(roof_max - closed) < AGREEMENT_TOL
    assert roof_min <= roof_max + 1e-9
    assert converged


def test_roof_bounds_pure_input(bell_state):
    roof_min, roof_max, converged = convex_roof_bounds(bell_state.density(), trials=200, seed=1)
    assert roof_min == pytest.approx(1.0, abs=1e-10)
    assert roof_max == pytest.approx(1.0, abs=1e-10)
    assert converged


def test_roof_min_vanishes_on_separable_mixture(bell_state):
    # the two-qubit closed form reports zero; the roof search must find a
    # decomposition certifying it
    q = 0.3
    mat = q * bell_state.density().matrix + (1 - q) * np.eye(4) / 4
    rho = DensityOperator(mat, SubsystemLayout((2, 2)))
    assert concurrence_two_qubit(rho) == 0.0
    roof_min, _, _ = convex_roof_bounds(rho, trials=20000, seed=11)
    assert roof_min <= 5e-3


def test_roof_separable_inputs_stay_small(rng):
    psi = np.kron(rand_unit(rng, 2), rand_unit(rng, 2))
    rho = DensityOperator(np.outer(psi, psi.conj()), SubsystemLayout((2, 2)))
    roof_min, _, _ = convex_roof_bounds(rho, trials=200, seed=2)
    assert roof_min <= 5e-3
    mixed = DensityOperator(np.eye(4) / 4, SubsystemLayout((2, 2)))
    roof_min, _, _ = convex_roof_bounds(mixed, trials=20000, seed=3)
    assert roof_min <= 5e-3


def test_roof_estimates_monotone_in_trials():
    pair = dense_block_pair(_figure1_pair(), {0}, {1})
    prev_min, prev_max = math.inf, -math.inf
    # counts on both sides of generation boundaries and of the first
    # DRAW_CHUNK boundary: a shorter run is a prefix of a longer one
    G = GENERATION
    assert 1024 == gwlab.roof.DRAW_CHUNK * G
    for trials in (1, 50, G - 1, G, G + 1, 3 * G + 5, 800, 1023, 1024, 1025):
        roof_min, roof_max, _ = convex_roof_bounds(pair, trials=trials, seed=21, order=1.1)
        assert roof_min <= prev_min + 1e-12
        assert roof_max >= prev_max - 1e-12
        prev_min, prev_max = roof_min, roof_max


def test_negativity_roof_matches_concurrence_on_family(rng):
    spec = random_gw_spec(rng, n_min=3, n_max=4)
    rho = reduce_to_parties(superpose_with_vacuum(spec), {0, 1})
    pair = dense_block_pair(rho, {0}, {1})
    closed = gw_pairwise_concurrence(rho, {0}, {1})
    # a pure two-qubit component has negativity equal to its concurrence, so
    # the concurrence roof is the negativity (CREN) roof
    for _ in range(5):
        psi = PureState(rand_unit(rng, 4), SubsystemLayout((2, 2)))
        cut = ({0}, {1})
        assert negativity(psi, cut) == pytest.approx(
            concurrence_pure(psi, cut), abs=1e-10
        )
    roof_min, roof_max, _ = convex_roof_bounds(pair, trials=3000, seed=8)
    assert abs(roof_min - closed) < AGREEMENT_TOL
    assert abs(roof_max - closed) < AGREEMENT_TOL


def test_verify_c_equals_ca_featured():
    report = verify_c_equals_ca(figure1_state(), trials=3000, seed=7, blocks=FIGURE1_PAIR)
    assert report.applicability == Applicability.APPLICABLE
    assert report.satisfied
    assert report.params["closed_form"] == pytest.approx(
        math.sqrt(2.0) / 2.0, abs=1e-10
    )


def test_verify_c_equals_ca_product_reduction():
    psi = build_w_qubit((1.0, 0.0, 0.0))
    report = verify_c_equals_ca(psi, trials=300, seed=7, blocks=({1}, {2}))
    assert report.satisfied
    assert report.params["closed_form"] == pytest.approx(0.0, abs=1e-12)


def test_verify_c_equals_ca_random(rng):
    for _ in range(5):
        spec = random_gw_spec(rng, n_min=3, n_max=5)
        psi = superpose_with_vacuum(spec)
        keep = sorted(rng.choice(spec.n, size=2, replace=False))
        blocks = ({int(keep[0])}, {int(keep[1])})
        report = verify_c_equals_ca(psi, trials=2000, seed=int(rng.integers(1e6)),
                                    blocks=blocks)
        assert report.applicability == Applicability.APPLICABLE
        assert report.satisfied, report.params


def test_verify_e_alpha_min_side_matches():
    # the convex-roof side of the Renyi closed form holds; the assisted side
    # genuinely exceeds it on this family, which the oracle must surface
    # rather than hide
    psi = figure1_state()
    report = verify_e_alpha_formula(psi, 1.1, trials=4000, seed=7, blocks=FIGURE1_PAIR)
    closed = report.params["closed_form"]
    assert abs(report.params["roof_min"] - closed) < AGREEMENT_TOL
    assert report.params["roof_max"] > closed + 0.05
    if report.applicability == Applicability.APPLICABLE:
        assert not report.satisfied  # the finding is reported, not swallowed


def test_verify_e_alpha_out_of_window():
    psi = figure1_state()
    report = verify_e_alpha_formula(psi, 0.5, trials=100, seed=7, blocks=FIGURE1_PAIR)
    assert report.applicability == Applicability.OUT_OF_WINDOW


def test_verify_e_alpha_pure_maximally_entangled_pair():
    # the weight-one maximally entangled pair has a unique decomposition, so
    # every estimate equals the closed form exactly
    psi = build_w_qubit(np.ones(2) / math.sqrt(2.0))
    report = verify_e_alpha_formula(psi.density(), 2.0, trials=200, seed=4)
    assert report.applicability == Applicability.APPLICABLE
    assert report.satisfied
    assert report.params["closed_form"] == pytest.approx(1.0, abs=1e-12)
    assert report.params["roof_min"] == pytest.approx(1.0, abs=1e-12)
    assert report.params["roof_max"] == pytest.approx(1.0, abs=1e-12)
    assert report.params["max_side_checked"]  # rank-1 input


def test_assisted_average_exceeds_closed_form_exactly():
    # eigen-ensemble of the uniform three-party state's pair reduction:
    # weights (1/3, 2/3) with a product and a maximally entangled component
    w3 = build_w_qubit(np.ones(3) / math.sqrt(3))
    rho = reduce_to_parties(w3, {0, 1})
    evals, evecs = np.linalg.eigh(rho.matrix)
    avg = 0.0
    for lam, vec in zip(evals, evecs.T):
        if lam < 1e-12:
            continue
        mat = vec.reshape(2, 2)
        c2 = min(1.0, (2.0 * abs(np.linalg.det(mat))) ** 2)
        avg += lam * f_alpha(c2, 1.1)
    closed = f_alpha(gw_pairwise_concurrence(rho, {0}, {1}) ** 2, 1.1)
    assert avg == pytest.approx(2.0 / 3.0, abs=1e-10)
    assert avg > closed + 0.1


def test_unconverged_runs_are_flagged():
    # too few trials can never certify a Renyi plateau; a concurrence run
    # takes one generation, and every decomposition of a family pair averages
    # to C, so its min and max agree and it has converged
    psi = figure1_state()
    report = verify_e_alpha_formula(psi, 1.1, trials=10, seed=1, blocks=FIGURE1_PAIR)
    assert not report.params["converged"]
    assert report.applicability == Applicability.CONDITION_UNMET
    report = verify_c_equals_ca(psi, trials=10, seed=1, blocks=FIGURE1_PAIR)
    params = report.params
    assert params["trials"] == 10
    assert params["converged"] and params["roof_max"] - params["roof_min"] <= PLATEAU_TOL
    assert report.applicability == Applicability.APPLICABLE
    report = verify_c_equals_ca(psi, trials=1000, seed=1, blocks=FIGURE1_PAIR)
    assert report.params["trials"] == GENERATION and report.params["converged"]


def test_two_block_cover_is_pure_despite_rounding():
    # the two blocks hold every party, so r = 1 - w - t_a - t_b is 0, but it
    # rounds to about 1e-16: the pair is still pure by the eigen-ensemble's
    # rule, every decomposition gives the closed form, and the max side is
    # checked outside the concavity window (order 1.5) too
    amplitudes = np.random.default_rng(11).uniform(0.5, 1.0, 3)
    state = GWBlocks.of(GWSpec.qubit(amplitudes / np.linalg.norm(amplitudes), 0.2))
    partition = Partition.of([{0}, {1, 2}])
    t_a, t_b = partition.block_sums(state.weights).tolist()
    assert 1.0 - state.vacuum_weight - t_a - t_b > 0.0
    reports = oracle_reports(state, partition, [0.9, 1.2, 1.5], trials=300, seed=4)
    assert [report.name for report in reports] == ["c_equals_ca"] + ["e_alpha_formula"] * 3
    for report in reports:
        params = report.params
        assert abs(params["roof_min"] - params["closed_form"]) <= 1e-12
        assert abs(params["roof_max"] - params["closed_form"]) <= 1e-12
    assert reports[-1].params["alpha"] == 1.5 and reports[-1].params["max_side_checked"]


def test_concurrence_spread_beyond_plateau_tol_is_unconverged(monkeypatch):
    # a concurrence run whose min and max differ by more than PLATEAU_TOL
    # broke the identity sum_k p_k C_k = C: it is reported, not certified
    real = gwlab.roof._roof_estimates

    def spread(stacks, seed):
        low, _, converged = real(stacks, seed)
        return low, low + 2.0 * PLATEAU_TOL, converged

    monkeypatch.setattr(gwlab.roof, "_roof_estimates", spread)
    report = verify_c_equals_ca(figure1_state(), trials=100, seed=1, blocks=FIGURE1_PAIR)
    assert not report.params["converged"]
    assert report.applicability == Applicability.CONDITION_UNMET
    assert report.lhs is None and report.satisfied


def test_oracle_sums_blocks_once_and_builds_no_pair_partition(monkeypatch):
    # every block weight comes from one block_sums over the job's partition,
    # and the pairs come by index, with no partition built per pair
    n = 12
    amplitudes = np.random.default_rng(2).uniform(0.5, 1.0, n)
    state = GWBlocks.of(GWSpec.qubit(amplitudes / np.linalg.norm(amplitudes), 0.2))
    partition = Partition.singletons(n)
    sums, built = [], []
    real_sums, real_of = Partition.block_sums, Partition.of.__func__
    monkeypatch.setattr(Partition, "block_sums",
                        lambda self, values: sums.append(self) or real_sums(self, values))
    monkeypatch.setattr(Partition, "of",
                        classmethod(lambda cls, blocks: built.append(1) or real_of(cls, blocks)))
    reports = oracle_reports(state, partition, [1.1], trials=100, seed=2)
    assert len(reports) == n * (n - 1) // 2 + 1
    assert sums == [partition] and built == []


def test_oracle_memory_per_target_stays_bounded():
    # 100 singleton blocks of seeded distinct weights give 4950 distinct
    # concurrence runs of one shape; they step in stacks of GROUP_RUNS, so a
    # generation's temporaries do not grow with the target count.  Stepping
    # one run at a time once peaked at about 11.2 KB per target; these runs
    # of one generation peak at about 2.7 KB.
    n = 100
    amplitudes = np.random.default_rng(6).uniform(0.5, 1.0, n)
    state = GWBlocks.of(GWSpec.qubit(amplitudes / np.linalg.norm(amplitudes), 0.2))
    calls = []
    real = gwlab.roof._roof_estimates
    tracemalloc.start()
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(gwlab.roof, "_roof_estimates",
                          lambda stacks, seed: calls.append(sum(len(rows) for rows, _, _ in stacks))
                          or real(stacks, seed))
            reports = oracle_reports(state, Partition.singletons(n), trials=128, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(reports) == 4950 and calls == [4950]
    assert peak / len(reports) <= 10.6e3

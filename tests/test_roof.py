"""Convex-roof oracle: sampling, estimation and closed-form agreement."""

import importlib
import math
import pkgutil

import numpy as np
import pytest

import gwlab
from gwlab import (
    Applicability,
    DensityOperator,
    GWSpec,
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
    _eigen_ensemble,
    _generation_draws,
    oracle_reports,
)
from conftest import rand_unit, random_gw_spec


def _figure1_pair():
    return reduce_to_parties(figure1_state(), {0, 1})


def _draws(rho, m, trials, seed):
    """The rows of each Haar-drawn decomposition, as the roof draws them:
    every trial of generation 0, later every EXPLORE_CYCLE-th trial."""
    ensemble = _eigen_ensemble(rho)
    for g in range(-(-trials // GENERATION)):
        haar, _ = _generation_draws(seed, g, m, ensemble.shape[0])
        t = np.arange(g * GENERATION, min(trials, (g + 1) * GENERATION))
        read = (t % EXPLORE_CYCLE == 0) | (g == 0)
        yield from haar[: t.size][read] @ ensemble


@pytest.mark.parametrize("g", [0, 1, 2, 7])
def test_haar_rows_match_full_qr(g):
    # only the rows read as Haar draws are orthonormalised; each must equal,
    # bit for bit, the same row of one QR over all GENERATION draws
    seed, m, r = 42, 4, 2
    haar, _ = _generation_draws(seed, g, m, r)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(g,)))
    z = rng.standard_normal((GENERATION, m, r, 2)).view(np.complex128)[..., 0]
    q, rmat = np.linalg.qr(z)
    diag = np.diagonal(rmat, axis1=1, axis2=2).copy()
    full = q * (diag / np.abs(diag))[:, None, :]
    t = g * GENERATION + np.arange(GENERATION)
    used = (t % EXPLORE_CYCLE == 0) | (g == 0)
    np.testing.assert_array_equal(haar[used], full[used])
    assert np.isnan(haar[~used]).all()


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
    # the roof averages two-qubit components only; a pair of qutrits must be
    # compressed by block_pair_reduction first
    spec = GWSpec(n=3, d=3, amplitudes=np.full((3, 2), 1 / math.sqrt(6)))
    rho = reduce_to_parties(superpose_with_vacuum(spec), {0, 1})
    assert rho.layout.dims == (3, 3)
    with pytest.raises(ValueError, match="qubit pairs"):
        convex_roof_bounds(rho, "concurrence", trials=10)
    assert block_pair_reduction(rho, {0}, {1}).layout.dims == (2, 2)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"measure_kind": "concurrence", "trials": 0}, "trials must be >= 1"),
        ({"measure_kind": "concurrence", "seed": -1}, "seed must be non-negative"),
        ({"measure_kind": "negativity"}, "measure_kind must be one of"),
        ({"measure_kind": "renyi_ent"}, "renyi_ent needs a Renyi order"),
        ({"measure_kind": "renyi_ent", "order": -1.0}, "order must be positive"),
    ],
    ids=["trials-zero", "seed-negative", "unknown-kind", "renyi-no-order", "bad-order"],
)
def test_roof_checks_arguments_before_linear_algebra(monkeypatch, kwargs, message):
    pair = block_pair_reduction(_figure1_pair(), {0}, {1})

    def refuse(*args):
        raise AssertionError("an eigen-decomposition ran before the checks")

    monkeypatch.setattr(gwlab.roof, "_eigen_ensemble", refuse)
    with pytest.raises(ValueError, match=message):
        convex_roof_bounds(pair, **kwargs)


@pytest.mark.parametrize(
    "targets, trials, message",
    [
        ([(None, None), (None, 1.1)], 0, "trials must be >= 1"),
        ([(None, None), (None, 1.1), (None, -2.0)], 10, "order must be positive"),
    ],
    ids=["trials-zero", "last-order-bad"],
)
def test_oracle_reports_check_every_target_first(monkeypatch, targets, trials, message):
    rho = _figure1_pair()

    def refuse(*args):
        raise AssertionError("a reduction or roof ran before every target was checked")

    for name in ("block_pair_reduction", "gw_pairwise_concurrence", "_eigen_ensemble"):
        monkeypatch.setattr(gwlab.roof, name, refuse)
    with pytest.raises(ValueError, match=message):
        oracle_reports(rho, targets, trials=trials, seed=3)


def test_every_exported_name_resolves():
    modules = [gwlab] + [
        importlib.import_module(f"gwlab.{info.name}")
        for info in pkgutil.iter_modules(gwlab.__path__)
    ]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_roof_bounds_pin_featured_pair():
    pair = block_pair_reduction(_figure1_pair(), {0}, {1})
    estimate = convex_roof_bounds(pair, "concurrence", trials=3000, seed=5)
    closed = math.sqrt(2.0) / 2.0
    assert abs(estimate.min_estimate - closed) < AGREEMENT_TOL
    assert abs(estimate.max_estimate - closed) < AGREEMENT_TOL
    assert estimate.min_estimate <= estimate.max_estimate + 1e-9
    assert estimate.converged


def test_roof_bounds_pure_input(bell_state):
    estimate = convex_roof_bounds(bell_state.density(), "concurrence", trials=200, seed=1)
    assert estimate.min_estimate == pytest.approx(1.0, abs=1e-10)
    assert estimate.max_estimate == pytest.approx(1.0, abs=1e-10)
    assert estimate.converged


def test_roof_min_vanishes_on_separable_mixture(bell_state):
    # the two-qubit closed form reports zero; the roof search must find a
    # decomposition certifying it
    q = 0.3
    mat = q * bell_state.density().matrix + (1 - q) * np.eye(4) / 4
    rho = DensityOperator(mat, SubsystemLayout((2, 2)))
    assert concurrence_two_qubit(rho).value == 0.0
    estimate = convex_roof_bounds(rho, "concurrence", trials=20000, seed=11)
    assert estimate.min_estimate <= 5e-3


def test_roof_separable_inputs_stay_small(rng):
    psi = np.kron(rand_unit(rng, 2), rand_unit(rng, 2))
    rho = DensityOperator(np.outer(psi, psi.conj()), SubsystemLayout((2, 2)))
    estimate = convex_roof_bounds(rho, "concurrence", trials=200, seed=2)
    assert estimate.min_estimate <= 5e-3
    mixed = DensityOperator(np.eye(4) / 4, SubsystemLayout((2, 2)))
    estimate = convex_roof_bounds(mixed, "concurrence", trials=20000, seed=3)
    assert estimate.min_estimate <= 5e-3


def test_roof_estimates_monotone_in_trials():
    pair = block_pair_reduction(_figure1_pair(), {0}, {1})
    prev_min, prev_max = math.inf, -math.inf
    # counts on both sides of generation boundaries: a shorter run is a
    # prefix of a longer one
    G = GENERATION
    for trials in (1, 50, G - 1, G, G + 1, 3 * G + 5, 800):
        est = convex_roof_bounds(pair, "renyi_ent", trials=trials, seed=21, order=1.1)
        assert est.min_estimate <= prev_min + 1e-12
        assert est.max_estimate >= prev_max - 1e-12
        prev_min, prev_max = est.min_estimate, est.max_estimate


def test_negativity_roof_matches_concurrence_on_family(rng):
    spec = random_gw_spec(rng, n_min=3, n_max=4)
    rho = reduce_to_parties(superpose_with_vacuum(spec), {0, 1})
    pair = block_pair_reduction(rho, {0}, {1})
    closed = gw_pairwise_concurrence(rho, {0}, {1}).value
    # a pure two-qubit component has negativity equal to its concurrence, so
    # the concurrence roof is the negativity (CREN) roof
    for _ in range(5):
        psi = PureState(rand_unit(rng, 4), SubsystemLayout((2, 2)))
        cut = ({0}, {1})
        assert negativity(psi, cut).value == pytest.approx(
            concurrence_pure(psi, cut).value, abs=1e-10
        )
    est = convex_roof_bounds(pair, "concurrence", trials=3000, seed=8)
    assert abs(est.min_estimate - closed) < AGREEMENT_TOL
    assert abs(est.max_estimate - closed) < AGREEMENT_TOL


def test_verify_c_equals_ca_featured():
    report = verify_c_equals_ca(_figure1_pair(), trials=3000, seed=7)
    assert report.applicability == Applicability.APPLICABLE
    assert report.satisfied
    assert report.params["closed_form"] == pytest.approx(
        math.sqrt(2.0) / 2.0, abs=1e-10
    )


def test_verify_c_equals_ca_product_reduction():
    psi = build_w_qubit((1.0, 0.0, 0.0))
    rho = reduce_to_parties(psi, {1, 2})
    report = verify_c_equals_ca(rho, trials=300, seed=7)
    assert report.satisfied
    assert report.params["closed_form"] == pytest.approx(0.0, abs=1e-12)


def test_verify_c_equals_ca_random(rng):
    for _ in range(5):
        spec = random_gw_spec(rng, n_min=3, n_max=5)
        psi = superpose_with_vacuum(spec)
        keep = sorted(rng.choice(spec.n, size=2, replace=False))
        rho = reduce_to_parties(psi, keep)
        report = verify_c_equals_ca(rho, trials=2000, seed=int(rng.integers(1e6)))
        assert report.applicability == Applicability.APPLICABLE
        assert report.satisfied, report.params


def test_verify_e_alpha_min_side_matches():
    # the convex-roof side of the Renyi closed form holds; the assisted side
    # genuinely exceeds it on this family, which the oracle must surface
    # rather than hide
    rho = _figure1_pair()
    report = verify_e_alpha_formula(rho, 1.1, trials=4000, seed=7)
    closed = report.params["closed_form"]
    assert abs(report.params["roof_min"] - closed) < AGREEMENT_TOL
    assert report.params["roof_max"] > closed + 0.05
    if report.applicability == Applicability.APPLICABLE:
        assert not report.satisfied  # the finding is reported, not swallowed


def test_verify_e_alpha_out_of_window():
    rho = _figure1_pair()
    report = verify_e_alpha_formula(rho, 0.5, trials=100, seed=7)
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
    closed = f_alpha(gw_pairwise_concurrence(rho, {0}, {1}).value ** 2, 1.1)
    assert avg == pytest.approx(2.0 / 3.0, abs=1e-10)
    assert avg > closed + 0.1


def test_unconverged_runs_are_flagged():
    # too few trials can never certify a plateau
    report = verify_c_equals_ca(_figure1_pair(), trials=10, seed=1)
    assert not report.params["converged"]
    assert report.applicability == Applicability.CONDITION_UNMET

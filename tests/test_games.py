"""Gap-bound arithmetic and the trace-distance facts feeding it."""

import math

import numpy as np
import pytest

from gwlab import (
    Applicability,
    GameBoundInput,
    GWSpec,
    Partition,
    ProvenanceError,
    PureState,
    SubsystemLayout,
    check_monogamy_cap,
    check_trace_bound_renyi,
    game_gap_fn,
    game_gap_grid_min,
    gap_bound,
    superpose_with_vacuum,
    trace_distance_to_vacuum,
)
from gwlab.featured import figure1_reduction
from conftest import random_gw_spec


def test_trace_distance_bell(bell_state):
    assert trace_distance_to_vacuum(bell_state, ({0}, {1})) == pytest.approx(
        math.sqrt(2.0), abs=1e-10
    )


def test_trace_distance_aligned_product():
    psi = PureState(np.array([1, 0, 0, 0]), SubsystemLayout((2, 2)))
    assert trace_distance_to_vacuum(psi, ({0}, {1})) == pytest.approx(0.0, abs=1e-9)


def test_trace_distance_rank_two():
    psi = PureState(
        np.array([math.sqrt(0.75), 0, 0, 0.5]), SubsystemLayout((2, 2))
    )
    assert trace_distance_to_vacuum(psi, ({0}, {1})) == pytest.approx(1.0, abs=1e-10)


def test_trace_distance_two_paths_agree_random(rng):
    # the function itself asserts the eigensolve path; exercise it broadly
    for _ in range(20):
        lam0 = float(rng.uniform(0.5, 1.0))
        vec = np.zeros(4)
        vec[0], vec[3] = math.sqrt(lam0), math.sqrt(1 - lam0)
        psi = PureState(vec, SubsystemLayout((2, 2)))
        d = trace_distance_to_vacuum(psi, ({0}, {1}))
        assert d == pytest.approx(2.0 * math.sqrt(1.0 - lam0), abs=1e-9)


def _family_pair(lam0: float) -> PureState:
    """sqrt(lam0)|01> + sqrt(1-lam0)|10>: Schmidt coefficients lam0, 1-lam0
    inside the family, where the trace bound is a closed form."""
    vec = np.zeros(4)
    vec[1], vec[2] = math.sqrt(lam0), math.sqrt(1.0 - lam0)
    return PureState(vec, SubsystemLayout((2, 2)), gw=True)


def test_trace_bound_bell(bell_state):
    report = check_trace_bound_renyi(_family_pair(0.5), 1.0)
    assert report.lhs == pytest.approx(math.sqrt(2.0), abs=1e-10)
    assert report.rhs == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-10)
    assert report.satisfied
    # |00> + |11> has the same spectrum but is no family member
    with pytest.raises(ProvenanceError):
        check_trace_bound_renyi(bell_state, 1.0)


def test_trace_bound_product():
    psi = PureState(np.array([1, 0, 0, 0]), SubsystemLayout((2, 2)), gw=True)
    report = check_trace_bound_renyi(psi, 2.0)
    assert report.lhs == pytest.approx(0.0, abs=1e-10)
    assert report.rhs == pytest.approx(0.0, abs=1e-10)
    assert report.satisfied


def test_trace_bound_window():
    psi = PureState(np.array([1, 0, 0, 0]), SubsystemLayout((2, 2)), gw=True)
    report = check_trace_bound_renyi(psi, 0.9)
    assert report.applicability == Applicability.OUT_OF_WINDOW


def test_trace_bound_rank_two_grid():
    for lam0 in np.linspace(0.5, 1.0, 26):
        psi = _family_pair(float(lam0))
        for a in np.linspace(1.0, 5.0, 17):
            report = check_trace_bound_renyi(psi, float(a))
            assert report.satisfied, (lam0, a)


def test_game_gap_values():
    assert game_gap_fn(1.0, 2.0) == pytest.approx(0.0, abs=1e-12)
    assert game_gap_fn(0.0, 1.0) == pytest.approx(0.0, abs=1e-12)
    # direct evaluation at the half point for order two
    assert game_gap_fn(0.5, 2.0) == pytest.approx(1.5, abs=1e-12)
    with pytest.raises(ValueError):
        game_gap_fn(0.5, 0.9)
    with pytest.raises(ValueError):
        game_gap_fn(1.5, 2.0)


def test_game_gap_finite_at_large_order():
    # past order ~1000 the plain power sum underflows to zero; the value must
    # match the log-domain form of log2[l^a + (1-l)^a]
    a = 5000.0
    for lam in (0.6, 0.5, 0.3):
        log_inner = np.logaddexp2(a * math.log2(lam), a * math.log2(1.0 - lam))
        value = game_gap_fn(lam, a)
        assert math.isfinite(value)
        assert value == pytest.approx(-2.0 * log_inner - (1.0 - lam) * (a - 1.0), rel=1e-12)


def test_game_gap_nonnegative_on_grid():
    assert game_gap_grid_min(2, lambda_step=0.005, alpha_step=0.25) >= -1e-9


def test_gap_bound_plugins():
    r = gap_bound(GameBoundInput(1, 2))
    assert r.new_bound == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)
    assert r.reference_bound == pytest.approx(6.2, abs=1e-12)
    assert r.tighter
    r = gap_bound(GameBoundInput(16, 2))
    assert r.new_bound == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert r.reference_bound == pytest.approx(3.1, abs=1e-12)
    r = gap_bound(GameBoundInput(1, 4))
    assert r.new_bound == pytest.approx(4.0, abs=1e-12)
    assert r.reference_bound == pytest.approx(3.1 * 4.0 * 2.0**0.25, abs=1e-12)


def test_gap_bound_always_tighter_sampled(rng):
    for _ in range(200):
        d = int(2 ** rng.uniform(1, 10))
        n = int(10 ** rng.uniform(0, 6))
        r = gap_bound(GameBoundInput(max(n, 1), max(d, 2)))
        assert r.tighter
    # the least dimension and two far past the sample
    for d in (2, 2**64, 10**300):
        for n in (1, 10**6):
            assert gap_bound(GameBoundInput(n, d)).tighter


def test_gap_bound_input_validation():
    with pytest.raises(ValueError):
        GameBoundInput(0, 2)
    with pytest.raises(ValueError):
        GameBoundInput(1, 1)


def test_gap_bound_is_reproducible():
    a = gap_bound(GameBoundInput(7, 8))
    b = gap_bound(GameBoundInput(7, 8))
    assert a.new_bound == b.new_bound and a.reference_bound == b.reference_bound


def test_monogamy_cap_featured():
    rho, partition = figure1_reduction()
    report = check_monogamy_cap(rho, partition, 2.0)
    assert report.satisfied
    assert report.rhs == pytest.approx(1.0, abs=1e-12)  # qubit cap
    assert report.lhs == pytest.approx(0.23552787710948647, abs=1e-9)
    assert report.params["middle"] == pytest.approx(0.5794454451372439, abs=1e-9)


def test_monogamy_cap_vacuum():
    spec = GWSpec.qubit(np.ones(3) / math.sqrt(3), vacuum_weight=1.0)
    psi = superpose_with_vacuum(spec)
    report = check_monogamy_cap(psi, Partition.singletons(3), 2.0)
    assert report.lhs == pytest.approx(0.0, abs=1e-12)
    assert report.satisfied


def test_monogamy_cap_qudit(rng):
    for _ in range(10):
        spec = random_gw_spec(rng, n_min=3, n_max=4, d=3)
        psi = superpose_with_vacuum(spec)
        report = check_monogamy_cap(psi, Partition.singletons(spec.n), 2.0)
        assert report.satisfied
        assert report.rhs == pytest.approx(math.log2(3.0) ** 2, abs=1e-12)
        assert report.params["middle"] <= report.rhs + 1e-9


def test_monogamy_cap_window():
    rho, partition = figure1_reduction()
    report = check_monogamy_cap(rho, partition, 0.5)
    assert report.applicability == Applicability.OUT_OF_WINDOW

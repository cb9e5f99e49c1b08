"""Gap-bound arithmetic and the trace-distance facts feeding it."""

import math

import mpmath
import numpy as np
import pytest

from gwlab import (
    Applicability,
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
    new_bound, reference = gap_bound(1, 2)
    assert new_bound == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)
    assert reference == pytest.approx(6.2, abs=1e-12)
    assert new_bound < reference
    new_bound, reference = gap_bound(16, 2)
    assert new_bound == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert reference == pytest.approx(3.1, abs=1e-12)
    new_bound, reference = gap_bound(1, 4)
    assert new_bound == pytest.approx(4.0, abs=1e-12)
    assert reference == pytest.approx(3.1 * 4.0 * 2.0**0.25, abs=1e-12)


def test_gap_bound_always_tighter_sampled(rng):
    for _ in range(200):
        d = int(2 ** rng.uniform(1, 10))
        n = int(10 ** rng.uniform(0, 6))
        new_bound, reference = gap_bound(max(n, 1), max(d, 2))
        assert new_bound < reference
    # the least dimension and two far past the sample
    for d in (2, 2**64, 10**300):
        for n in (1, 10**6):
            new_bound, reference = gap_bound(n, d)
            assert new_bound < reference


def test_gap_bound_input_validation():
    with pytest.raises(ValueError, match="player count must be >= 1, got 0"):
        gap_bound(0, 2)
    with pytest.raises(ValueError, match="dimension must be >= 2, got 1"):
        gap_bound(1, 1)
    with pytest.raises(ValueError, match="player count and dimension must fit a float"):
        gap_bound(1, 10**400)


def test_gap_bound_is_reproducible():
    assert gap_bound(7, 8) == gap_bound(7, 8)


def test_gap_lemma_chain_in_mpmath():
    # game_gap_fn = (a-1)(2 E_a - (1-l)) >= 0 on l in [1/2, 1] and a >= 1:
    # E_a >= E_inf = -log2 l >= (1-l)/ln 2, and 2/ln 2 > 1.  Each step is
    # evaluated in 50 digits at the float grid points themselves.
    lams = [0.5 + i / 200 for i in range(101)]
    alphas = [1.0 + i / 20 for i in range(21)] + [2.0 + i for i in range(1, 49)]
    assert lams[0] == 0.5 and lams[-1] == 1.0 and alphas[-1] == 50.0
    with mpmath.workdps(50):
        tol, ln2 = mpmath.mpf(10) ** -40, mpmath.log(2)
        assert 2 / ln2 > 1
        for lam in lams:
            lo, hi = mpmath.mpf(1.0 - lam), mpmath.mpf(lam)
            e_inf = -mpmath.log(hi, 2)
            assert e_inf >= lo / ln2 - tol, lam
            for a in alphas:
                if a == 1.0:
                    e_a = -sum(x * mpmath.log(x, 2) for x in (lo, hi) if x > 0)
                else:
                    e_a = mpmath.log(lo**a + hi**a, 2) / (1 - mpmath.mpf(a))
                assert e_a >= e_inf - tol, (lam, a)
                exact = (a - 1) * (2 * e_a - lo)
                assert exact >= -tol, (lam, a)
                value = game_gap_fn(lam, a)
                assert value >= 0.0, (lam, a)
                assert abs(value - exact) <= 1e-12 * max(1.0, exact), (lam, a)


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

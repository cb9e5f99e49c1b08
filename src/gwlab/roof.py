"""Stochastic convex-roof estimation over pure-state decompositions.

The estimator takes two-qubit states only: the paper's closed forms are
stated for the two-qubit reduction of a generalized W-class state, and
``block_pair_reduction`` compresses every pair of blocks to one.  Every
m-element decomposition of a rank-r density operator arises from an
m x r isometry applied to its eigen-ensemble, so the optimizer explores the
isometry manifold: Haar-random draws interleaved with random-rotation
refinement of the incumbent best decompositions.  Minima over sampled
decompositions upper-bound the true convex roof; maxima lower-bound the
assisted value.

Trials run in generations of ``GENERATION`` candidates that are drawn,
orthonormalised and averaged as one batch.  All randomness of generation g
derives from the (seed, g) pair and is drawn in fixed shapes however many
trials remain, and refinement uses only incumbents of earlier generations,
so runs are reproducible and a longer run extends a shorter one.

These estimates never override the closed forms; they exist to verify them
from an independent route, and disagreements are reported, not corrected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .inequalities import Applicability, InequalityReport, _applicable, _skipped
from .measures import (
    OrderLike,
    RenyiOrder,
    _as_order,
    _f_alpha_array,
    block_pair_reduction,
    f_alpha,
    gw_pairwise_concurrence,
)
from .tensor import DensityOperator, SUPPORT_TOL, State

# unused here; kept only as a bench/tracer.py seed import site (ROADMAP item 1)
from .tensor import schmidt_spectrum  # noqa: F401

__all__ = [
    "RoofEstimate",
    "AGREEMENT_TOL",
    "convex_roof_bounds",
    "verify_c_equals_ca",
    "verify_e_alpha_formula",
]

#: Oracle estimates must agree with closed forms this tightly.
AGREEMENT_TOL = 5e-3
#: Improvements smaller than this do not reset the convergence clock.
PLATEAU_TOL = 1e-6
#: A plateau over the last quarter of fewer trials than this is not evidence
#: of convergence.
MIN_PLATEAU_TRIALS = 100
#: One trial in five is a fresh Haar draw; the rest refine the incumbents
#: with random two-row rotations.  Both the pattern and the rotation scale
#: depend only on the absolute trial index, so a longer run replays a
#: shorter one exactly (best-so-far estimates are monotone in trial count).
EXPLORE_CYCLE = 5
#: Rotation angles decay geometrically to this floor over REFINE_HORIZON
#: trials.
REFINE_HORIZON = 12000
REFINE_FLOOR = 1e-3
#: Trials drawn, orthonormalised and averaged as one batch.  Incumbents
#: change only between generations.
GENERATION = 64

_MEASURE_KINDS = ("concurrence", "renyi_ent")


@dataclass(frozen=True)
class RoofEstimate:
    """Best sampled averages: min bounds the roof from above, max bounds the
    assisted value from below."""

    min_estimate: float
    max_estimate: float
    trials: int
    seed: int
    converged: bool

    def __post_init__(self):
        if self.min_estimate > self.max_estimate + 1e-9:
            raise ValueError("min estimate exceeds max estimate")


def _generation_draws(seed: int, g: int, m: int, r: int):
    """Generation g's randomness, in fixed shapes: GENERATION Haar-random
    m x r isometries, and per candidate two distinct rows, an angle and a
    phase for a refinement rotation."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(g,)))
    # real and imaginary parts side by side: the view is the complex draw
    z = rng.standard_normal((GENERATION, m, r, 2)).view(np.complex128)[..., 0]
    q, rmat = np.linalg.qr(z)
    diag = np.diagonal(rmat, axis1=1, axis2=2).copy()
    diag[np.abs(diag) < 1e-300] = 1.0
    haar = q * (diag / np.abs(diag))[:, None, :]
    row_k = rng.integers(m, size=GENERATION)
    row_l = rng.integers(m - 1, size=GENERATION)
    row_l += row_l >= row_k
    theta = rng.standard_normal(GENERATION)
    phase = np.exp(2j * np.pi * rng.uniform(size=GENERATION))
    return haar, (row_k, row_l, theta, phase)


def _rotated(bases, row_k, row_l, theta, phase) -> np.ndarray:
    """Mix rows k and l of each isometry by a small unitary rotation.

    Left-multiplying by a unitary keeps the columns orthonormal, so each
    result still parameterizes a valid decomposition."""
    idx = np.arange(bases.shape[0])
    c, s = np.cos(theta)[:, None], np.sin(theta)[:, None]
    phase = phase[:, None]
    a, b = bases[idx, row_k], bases[idx, row_l]
    out = bases.copy()
    out[idx, row_k] = c * a - s * phase * b
    out[idx, row_l] = s * np.conj(phase) * a + c * b
    return out


def _eigen_ensemble(rho: DensityOperator) -> np.ndarray:
    """Rows are the sub-normalized eigen-ensemble vectors sqrt(l_i) v_i."""
    evals, evecs = np.linalg.eigh(rho.matrix)
    order = np.argsort(evals)[::-1]
    evals = np.clip(evals[order], 0.0, None)
    keep = evals > SUPPORT_TOL
    return (evecs[:, order][:, keep] * np.sqrt(evals[keep])).T


def _pair_average(
    rows: np.ndarray, measure_kind: str, order: Optional[RenyiOrder]
) -> np.ndarray:
    """Weighted average of the pure measure over the rows of unnormalized
    two-qubit component matrices: rows of shape (candidates, m, 4) give one
    average per candidate.

    The concurrence of a pure two-qubit component is 2|det| of its amplitude
    matrix (so is its negativity, which makes this roof the CREN roof too),
    and the Renyi value follows from the squared concurrence."""
    dets = np.abs(rows[..., 0] * rows[..., 3] - rows[..., 1] * rows[..., 2])
    if measure_kind != "renyi_ent":
        return 2.0 * dets.sum(axis=1)
    weights = np.einsum("gkd,gkd->gk", rows, rows.conj()).real
    live = weights > 1e-14
    c2 = np.minimum(1.0, (2.0 * dets / np.where(live, weights, 1.0)) ** 2)
    return np.where(live, weights * _f_alpha_array(c2, order), 0.0).sum(axis=1)


def convex_roof_bounds(
    rho: DensityOperator,
    measure_kind: str,
    trials: int = 20000,
    seed: int = 0,
    order: Optional[OrderLike] = None,
) -> RoofEstimate:
    """Estimate min and max decomposition averages of a pure-state measure
    on a two-qubit state.

    Interleaves Haar exploration with random-rotation refinement of the
    incumbent minimizing and maximizing isometries.  Trial t is a Haar draw
    when t < 8, when t is a multiple of ``EXPLORE_CYCLE`` or before any
    incumbent exists; otherwise it rotates the minimizer (even t) or the
    maximizer (odd t).  ``converged`` is true when neither best value
    improved by more than ``PLATEAU_TOL`` during the last quarter of the
    trials (and the run was long enough to judge).  Each decomposition has
    rank + 2 elements.
    """
    if rho.layout.dims != (2, 2):
        raise ValueError(
            f"the roof takes qubit pairs, got local dimensions {rho.layout.dims}"
        )
    order_obj = _as_order(order) if order is not None else None
    ensemble = _eigen_ensemble(rho)
    r = ensemble.shape[0]
    m = r + 2
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if measure_kind not in _MEASURE_KINDS:
        raise ValueError(f"measure_kind must be one of {_MEASURE_KINDS}")
    if measure_kind == "renyi_ent" and order_obj is None:
        raise ValueError("renyi_ent needs a Renyi order")

    best_min = math.inf
    best_max = -math.inf
    iso_min = iso_max = None
    last_improve = 0

    for g in range(-(-trials // GENERATION)):
        haar, (row_k, row_l, theta, phase) = _generation_draws(seed, g, m, r)
        t = np.arange(g * GENERATION, min(trials, (g + 1) * GENERATION))
        n = t.size
        candidates = haar[:n]
        if iso_min is not None:
            refine = (t >= 8) & (t % EXPLORE_CYCLE != 0)
            bases = np.where((t % 2 == 0)[:, None, None], iso_min, iso_max)
            steps = REFINE_FLOOR ** np.minimum(1.0, t / REFINE_HORIZON)
            rotated = _rotated(
                bases, row_k[:n], row_l[:n], steps * theta[:n], phase[:n]
            )
            candidates = np.where(refine[:, None, None], rotated, candidates)
        # one 2-D product over every component row of the generation
        rows = (candidates.reshape(-1, r) @ ensemble).reshape(n, m, -1)
        values = _pair_average(rows, measure_kind, order_obj)
        # the best values before each trial, earlier trials of this
        # generation included
        prior_min = np.minimum.accumulate(np.concatenate(([best_min], values[:-1])))
        prior_max = np.maximum.accumulate(np.concatenate(([best_max], values[:-1])))
        improved = (values < prior_min - PLATEAU_TOL) | (
            values > prior_max + PLATEAU_TOL
        )
        if improved.any():
            last_improve = int(t[improved][-1])
        lo, hi = int(np.argmin(values)), int(np.argmax(values))
        if values[lo] < best_min:
            best_min, iso_min = float(values[lo]), candidates[lo]
        if values[hi] > best_max:
            best_max, iso_max = float(values[hi]), candidates[hi]

    converged = trials >= MIN_PLATEAU_TRIALS and last_improve < math.floor(0.75 * trials)
    return RoofEstimate(
        min_estimate=float(best_min),
        max_estimate=float(best_max),
        trials=trials,
        seed=int(seed),
        converged=bool(converged),
    )


def _oracle_report(
    name: str,
    state: State,
    blocks,
    order: Optional[RenyiOrder],
    trials: int,
    seed: int,
    params: dict,
) -> InequalityReport:
    """Run the roof on the compressed pair of two blocks (by default party 0
    and the rest) and compare its min and max with the closed form: the
    concurrence C, or f_alpha(C^2) when an order is given.

    The max side is compared for the concurrence, and for the Renyi form
    only inside the concavity window or on a pure pair.  A non-converged
    run is reported as CONDITION_UNMET (with the numbers attached), not as
    a violation."""
    block_a, block_b = blocks or ({0}, set(range(1, state.layout.n_parties)))
    closed = gw_pairwise_concurrence(state, block_a, block_b).value
    if order is not None:
        closed = f_alpha(closed**2, order)
    pair = block_pair_reduction(state, block_a, block_b)
    kind = "concurrence" if order is None else "renyi_ent"
    estimate = convex_roof_bounds(pair, kind, trials=trials, seed=seed, order=order)
    max_side = order is None or order.supports_polygamy or pair.rank() == 1
    deviations = [abs(estimate.min_estimate - closed)]
    if max_side:
        deviations.append(abs(estimate.max_estimate - closed))
        deviations.append(abs(estimate.min_estimate - estimate.max_estimate))
    params.update(
        closed_form=closed,
        roof_min=estimate.min_estimate,
        roof_max=estimate.max_estimate,
        converged=estimate.converged,
    )
    if order is not None:
        params["max_side_checked"] = max_side
    if not estimate.converged:
        return _skipped(name, Applicability.CONDITION_UNMET, params)
    return _applicable(name, max(deviations), AGREEMENT_TOL, "le", params, tol=0.0)


def verify_c_equals_ca(
    state: State, trials: int = 20000, seed: int = 0, blocks=None
) -> InequalityReport:
    """Check that the min and max decomposition averages of the concurrence
    pinch together onto the two-qubit closed form."""
    params = {"trials": trials, "seed": int(seed)}
    return _oracle_report("c_equals_ca", state, blocks, None, trials, seed, params)


def verify_e_alpha_formula(
    state: State,
    order: OrderLike,
    trials: int = 20000,
    seed: int = 0,
    blocks=None,
) -> InequalityReport:
    """Check the Renyi closed form f_alpha(C^2) against decomposition averages.

    The min side needs the convexity threshold; the max side additionally
    needs the concavity window (it always agrees on pure inputs).  On mixed
    pair reductions the max side is expected to be unsatisfied: every
    decomposition has sum_k p_k C_k = C and c -> f_alpha(c^2) is convex, so
    f_alpha(C^2) is the minimum over decompositions and the maximizing ones
    exceed it.
    """
    order = _as_order(order)
    params: dict = {"alpha": order.alpha, "trials": trials, "seed": int(seed)}
    if not order.supports_monogamy:
        return _skipped("e_alpha_formula", Applicability.OUT_OF_WINDOW, params)
    return _oracle_report(
        "e_alpha_formula", state, blocks, order, trials, seed, params
    )

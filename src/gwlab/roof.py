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
so runs are reproducible and a longer run extends a shorter one.  The runs
of one call share their seed and advance in lockstep: each generation is
drawn once per isometry shape and read by every run of that shape.

These estimates never override the closed forms; they exist to verify them
from an independent route, and disagreements are reported, not corrected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

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
    "oracle_reports",
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
    phase for a refinement rotation.

    Only the candidates a run can read as Haar draws are orthonormalised:
    all of generation 0 (no incumbent exists yet), later the trials t with
    t % EXPLORE_CYCLE == 0.  The other isometries are NaN.  The arrays are
    read-only: every run of shape (m, r) reads the same ones."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(g,)))
    # real and imaginary parts side by side: the view is the complex draw
    z = rng.standard_normal((GENERATION, m, r, 2)).view(np.complex128)[..., 0]
    t = g * GENERATION + np.arange(GENERATION)
    used = slice(None) if g == 0 else t % EXPLORE_CYCLE == 0
    q, rmat = np.linalg.qr(z[used])
    diag = np.diagonal(rmat, axis1=1, axis2=2).copy()
    diag[np.abs(diag) < 1e-300] = 1.0
    haar = np.full_like(z, np.nan)
    haar[used] = q * (diag / np.abs(diag))[:, None, :]
    row_k = rng.integers(m, size=GENERATION)
    row_l = rng.integers(m - 1, size=GENERATION)
    row_l += row_l >= row_k
    theta = rng.standard_normal(GENERATION)
    phase = np.exp(2j * np.pi * rng.uniform(size=GENERATION))
    for array in (haar, row_k, row_l, theta, phase):
        array.flags.writeable = False
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


class _Run:
    """One roof run between generations: its eigen-ensemble, the incumbent
    minimizing and maximizing isometries with their values, and the last
    trial that improved either by more than ``PLATEAU_TOL``."""

    def __init__(self, rho: DensityOperator, measure_kind: str, order):
        self.ensemble = _eigen_ensemble(rho)
        r = self.ensemble.shape[0]
        self.shape = (r + 2, r)
        self.measure_kind, self.order = measure_kind, order
        self.best_min, self.best_max = math.inf, -math.inf
        self.iso_min = self.iso_max = None
        self.last_improve = 0

    def step(self, t: np.ndarray, steps: np.ndarray, draws) -> None:
        """Evaluate trials t, whose rotation scales are ``steps``."""
        haar, (row_k, row_l, theta, phase) = draws
        n = t.size
        candidates = haar[:n]
        if self.iso_min is not None:
            refine = (t >= 8) & (t % EXPLORE_CYCLE != 0)
            bases = np.where((t % 2 == 0)[:, None, None], self.iso_min, self.iso_max)
            rotated = _rotated(bases, row_k[:n], row_l[:n], steps * theta[:n], phase[:n])
            candidates = np.where(refine[:, None, None], rotated, candidates)
        m, r = self.shape
        # one 2-D product over every component row of the generation
        rows = (candidates.reshape(-1, r) @ self.ensemble).reshape(n, m, -1)
        values = _pair_average(rows, self.measure_kind, self.order)
        # the best values before each trial, earlier trials of this
        # generation included
        prior_min = np.minimum.accumulate(np.concatenate(([self.best_min], values[:-1])))
        prior_max = np.maximum.accumulate(np.concatenate(([self.best_max], values[:-1])))
        improved = (values < prior_min - PLATEAU_TOL) | (values > prior_max + PLATEAU_TOL)
        if improved.any():
            self.last_improve = int(t[improved][-1])
        lo, hi = int(np.argmin(values)), int(np.argmax(values))
        if values[lo] < self.best_min:
            self.best_min, self.iso_min = float(values[lo]), candidates[lo]
        if values[hi] > self.best_max:
            self.best_max, self.iso_max = float(values[hi]), candidates[hi]


def _check_run(trials: int, seed: int) -> None:
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")


def _roof_estimates(targets, trials: int, seed: int) -> list[RoofEstimate]:
    """One estimate per (rho, measure_kind, order) target, every run on the
    same seed and trial count.

    Every target is checked before the first eigen-decomposition.  The runs
    then advance one generation at a time; a generation's draws are made
    once per isometry shape and discarded after it, so memory does not grow
    with the trial count."""
    _check_run(trials, seed)
    for rho, measure_kind, order in targets:
        if rho.layout.dims != (2, 2):
            raise ValueError(
                f"the roof takes qubit pairs, got local dimensions {rho.layout.dims}"
            )
        if measure_kind not in _MEASURE_KINDS:
            raise ValueError(f"measure_kind must be one of {_MEASURE_KINDS}")
        if measure_kind == "renyi_ent" and order is None:
            raise ValueError("renyi_ent needs a Renyi order")
    runs = [_Run(*target) for target in targets]
    for g in range(-(-trials // GENERATION)):
        t = np.arange(g * GENERATION, min(trials, (g + 1) * GENERATION))
        steps = REFINE_FLOOR ** np.minimum(1.0, t / REFINE_HORIZON)
        draws = {}
        for run in runs:
            if run.shape not in draws:
                draws[run.shape] = _generation_draws(seed, g, *run.shape)
            run.step(t, steps, draws[run.shape])
    limit = math.floor(0.75 * trials)
    return [
        RoofEstimate(
            min_estimate=run.best_min,
            max_estimate=run.best_max,
            trials=trials,
            seed=int(seed),
            converged=trials >= MIN_PLATEAU_TRIALS and run.last_improve < limit,
        )
        for run in runs
    ]


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
    order_obj = _as_order(order) if order is not None else None
    return _roof_estimates([(rho, measure_kind, order_obj)], trials, seed)[0]


def _compare(concurrence, pair, order, estimate, params) -> InequalityReport:
    """Compare a roof estimate's min and max with the closed form: the
    concurrence C (``c_equals_ca``), or f_alpha(C^2) when an order is given
    (``e_alpha_formula``).

    The max side is compared for the concurrence, and for the Renyi form
    only inside the concavity window or on a pure pair.  A non-converged
    run is reported as CONDITION_UNMET (with the numbers attached), not as
    a violation."""
    name = "c_equals_ca" if order is None else "e_alpha_formula"
    closed = concurrence if order is None else f_alpha(concurrence**2, order)
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


def oracle_reports(
    state: State,
    targets: Sequence[tuple],
    trials: int = 20000,
    seed: int = 0,
) -> list[InequalityReport]:
    """One agreement report per ``(blocks, order)`` target: ``c_equals_ca``
    when the order is None, else ``e_alpha_formula`` at that order.

    Each pair of blocks (by default party 0 and the rest) is reduced and
    compressed through ``block_pair_reduction`` once, however many targets
    name it.  Every target is checked before any reduction or roof runs;
    orders outside the convexity threshold are reported OUT_OF_WINDOW
    without a roof, and the roofs of the others run in lockstep."""
    _check_run(trials, seed)
    orders = [None if order is None else _as_order(order) for _, order in targets]
    reports: list = [None] * len(targets)
    pairs: dict = {}
    pending = []
    for i, ((blocks, _), order) in enumerate(zip(targets, orders)):
        params: dict = {"trials": trials, "seed": int(seed)}
        if order is not None:
            params["alpha"] = order.alpha
            if not order.supports_monogamy:
                reports[i] = _skipped("e_alpha_formula", Applicability.OUT_OF_WINDOW, params)
                continue
        block_a, block_b = blocks or ({0}, set(range(1, state.layout.n_parties)))
        key = (frozenset(block_a), frozenset(block_b))
        if key not in pairs:
            pairs[key] = (
                gw_pairwise_concurrence(state, block_a, block_b).value,
                block_pair_reduction(state, block_a, block_b),
            )
        pending.append((i, order, params, *pairs[key]))
    estimates = _roof_estimates(
        [(pair, "concurrence" if order is None else "renyi_ent", order)
         for _, order, _, _, pair in pending],
        trials,
        seed,
    )
    for (i, order, params, concurrence, pair), estimate in zip(pending, estimates):
        reports[i] = _compare(concurrence, pair, order, estimate, params)
    return reports


def verify_c_equals_ca(
    state: State, trials: int = 20000, seed: int = 0, blocks=None
) -> InequalityReport:
    """Check that the min and max decomposition averages of the concurrence
    pinch together onto the two-qubit closed form."""
    return oracle_reports(state, [(blocks, None)], trials, seed)[0]


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
    return oracle_reports(state, [(blocks, order)], trials, seed)[0]

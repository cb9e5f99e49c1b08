"""Stochastic convex-roof estimation over pure-state decompositions.

The estimator takes two-qubit states only: the paper's closed forms are
stated for the two-qubit reduction of a generalized W-class state.  Every
m-element decomposition of a rank-r state arises from an m x r isometry
applied to any r rows that decompose it (Hughston, Jozsa and Wootters), such
as a family pair's rows phi and sqrt(r)|00>, so the optimizer explores the
isometry manifold: Haar-random draws interleaved with random-rotation
refinement of the incumbent best decompositions.  Minima over sampled
decompositions upper-bound the true convex roof; maxima lower-bound the
assisted value.

Trials run in generations of ``GENERATION`` candidates that are averaged
as one batch.  All randomness of generation g derives from the (seed, g)
pair and is drawn in fixed shapes however many trials remain, and
refinement uses only incumbents of earlier generations, so runs are
reproducible and a longer run extends a shorter one.  The runs of one call
share their seed and advance in lockstep.  Draws are made per chunk of
``DRAW_CHUNK`` generations and isometry shape, still one stream per
generation, with one QR over the chunk, so memory is bounded per chunk.
The runs of a shape step through each generation as stacked arrays of at
most ``GROUP_RUNS`` runs, one matrix product each.

These estimates never override the closed forms; they exist to verify them
from an independent route, and disagreements are reported, not corrected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from typing import Optional, Sequence

import numpy as np

from .inequalities import Applicability, InequalityReport
from .measures import OrderLike, _as_order, _canonical_pair, _f_alpha_array, _lam_lo, f_alpha
from .states import GWBlocks
from .tensor import DensityOperator, Partition, SUPPORT_TOL, State

# unused here; kept only as bench/tracer.py seed import sites (ROADMAP item 1)
from .measures import block_pair_reduction, gw_pairwise_concurrence  # noqa: F401
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
#: Runs of one isometry shape advance in stacks of at most this many, so a
#: generation's temporaries do not grow with the number of targets.
GROUP_RUNS = 256
#: Generations drawn and orthonormalised together, once per isometry shape,
#: so a chunk's arrays do not grow with the trial count.
DRAW_CHUNK = 16

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


def _draw_chunk(seed: int, start: int, stop: int, m: int, r: int) -> list:
    """The randomness of trials start to stop - 1 (start a multiple of
    GENERATION), as one (trials, Haar draws, moves) triple per generation.

    Generation g draws from its own (seed, g) stream, in fixed shapes however
    many of its trials run: GENERATION complex normal m x r matrices, then
    per trial two row indices, a rotation angle and a phase.  The trials that
    refine an incumbent (none in generation 0, later those with
    t % EXPLORE_CYCLE != 0) become moves: their index in the generation,
    whether they rotate the minimizer (even t), the two distinct rows each
    mixes, and cos, sin * phase and sin * conj(phase) of its rotation.  Only
    the other matrices are orthonormalised, by one QR over the chunk (the
    refining ones are NaN).  Every run of shape (m, r) reads these arrays,
    so they are read-only."""
    gens = range(start // GENERATION, -(-stop // GENERATION))
    z = np.empty((len(gens), GENERATION, m, r), complex)
    rows = np.empty((2, len(gens), GENERATION), int)
    normal, uniform = np.empty((2, len(gens), GENERATION))
    for i, g in enumerate(gens):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(g,)))
        # real and imaginary parts side by side: the view is the complex draw
        z[i] = rng.standard_normal((GENERATION, m, r, 2)).view(np.complex128)[..., 0]
        rows[0, i] = rng.integers(m, size=GENERATION)
        rows[1, i] = rng.integers(m - 1, size=GENERATION)
        normal[i] = rng.standard_normal(GENERATION)
        uniform[i] = rng.uniform(size=GENERATION)
    size = stop - start
    t = np.arange(start, stop)
    refine = (t % EXPLORE_CYCLE != 0) & (t >= GENERATION)
    z = z.reshape(-1, m, r)[:size]
    q, rmat = np.linalg.qr(z[~refine])
    diag = np.diagonal(rmat, axis1=1, axis2=2).copy()
    diag[np.abs(diag) < 1e-300] = 1.0
    haar = np.full_like(z, np.nan)
    haar[~refine] = q * (diag / np.abs(diag))[:, None, :]
    j = np.flatnonzero(refine)
    row_k, row_l = rows.reshape(2, -1)[:, j]
    row_l += row_l >= row_k
    angle = REFINE_FLOOR ** np.minimum(1.0, t[j] / REFINE_HORIZON) * normal.ravel()[j]
    c, s = np.cos(angle)[:, None], np.sin(angle)[:, None]
    phase = np.exp(2j * np.pi * uniform.ravel()[j])[:, None]
    moves = (j % GENERATION, t[j] % 2 == 0, row_k, row_l, c, s * phase, s * np.conj(phase))
    for array in (t, haar, *moves):
        array.flags.writeable = False
    lows = range(0, size, GENERATION)
    cuts = np.searchsorted(j, [*lows, size]).tolist()
    return [(t[lo : lo + GENERATION], haar[lo : lo + GENERATION],
             tuple(x[a:b] for x in moves)) for lo, a, b in zip(lows, cuts, cuts[1:])]


def _eigen_ensemble(rho: DensityOperator) -> np.ndarray:
    """Rows are the sub-normalized eigen-ensemble vectors sqrt(l_i) v_i."""
    evals, evecs = np.linalg.eigh(rho.matrix)
    order = np.argsort(evals)[::-1]
    keep = order[evals[order] > SUPPORT_TOL]
    return (evecs[:, keep] * np.sqrt(evals[keep])).T


def _pair_rows(w: float, t_a: float, t_b: float) -> np.ndarray:
    """Rows phi and sqrt(r)|00> of the canonical pair of blocks weighing t_a and
    t_b, or its top eigen-row alone when, as ``_eigen_ensemble`` decides, its
    smaller eigenvalue lo is at most ``SUPPORT_TOL``."""
    phi, r = _canonical_pair(w, t_a, t_b)
    lo = _lam_lo(min(4.0 * r * (t_a + t_b), 1.0))
    if lo > SUPPORT_TOL:
        return np.array([phi, [math.sqrt(r), 0.0, 0.0, 0.0]])
    # that row squared is (w+r-lo, (1-q) t_b, (1-q) t_a, 0) (1-lo)/(1-2lo), q = lo/(t_a+t_b)
    q = 2.0 * r / (1.0 + math.sqrt(1.0 - 4.0 * r * (t_a + t_b)))
    top = np.maximum(0.0, [w + r - lo, (1.0 - q) * t_b, (1.0 - q) * t_a, 0.0])
    return np.sqrt(top * (1.0 - lo) / (1.0 - 2.0 * lo))[None]


class _Group:
    """Up to ``GROUP_RUNS`` roof runs of one isometry shape as one stack:
    their rows, incumbent minimizing and maximizing isometries with
    their values, and the last trial that improved either by more than
    ``PLATEAU_TOL``.  Concurrence runs come first, then the Renyi runs."""

    def __init__(self, runs: list):
        self.targets = [i for i, _, _ in runs]
        self.ensembles = np.array([e for _, e, _ in runs], dtype=complex)
        size, r = self.ensembles.shape[:2]
        self.shape = (r + 2, r)
        self.best_min, self.best_max = np.full(size, math.inf), np.full(size, -math.inf)
        self.iso_min = np.full((size, r + 2, r), np.nan, complex)
        self.iso_max = self.iso_min.copy()
        self.last_improve = np.zeros(size, dtype=int)
        alphas = np.array([order.alpha for _, _, order in runs if order is not None])
        self.conc = len(runs) - alphas.size
        self.parts = [(alpha, alphas == alpha) for alpha in dict.fromkeys(alphas.tolist())]

    def step(self, t: np.ndarray, haar: np.ndarray, moves) -> None:
        """Evaluate trials t: the Haar draws, with the refining rows of
        ``moves`` rotating the incumbents instead."""
        runs = np.arange(len(self.targets))
        refine, even, row_k, row_l, c, s_phase, s_conj = moves
        bases = np.where(even[:, None, None], self.iso_min[:, None], self.iso_max[:, None])
        # a unitary mix of rows k and l keeps the columns orthonormal
        j = np.arange(refine.size)
        a, b = bases[:, j, row_k], bases[:, j, row_l]
        bases[:, j, row_k] = c * a - s_phase * b
        bases[:, j, row_l] = s_conj * a + c * b
        candidates = np.broadcast_to(haar, (runs.size, *haar.shape)).copy()
        candidates[:, refine] = bases
        m, r = self.shape
        # per run, one 2-D product over every component row of the generation
        rows = (candidates.reshape(runs.size, -1, r) @ self.ensembles).reshape(
            runs.size, -1, m, 4)
        # a pure two-qubit component has concurrence (and negativity, so this
        # is the CREN roof too) 2|det| of its amplitudes, Renyi value f_alpha(C^2)
        dets = np.abs(rows[..., 0] * rows[..., 3] - rows[..., 1] * rows[..., 2])
        values = np.empty(dets.shape[:2])
        values[: self.conc] = 2.0 * dets[: self.conc].sum(axis=-1)
        mixed, dets = rows[self.conc :].reshape(-1, m, 4), dets[self.conc :]
        weights = np.einsum("gkd,gkd->gk", mixed, mixed.conj()).real.reshape(dets.shape)
        live = weights > 1e-14
        c2 = np.minimum(1.0, (2.0 * dets / np.where(live, weights, 1.0)) ** 2)
        for alpha, part in self.parts:
            c2[part] = _f_alpha_array(c2[part], alpha)
        values[self.conc :] = np.where(live, weights * c2, 0.0).sum(axis=-1)
        # the best values before each trial, this generation's earlier ones too
        low, high = (np.concatenate((best[:, None], values[:, :-1]), axis=1)
                     for best in (self.best_min, self.best_max))
        improved = (values < np.minimum.accumulate(low, axis=1) - PLATEAU_TOL) | (
            values > np.maximum.accumulate(high, axis=1) + PLATEAU_TOL)
        last = t[::-1][np.argmax(improved[:, ::-1], axis=1)]
        self.last_improve = np.where(improved.any(axis=1), last, self.last_improve)
        for best, iso, pick, beats in (
            (self.best_min, self.iso_min, values.argmin(axis=1), np.less),
            (self.best_max, self.iso_max, values.argmax(axis=1), np.greater),
        ):
            better = beats(values[runs, pick], best)
            best[better] = values[runs, pick][better]
            iso[better] = candidates[runs[better], pick[better]]


def _check_run(trials: int, seed: int) -> None:
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")


def _roof_estimates(targets, trials: int, seed: int) -> list[RoofEstimate]:
    """One estimate per (rows, order) target: the concurrence roof when the
    order is None, else the f_alpha(C^2) roof, of the state the rows
    decompose.  Every run takes the seed and trial count the callers checked.

    The runs advance one generation at a time in ``_Group`` stacks; draws
    are made once per chunk of ``DRAW_CHUNK`` generations and shape and
    discarded after it, so memory does not grow with the trial count."""
    runs = sorted(((i, rows, order) for i, (rows, order) in enumerate(targets)),
                  key=lambda run: (len(run[1]), run[2] is not None))
    groups = []
    for _, same in groupby(runs, key=lambda run: len(run[1])):
        same = list(same)
        groups += [_Group(same[k : k + GROUP_RUNS]) for k in range(0, len(same), GROUP_RUNS)]
    shapes = dict.fromkeys(group.shape for group in groups)
    span = DRAW_CHUNK * GENERATION
    for start in range(0, trials, span):
        chunks = {shape: _draw_chunk(seed, start, min(trials, start + span), *shape)
                  for shape in shapes}
        for group in groups:
            for generation in chunks[group.shape]:
                group.step(*generation)
    limit = math.floor(0.75 * trials)
    found = np.empty((len(targets), 3))
    for group in groups:
        best = (group.best_min, group.best_max, group.last_improve)
        found[group.targets] = np.transpose(best)
    plateau = trials >= MIN_PLATEAU_TRIALS
    return [RoofEstimate(low, high, trials, int(seed), plateau and last < limit)
            for low, high, last in found.tolist()]


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
    when t is a multiple of ``EXPLORE_CYCLE`` or before any incumbent exists;
    otherwise it rotates the minimizer (even t) or the maximizer (odd t).
    ``converged`` is true when neither best value improved by more than
    ``PLATEAU_TOL`` during the last quarter of the trials (and the run was
    long enough to judge).  Each decomposition has rank + 2 elements.
    """
    _check_run(trials, seed)
    if measure_kind not in _MEASURE_KINDS:
        raise ValueError(f"measure_kind must be one of {_MEASURE_KINDS}")
    if measure_kind == "renyi_ent" and order is None:
        raise ValueError("renyi_ent needs a Renyi order")
    order = None if order is None else _as_order(order)
    if rho.layout.dims != (2, 2):
        raise ValueError(f"the roof takes qubit pairs, got local dimensions {rho.layout.dims}")
    target = (_eigen_ensemble(rho), order if measure_kind == "renyi_ent" else None)
    return _roof_estimates([target], trials, seed)[0]


def _compare(concurrence, rows, order, estimate, params) -> InequalityReport:
    """Compare a roof estimate's min and max with the closed form: the
    concurrence C (``c_equals_ca``), or f_alpha(C^2) when an order is given
    (``e_alpha_formula``).

    The max side is compared for the concurrence, and for the Renyi form
    only inside the concavity window or on a pure pair (a single row).  A
    non-converged run is reported as CONDITION_UNMET (with the numbers
    attached), not as a violation."""
    name = "c_equals_ca" if order is None else "e_alpha_formula"
    closed = concurrence if order is None else f_alpha(concurrence**2, order)
    max_side = order is None or order.supports_polygamy or len(rows) == 1
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
        return InequalityReport(name, None, None, None, True, Applicability.CONDITION_UNMET, params)
    lhs = float(max(deviations))
    return InequalityReport(name, lhs, AGREEMENT_TOL, AGREEMENT_TOL - lhs, lhs <= AGREEMENT_TOL,
                            Applicability.APPLICABLE, params)


def oracle_reports(
    state: State | GWBlocks,
    targets: Sequence[tuple],
    trials: int = 20000,
    seed: int = 0,
) -> list[InequalityReport]:
    """One agreement report per ``(blocks, order)`` target: ``c_equals_ca``
    when the order is None, else ``e_alpha_formula`` at that order.

    The state, a pure GWBlocks or a GW-tagged dense pure state, becomes
    block weights at entry.  Each pair of blocks (by default party 0 and the
    rest) is summed once, however many targets name it, and its weights give
    its concurrence and the rows of its canonical qubit pair (``_pair_rows``).
    Every target, and then that the state is pure, is checked before any
    pair is built or roof runs; orders outside the convexity threshold are
    reported OUT_OF_WINDOW without a roof, and the others run in lockstep."""
    state = GWBlocks.from_state(state)
    _check_run(trials, seed)
    orders = [None if order is None else _as_order(order) for _, order in targets]
    if not state.pure:
        raise ValueError("the oracle needs a pure state")
    reports: list = [None] * len(targets)
    pairs: dict = {}
    pending = []
    for i, ((blocks, _), order) in enumerate(zip(targets, orders)):
        params: dict = {"trials": trials, "seed": int(seed)}
        if order is not None:
            params["alpha"] = order.alpha
            if not order.supports_monogamy:
                reports[i] = InequalityReport("e_alpha_formula", None, None, None, True,
                                              Applicability.OUT_OF_WINDOW, params)
                continue
        block_a, block_b = blocks or ({0}, set(range(1, state.layout.n_parties)))
        key = (frozenset(block_a), frozenset(block_b))
        if key not in pairs:
            t_a, t_b = Partition.of([block_a, block_b]).block_sums(state.weights).tolist()
            pairs[key] = 2.0 * math.sqrt(t_a * t_b), _pair_rows(state.vacuum_weight, t_a, t_b)
        pending.append((i, order, params, *pairs[key]))
    estimates = _roof_estimates([(rows, order) for _, order, _, _, rows in pending],
                                trials, seed)
    for (i, order, params, concurrence, rows), estimate in zip(pending, estimates):
        reports[i] = _compare(concurrence, rows, order, estimate, params)
    return reports


def verify_c_equals_ca(
    state: State | GWBlocks, trials: int = 20000, seed: int = 0, blocks=None
) -> InequalityReport:
    """Check that the min and max decomposition averages of the concurrence
    pinch together onto the two-qubit closed form."""
    return oracle_reports(state, [(blocks, None)], trials, seed)[0]


def verify_e_alpha_formula(
    state: State | GWBlocks,
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

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

Trials run in generations of ``GENERATION`` candidates averaged as one
batch.  Generation g draws all its randomness from the (seed, g) pair in
fixed shapes, and refinement uses only incumbents of earlier generations,
so runs are reproducible and a longer run extends a shorter one.  The runs
of one call share their seed and advance in lockstep, each for its own
trial count.  The runs of one call have one row count, so one isometry
shape: draws are made per chunk of ``DRAW_CHUNK`` generations, with one QR
over the chunk, and the runs of a measure and trial count step as stacks of
at most ``GROUP_RUNS`` runs.  Every family pair has the same two rows, so
the oracle draws one shape.  On it every decomposition averages its
concurrence to C exactly (sum_k p_k C_k = C), so the oracle runs each
concurrence target for one generation only.

These estimates never override the closed forms; they exist to verify them
from an independent route, and disagreements are reported, not corrected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, groupby
from typing import Iterator, Optional, Sequence

import numpy as np

from .inequalities import _FAILED, _HELD, _OUT, _UNMET, InequalityReport, _column, _json_value
from .inequalities import _oracle_checks, _reports
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
    "oracle_lines",
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
#: Runs advance in stacks of at most this many, so a generation's
#: temporaries do not grow with the number of targets.
GROUP_RUNS = 256
#: Generations drawn and orthonormalised together, so a chunk's arrays do
#: not grow with the trial count.
DRAW_CHUNK = 16
#: Most roof targets (block pairs plus orders) an oracle job may ask for; a
#: target holds about 4 KB, and a larger job is refused before any is built.
MAX_ORACLE_TARGETS = 10**5

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


def _pair_rows(w: float, t_a, t_b) -> tuple[np.ndarray, np.ndarray]:
    """Rows phi and sqrt(r)|00> of the canonical pairs of blocks weighing t_a
    and t_b, elementwise as a (..., 2, 4) table, and whether each pair is
    pure as ``_eigen_ensemble`` decides: its smaller eigenvalue is at most
    ``SUPPORT_TOL``.  Not r == 0: rounding leaves r above 0 on some covers."""
    phi, r = _canonical_pair(w, t_a, t_b)
    rows = np.zeros((*phi.shape[:-1], 2, 4))
    rows[..., 0, :], rows[..., 1, 0] = phi, np.sqrt(r)
    return rows, _lam_lo(np.minimum(4.0 * r * (t_a + t_b), 1.0)) <= SUPPORT_TOL


class _Group:
    """Up to ``GROUP_RUNS`` roof runs of one measure and one trial count as
    one stack: their rows, incumbent minimizing and maximizing isometries
    with their values, and the last trial that improved either by more than
    ``PLATEAU_TOL``.  ``parts``, each order
    with the mask of its runs, is empty for concurrence runs."""

    def __init__(self, runs: list):
        self.targets = [i for i, _, _, _ in runs]
        self.trials = runs[0][3]
        self.ensembles = np.array([e for _, e, _, _ in runs], dtype=complex)
        size, r = self.ensembles.shape[:2]
        self.shape = (r + 2, r)
        self.best_min, self.best_max = np.full(size, math.inf), np.full(size, -math.inf)
        self.iso_min = np.full((size, r + 2, r), np.nan, complex)
        self.iso_max = self.iso_min.copy()
        self.last_improve = np.zeros(size, dtype=int)
        alphas = [order.alpha for _, _, order, _ in runs if order is not None]
        self.parts = [(alpha, np.array(alphas) == alpha) for alpha in dict.fromkeys(alphas)]

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
        if not self.parts:
            values = 2.0 * dets.sum(axis=-1)
        else:
            mixed = rows.reshape(-1, m, 4)
            weights = np.einsum("gkd,gkd->gk", mixed, mixed.conj()).real.reshape(dets.shape)
            live = weights > 1e-14
            c2 = np.minimum(1.0, (2.0 * dets / np.where(live, weights, 1.0)) ** 2)
            for alpha, part in self.parts:
                c2[part] = _f_alpha_array(c2[part], alpha)
            values = np.where(live, weights * c2, 0.0).sum(axis=-1)
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
        raise ValueError(f"trials must be >= 1, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")


def _roof_estimates(targets, seed: int) -> list[RoofEstimate]:
    """One estimate per (rows, order, trials) target: the concurrence roof
    when the order is None, else the f_alpha(C^2) roof, of the state the rows
    decompose, over the first trials of the seed the callers checked.  Every
    target has the same row count, so one isometry shape, and each trial
    count is the call's largest or a multiple of ``GENERATION``.  Runs group
    by measure and trial count; one chunk of ``DRAW_CHUNK`` generations is
    drawn per span, up to the longest run, and discarded after it."""
    def kind(run):
        return run[2] is not None, run[3]

    groups = []
    for _, same in groupby(sorted(((i, *target) for i, target in enumerate(targets)),
                                  key=kind), key=kind):
        same = list(same)
        groups += [_Group(same[k : k + GROUP_RUNS]) for k in range(0, len(same), GROUP_RUNS)]
    stop, span = max(group.trials for group in groups), DRAW_CHUNK * GENERATION
    for start in range(0, stop, span):
        chunk = _draw_chunk(seed, start, min(stop, start + span), *groups[0].shape)
        for group in (group for group in groups if group.trials > start):
            for generation in chunk[: -((start - group.trials) // GENERATION)]:
                group.step(*generation)
    found: list = [None] * len(targets)
    for group in groups:
        # converged: no improvement in the last quarter of enough trials
        limit, plateau = math.floor(0.75 * group.trials), group.trials >= MIN_PLATEAU_TRIALS
        for i, low, high, last in zip(group.targets, group.best_min.tolist(),
                                      group.best_max.tolist(), group.last_improve.tolist()):
            found[i] = RoofEstimate(low, high, group.trials, int(seed), plateau and last < limit)
    return found


def convex_roof_bounds(rho: DensityOperator, measure_kind: str, trials: int = 20000, seed: int = 0,
                       order: Optional[OrderLike] = None) -> RoofEstimate:
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
    target = (_eigen_ensemble(rho), order if measure_kind == "renyi_ent" else None, trials)
    return _roof_estimates([target], seed)[0]


def _oracle_tables(state, partition: Partition, orders, trials: int, seed: int) -> list:
    """Each ``_oracle_checks`` check, its codes, columns and rows' alphas."""
    state = GWBlocks.from_state(state)
    _check_run(trials, seed)
    orders = [_as_order(order) for order in orders]
    k = partition.n_blocks
    if k < 2:
        raise ValueError("partition needs at least two blocks")
    if k * (k - 1) // 2 + len(orders) > MAX_ORACLE_TARGETS:
        raise ValueError(f"{k} blocks and {len(orders)} orders make more than "
                         f"MAX_ORACLE_TARGETS = {MAX_ORACLE_TARGETS} oracle targets")
    if not state.pure:
        raise ValueError("the oracle needs a pure state")
    t = partition.block_sums(state.weights)
    a, b = np.triu_indices(k, 1)
    distinct: dict = {}  # each distinct ordered weight pair, in order of first appearance
    pair_of = np.array([distinct.setdefault(w, len(distinct))
                        for w in zip(t[a].tolist(), t[b].tolist())])
    t_a, t_b = np.array(list(distinct)).T
    rows, pure = _pair_rows(state.vacuum_weight, t_a, t_b)
    concurrences = 2.0 * np.sqrt(t_a * t_b)
    first, size = pair_of[0], len(pair_of)
    windowed = {order.alpha: order for order in orders if order.supports_monogamy}
    estimates = _roof_estimates([(r, None, min(trials, GENERATION)) for r in rows] + [
        (rows[first], order, trials) for order in windowed.values()], seed)
    # one row per pair, then one per order: the index of its run, or -1, a
    # last run of NaNs, outside the window
    found = {alpha: len(rows) + i for i, alpha in enumerate(windowed)}
    run = np.concatenate([pair_of, [found.get(order.alpha, -1) for order in orders]]).astype(int)
    low, high, plateau = np.array([(e.min_estimate, e.max_estimate, e.converged)
                                   for e in estimates] + [(math.nan, math.nan, 0.0)]).T
    plateau[: len(rows)] = high[: len(rows)] - low[: len(rows)] <= PLATEAU_TOL
    low, high, converged = low[run], high[run], plateau[run] == 1.0
    closed = np.concatenate([concurrences[pair_of], [f_alpha(
        float(concurrences[first]) ** 2, o) if o.alpha in found else math.nan for o in orders]])
    max_side = np.array([True] * size + [o.supports_polygamy or pure[first] for o in orders])
    deviation = np.abs(low - closed)
    deviation = np.where(max_side, np.maximum(
        np.maximum(deviation, np.abs(high - closed)), np.abs(low - high)), deviation)
    verdicts = np.where(converged, np.where(deviation <= AGREEMENT_TOL, _HELD, _FAILED), _UNMET)
    columns = [np.where(run >= 0, verdicts, _OUT), deviation, np.full(len(run), AGREEMENT_TOL),
               AGREEMENT_TOL - deviation, closed, low, high, converged, max_side]
    (pair_codes, *pairs), (order_codes, *renyi) = zip(*[(c[:size], c[size:])
                                                        for c in map(np.ndarray.tolist, columns)])
    blocks = partition.sorted_blocks
    pairs[-1] = [[blocks[i], blocks[j]] for i, j in zip(a.tolist(), b.tolist())]
    checks = _oracle_checks(min(trials, GENERATION), trials, int(seed))
    return [(checks[0], pair_codes, pairs, [None] * size),
            (checks[1], order_codes, renyi, [order.alpha for order in orders])]


def oracle_reports(state: State | GWBlocks, partition: Partition, orders: Sequence[OrderLike] = (),
                   trials: int = 20000, seed: int = 0) -> list[InequalityReport]:
    """One ``c_equals_ca`` report per pair of the partition's blocks, pairs
    (0, 1), (0, 2), ..., (1, 2), ..., then one ``e_alpha_formula`` report per
    order on blocks 0 and 1.

    The state (a pure GWBlocks or GW-tagged dense pure state) becomes block
    weights.  The orders, the block count (two or more), the target count
    (at most ``MAX_ORACLE_TARGETS`` pairs plus orders) and the purity are
    checked first; one ``block_sums`` then gives every block's weight.  One
    ``_pair_rows`` call gives the rows of every distinct ordered weight pair,
    and each distinct target one roof run: a concurrence run min(trials,
    ``GENERATION``) trials, a Renyi run every trial, and none an order outside
    the convexity threshold (OUT_OF_WINDOW).  All reports are judged at once,
    as columns: the roof's min against C or f_alpha(C^2), and its max too
    for C, and for f_alpha(C^2) in the concavity window or on a pure pair.
    A run that has not converged (a concurrence run's min and max differ by
    more than ``PLATEAU_TOL``, a Renyi run is off its plateau) is
    CONDITION_UNMET."""
    tables = _oracle_tables(state, partition, orders, trials, seed)
    return [report for table in tables for report in _reports(*table)]


def oracle_lines(state: State | GWBlocks, partition: Partition, orders: Sequence[OrderLike] = (),
                 trials: int = 20000, seed: int = 0) -> Iterator[str]:
    """The JSON line of each report of :func:`oracle_reports`, with the bytes
    of ``report_to_json_line``, written lazily from the same columns by
    ``verify``'s writer; every check and roof runs before this returns."""
    tables = _oracle_tables(state, partition, orders, trials, seed)
    return chain.from_iterable([_column(check, codes, columns, list(map(_json_value, alphas)),
                                        False) for check, codes, columns, alphas in tables])


def verify_c_equals_ca(
    state: State | GWBlocks, trials: int = 20000, seed: int = 0, blocks=None
) -> InequalityReport:
    """Check that the min and max decomposition averages of the concurrence
    pinch together onto the two-qubit closed form."""
    state = GWBlocks.from_state(state)
    blocks = blocks or ({0}, range(1, state.layout.n_parties))
    return oracle_reports(state, Partition.of(blocks), (), trials, seed)[0]


def verify_e_alpha_formula(state: State | GWBlocks, order: OrderLike, trials: int = 20000,
                           seed: int = 0, blocks=None) -> InequalityReport:
    """Check the Renyi closed form f_alpha(C^2) against decomposition averages.

    The min side needs the convexity threshold; the max side additionally
    needs the concavity window (it always agrees on pure inputs).  On mixed
    pair reductions the max side is expected to be unsatisfied: every
    decomposition has sum_k p_k C_k = C and c -> f_alpha(c^2) is convex, so
    f_alpha(C^2) is the minimum over decompositions and the maximizing ones
    exceed it.
    """
    state = GWBlocks.from_state(state)
    blocks = blocks or ({0}, range(1, state.layout.n_parties))
    return oracle_reports(state, Partition.of(blocks), [order], trials, seed)[-1]

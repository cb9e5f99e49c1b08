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
of one call share their seed and row count (every family pair has the same
two rows), so one isometry shape, drawn per chunk of ``DRAW_CHUNK``
generations with one QR over the chunk.  Callers hand over stacks of runs
of one measure and trial count and get columns back; a stack advances in
lockstep as slices of at most ``GROUP_RUNS``, one step per generation: both
incumbent sides in one array, one Renyi kernel call per band of orders, no
per-run copy of the Haar draws when no run refines.  As sum_k p_k C_k = C
on every decomposition, the oracle runs each pair for one generation only,
and each distinct float order in its ``e_alpha_formula`` check's window once.

These estimates never override the closed forms; they exist to verify them
from an independent route, and disagreements are reported, not corrected.
"""

from __future__ import annotations

import math
from itertools import chain, combinations
from typing import Iterator, Optional, Sequence

import numpy as np

from .inequalities import _FAILED, _HELD, _OUT, _UNMET, InequalityReport, _column, _json_value
from .inequalities import _oracle_checks, _reports
from .measures import _band_masks, _canonical_pair, _lam_lo, _order, _polygamy, _renyi_of, f_alpha
from .states import GWBlocks
from .tensor import DensityOperator, Partition, SUPPORT_TOL, State

# unused here; kept only as bench/tracer.py seed import sites (ROADMAP item 1)
from .measures import block_pair_reduction, gw_pairwise_concurrence  # noqa: F401
from .tensor import schmidt_spectrum  # noqa: F401

__all__ = [
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
#: A stack of runs advances in slices of at most this many, so a
#: generation's temporaries do not grow with the number of targets.
GROUP_RUNS = 256
#: Generations drawn and orthonormalised together, so a chunk's arrays do
#: not grow with the trial count.
DRAW_CHUNK = 16
#: Most roof targets (block pairs plus orders) an oracle job may ask for; a
#: target holds about 4 KB, and a larger job is refused before any is built.
MAX_ORACLE_TARGETS = 10**5


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
    rows = np.zeros((*phi.shape[:-1], 2, 4), complex)
    rows[..., 0, :], rows[..., 1, 0] = phi, np.sqrt(r)
    return rows, _lam_lo(np.minimum(4.0 * r * (t_a + t_b), 1.0)) <= SUPPORT_TOL


class _Group:
    """Up to ``GROUP_RUNS`` roof runs of one measure and trial count: a view
    of the caller's rows (runs, r, 4), incumbent minimizing and maximizing
    isometries (runs, 2, m, r) with values (min, -max), the last trial that
    improved either by more than ``PLATEAU_TOL``, and ``bands``: each kernel
    band's runs and orders (none when ``alphas`` is None: concurrence)."""

    def __init__(self, ensembles: np.ndarray, alphas: Optional[np.ndarray], trials: int):
        self.ensembles, self.trials = ensembles, trials
        size, r = ensembles.shape[:2]
        self.shape = (r + 2, r)
        self.best = np.full((size, 2), math.inf)
        self.iso = np.full((size, 2, r + 2, r), np.nan, complex)
        self.last_improve = np.zeros(size, dtype=int)
        alphas = np.zeros(0) if alphas is None else alphas
        self.bands = [(band, mask, alphas[mask][:, None, None])
                      for band, mask in _band_masks(alphas.tolist())]

    def step(self, t: np.ndarray, haar: np.ndarray, moves) -> None:
        """Evaluate trials t: the Haar draws, with the refining rows of
        ``moves`` rotating the incumbents instead.  Both sides are minima, the
        maximizer's of negated values (exact: the same tests and first indices)."""
        size = len(self.ensembles)
        refine, even, row_k, row_l, c, s_phase, s_conj = moves
        if refine.size:  # runs read their own incumbents: one copy per run
            candidates = np.empty((size, *haar.shape), complex)
            candidates[:] = haar
            candidates[:, refine] = self.iso[:, (~even).astype(int)]
            # a unitary mix of rows k and l keeps the columns orthonormal
            a, b = candidates[:, refine, row_k], candidates[:, refine, row_l]
            candidates[:, refine, row_k], candidates[:, refine, row_l] = (
                c * a - s_phase * b, s_conj * a + c * b)
        else:
            candidates = np.broadcast_to(haar, (size, *haar.shape))
        m, r = self.shape
        # per run, one 2-D product over every component row of the generation
        rows = (candidates.reshape(size, -1, r) @ self.ensembles).reshape(size, -1, m, 4)
        # a pure two-qubit component has concurrence (and negativity, so this
        # is the CREN roof too) 2|det| of its amplitudes, Renyi value f_alpha(C^2)
        dets = np.abs(rows[..., 0] * rows[..., 3] - rows[..., 1] * rows[..., 2])
        if not self.bands:
            values = 2.0 * dets.sum(axis=-1)
        else:
            mixed = rows.reshape(-1, m, 4)
            weights = np.einsum("gkd,gkd->gk", mixed, mixed.conj()).real.reshape(dets.shape)
            live = weights > 1e-14
            lo = _lam_lo(np.minimum(1.0, (2.0 * dets / np.where(live, weights, 1.0)) ** 2))
            f = np.empty_like(lo)
            for band, runs, alphas in self.bands:
                f[runs] = _renyi_of(lo[runs])(alphas, band)
            values = np.where(live, weights * f, 0.0).sum(axis=-1)
        # each side's best before each trial, this generation's earlier ones too
        seq = np.empty((size, 2, values.shape[1] + 1))
        seq[:, :, 0], seq[:, 0, 1:], seq[:, 1, 1:] = self.best, values, -values
        prior = np.minimum.accumulate(seq, axis=2)
        improved = seq[..., 1:] < prior[..., :-1] - PLATEAU_TOL
        # trials only grow: the last improving one is the largest seen
        self.last_improve = np.maximum(self.last_improve, (improved * t).max(axis=(1, 2)))
        run, side = np.nonzero(prior[:, :, -1] < self.best)
        self.best[run, side] = prior[run, side, -1]
        self.iso[run, side] = candidates[run, seq[run, side, 1:].argmin(axis=1)]


def _check_run(trials: int, seed: int) -> None:
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")


def _roof_estimates(stacks, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Min, max and converged columns of every run of the stacks, in stack
    order, over the first trials of the seed the callers checked.  A stack is
    (rows (runs, r, 4) complex, alphas (runs,) or None, trials): the
    f_alpha(C^2) roof, or the concurrence roof if None, of each run's state.
    Every stack has one row count, so one isometry shape, and each trial
    count is the call's largest or a multiple of ``GENERATION``.  Stacks step
    as slices of at most ``GROUP_RUNS``; one chunk of ``DRAW_CHUNK``
    generations is drawn per span, up to the longest run, and discarded."""
    groups = [_Group(ensembles[k : k + GROUP_RUNS],
                     None if alphas is None else alphas[k : k + GROUP_RUNS], trials)
              for ensembles, alphas, trials in stacks for k in range(0, len(ensembles), GROUP_RUNS)]
    stop, span = max(group.trials for group in groups), DRAW_CHUNK * GENERATION
    for start in range(0, stop, span):
        chunk = _draw_chunk(seed, start, min(stop, start + span), *groups[0].shape)
        for group in (group for group in groups if group.trials > start):
            for generation in chunk[: -((start - group.trials) // GENERATION)]:
                group.step(*generation)
    low, high = (np.concatenate([group.best for group in groups]) * [1, -1]).T
    # converged: no improvement in the last quarter of enough trials
    converged = np.concatenate([(group.last_improve < math.floor(0.75 * group.trials))
                                & (group.trials >= MIN_PLATEAU_TRIALS) for group in groups])
    return low, high, converged


def convex_roof_bounds(rho: DensityOperator, trials: int = 20000, seed: int = 0,
                       order: Optional[float] = None) -> tuple[float, float, bool]:
    """Estimate min and max decomposition averages of a pure-state measure
    on a two-qubit state: the concurrence (also the CREN roof) without an
    ``order``, f_alpha(C^2) at one.

    Returns ``(roof_min, roof_max, converged)``: the min bounds the roof
    from above, the max bounds the assisted value from below.  Interleaves
    Haar exploration with random-rotation refinement of the incumbent
    minimizing and maximizing isometries.  Trial t is a Haar draw
    when t is a multiple of ``EXPLORE_CYCLE`` or before any incumbent exists;
    otherwise it rotates the minimizer (even t) or the maximizer (odd t).
    ``converged`` is true when neither best value improved by more than
    ``PLATEAU_TOL`` during the last quarter of the trials (and the run was
    long enough to judge).  Each decomposition has rank + 2 elements.
    """
    _check_run(trials, seed)
    alphas = None if order is None else np.array([_order(order)])
    if rho.layout.dims != (2, 2):
        raise ValueError(f"the roof takes qubit pairs, got local dimensions {rho.layout.dims}")
    return tuple(column.item() for column in _roof_estimates(
        [(_eigen_ensemble(rho)[None], alphas, trials)], seed))


def _oracle_tables(state, partition, orders, trials: int, seed: int, pair_column) -> list:
    """Each ``_oracle_checks`` check, its codes, columns and rows' alphas."""
    state = GWBlocks.from_state(state)
    _check_run(trials, seed)
    orders = list(map(_order, orders))
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
    checks = _oracle_checks(min(trials, GENERATION), trials, int(seed))
    # one run per distinct pair, then one per distinct order in the e_alpha_formula
    # window: its index by order
    found = {alpha: i for i, alpha in enumerate(
        dict.fromkeys(filter(checks[1].window, orders)), len(rows))}
    low, high, plateau = (np.append(column, math.nan) for column in _roof_estimates([
        (rows, None, min(trials, GENERATION)),
        (np.repeat(rows[[first]], len(found), axis=0), np.array(list(found)), trials)], seed))
    # one row per pair, then one per order: the index of its run, or -1, the
    # last run of NaNs, outside the window
    run = np.concatenate([pair_of, [found.get(alpha, -1) for alpha in orders]]).astype(int)
    plateau[: len(rows)] = high[: len(rows)] - low[: len(rows)] <= PLATEAU_TOL
    low, high, converged = low[run], high[run], plateau[run] == 1.0
    closed = np.concatenate([concurrences[pair_of], [f_alpha(
        float(concurrences[first]) ** 2, o) if o in found else math.nan for o in orders]])
    max_side = np.array([True] * size + [_polygamy(o) or pure[first] for o in orders])
    deviation = np.abs(low - closed)
    deviation = np.where(max_side, np.maximum(
        np.maximum(deviation, np.abs(high - closed)), np.abs(low - high)), deviation)
    verdicts = np.where(converged, np.where(deviation <= AGREEMENT_TOL, _HELD, _FAILED), _UNMET)
    columns = [np.where(run >= 0, verdicts, _OUT), deviation, np.full(len(run), AGREEMENT_TOL),
               AGREEMENT_TOL - deviation, closed, low, high, converged, max_side]
    (pair_codes, *pairs), (order_codes, *renyi) = zip(*[(c[:size], c[size:])
                                                        for c in map(np.ndarray.tolist, columns)])
    pairs[-1] = pair_column(partition.sorted_blocks)  # the pair column, in a, b's order
    return [(checks[0], pair_codes, pairs, [None] * size),
            (checks[1], order_codes, renyi, orders)]


def oracle_reports(state: State | GWBlocks, partition: Partition, orders: Sequence[float] = (),
                   trials: int = 20000, seed: int = 0) -> list[InequalityReport]:
    """One ``c_equals_ca`` report per pair of the partition's blocks, pairs
    (0, 1), (0, 2), ..., (1, 2), ..., then one ``e_alpha_formula`` report per
    order on blocks 0 and 1.

    The state (a pure GWBlocks or GW-tagged dense pure state) becomes block
    weights.  The orders, the block count (two or more), the target count
    (at most ``MAX_ORACLE_TARGETS`` pairs plus orders) and the purity are
    checked first; one ``block_sums`` then gives every block's weight.  One
    ``_pair_rows`` call gives the rows of every distinct ordered weight pair,
    and the roof two stacks: a concurrence run of min(trials, ``GENERATION``)
    trials per distinct pair, a Renyi run of every trial per distinct order,
    none for an order outside the convexity threshold (OUT_OF_WINDOW).  All
    reports are judged at once, as columns: the roof's min against C or
    f_alpha(C^2), and its max too for C, and for f_alpha(C^2) in the
    concavity window or on a pure pair.
    A run that has not converged (a concurrence run's min and max differ by
    more than ``PLATEAU_TOL``, a Renyi run is off its plateau) is
    CONDITION_UNMET."""
    tables = _oracle_tables(state, partition, orders, trials, seed,
                            lambda blocks: list(map(list, combinations(blocks, 2))))
    return [report for table in tables for report in _reports(*table)]


def oracle_lines(state: State | GWBlocks, partition: Partition, orders: Sequence[float] = (),
                 trials: int = 20000, seed: int = 0) -> Iterator[str]:
    """The JSON line of each report of :func:`oracle_reports`: the bytes of
    ``report_to_json_line`` and a newline, made lazily from the same columns
    by ``verify``'s templates; every check and roof runs before this returns."""
    tables = _oracle_tables(state, partition, orders, trials, seed, lambda blocks: [
        f"[{x}, {y}]" for x, y in combinations(map(_json_value, blocks), 2)])  # blocks' text once
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


def verify_e_alpha_formula(state: State | GWBlocks, order: float, trials: int = 20000,
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

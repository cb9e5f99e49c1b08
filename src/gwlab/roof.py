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
batch.  A call draws from two streams of its seed, one of normals and one
of uniforms, and each generation takes a count of draws from each that its
index fixes, however many of its trials run: normals for its Haar trials'
matrices and its moves' angles only; refinement uses only incumbents of
earlier generations, so runs are reproducible and a longer run extends a
shorter one.  The runs of one call share their seed and row count (every
family pair has the same two rows), so one isometry shape, drawn per chunk
of ``DRAW_CHUNK`` generations with one call per stream and one Gram-Schmidt
over the chunk's Haar trials; each slice judges its plateau once per chunk.
Callers hand over stacks of runs of one measure and trial count and get
columns back; a stack advances in lockstep as slices of at most
``GROUP_RUNS``, one step per generation: one gather of every candidate
from each run's pool of incumbent, rotated and Haar rows (none when no run
refines: then the Haar rows are shared), both incumbent sides in one
array, one Renyi kernel call per band of orders.  As sum_k p_k C_k = C on
every decomposition, the oracle runs each pair for one generation only,
and each distinct float order in its ``e_alpha_formula`` check's window
once.

These estimates never override the closed forms; they exist to verify them
from an independent route, and disagreements are reported, not corrected.
"""

from __future__ import annotations

import math
from itertools import accumulate, chain, combinations
from typing import Iterator, Optional, Sequence

import numpy as np

from .inequalities import InequalityReport, _codes, _column, _json_value, _oracle_checks, _reports
from .measures import _band_masks, _canonical_pair, _f_alpha_tables, _lam_lo, _order, _polygamy
from .measures import _renyi_of
from .states import GWBlocks
from .tensor import DensityOperator, Partition, SUPPORT_TOL, State

# unused here; kept only as bench/tracer.py seed import sites (ROADMAP item 1)
from .measures import block_pair_reduction, f_alpha, gw_pairwise_concurrence  # noqa: F401
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


def _streams(seed: int) -> list:
    """A roof call's normal and uniform generators: the seed's first two
    spawned children.  Generation 0 draws its matrices first, from the
    child of spawn key (0,), so its Haar rows are the first normals of the
    seed's (seed, 0) stream."""
    return [np.random.default_rng(child) for child in np.random.SeedSequence(entropy=seed).spawn(2)]


def _haar_isometries(z: np.ndarray) -> np.ndarray:
    """The Haar isometries of complex normal matrices z (n, m, r), in place:
    modified Gram-Schmidt, column by column, which leaves R a positive real
    diagonal, so each is the Q of z = QR with R's diagonal made positive,
    the Haar map of LAPACK's QR with the diag(R)/|diag(R)| phase fix
    (Mezzadri, Notices AMS 54, 592 (2007)).  A column in the span of the
    ones before it has probability 0 under the normal stream; should one
    come, its zero residual raises ``FloatingPointError`` rather than let a
    NaN row reach the step, where a NaN minimum would drop its generation's
    improvements."""
    r = z.shape[2]
    doubles = z.view(float).reshape(*z.shape, 2)
    with np.errstate(divide="raise", invalid="raise"):
        for k in range(r):
            column = z[:, :, k]
            for i in range(k):
                q = z[:, :, i]
                column -= q * np.einsum("nm,nm->n", q.conj(), column)[:, None]
            column /= np.sqrt(np.einsum("nmc,nmc->n", doubles[:, :, k], doubles[:, :, k]))[:, None]
    return z


def _draw_chunk(streams, start: int, stop: int, m: int, r: int) -> list:
    """The randomness of trials start to stop - 1 (start a multiple of
    GENERATION), as one (trials, Haar rows, sources, rotation) tuple per
    generation.

    ``streams`` are the call's normal and uniform generators, at generation
    start // GENERATION.  The trials that refine an incumbent (none in
    generation 0, later those with t % EXPLORE_CYCLE != 0) are a
    generation's moves; the others are its Haar trials.  A generation's
    normals are the complex normal m x r matrices of its Haar trials, then
    one rotation angle per move; its uniforms pick row k (floor(u m)) of
    each of GENERATION trials, then row l (floor(u (m - 1)), skipping k),
    then draw GENERATION phases, read by the moves alone.  Both counts
    depend only on the generation's index, however many of its trials run,
    so chunks drawn in order give the same bits whatever their size; each
    stream is filled by one call per chunk.  The running Haar trials'
    matrices are orthonormalised by ``_haar_isometries``, and a generation's
    Haar rows are theirs.  A move rotates the minimizer (even t) or the
    maximizer.

    A run's pool holds its incumbents' rows (minimizer, then maximizer), then
    GENERATION rotated rows k and GENERATION rotated rows l of the moves, then
    m rows per Haar trial.  ``sources`` are each trial's m pool rows: its
    Haar rows, or its incumbent's rows with rows k and l rotated, so a
    refining trial never reads a Haar row.  The rotation holds the moves'
    pool rows k and l (2, moves) and cos, sin * phase and sin * conj(phase)
    of each move, as columns: k becomes cos k - sin phase l, l becomes
    sin conj(phase) k + cos l.  Every run of shape (m, r) reads these
    arrays, so they are read-only."""
    normals, uniforms = streams
    gens = -(-stop // GENERATION) - start // GENERATION
    t = np.arange(start, start + gens * GENERATION)  # whole generations
    refine = (t % EXPLORE_CYCLE != 0) & (t >= GENERATION)
    seen = np.cumsum(~refine.reshape(gens, GENERATION), axis=1)  # Haar trials so far
    cells = 2 * m * r  # the doubles of a matrix: real and imaginary parts side by side
    # per generation its Haar trials' matrices, then its moves' angles
    ends = list(accumulate(n for h in seen[:, -1].tolist() for n in (h * cells, GENERATION - h)))
    normal = normals.standard_normal(ends[-1])
    parts = [normal[a:b] for a, b in zip([0, *ends], ends)]
    uniform = np.empty((gens, 3, GENERATION))
    uniforms.random(out=uniform)
    size = stop - start
    j = np.flatnonzero(refine[:size])
    matrices, angles = np.concatenate(parts[::2]), np.concatenate(parts[1::2])
    haar = _haar_isometries(matrices[: (size - j.size) * cells].view(complex).reshape(-1, m, r))
    seen = seen.ravel()
    first = np.where(refine, t % 2 * m, 2 * (m + GENERATION) + (seen - 1) * m)
    sources = first[:, None] + np.arange(m)
    u_k, u_l, u_phase = uniform.transpose(1, 0, 2).reshape(3, -1)[:, j]
    row_k, row_l = (u_k * m).astype(int), (u_l * (m - 1)).astype(int)
    row_l += row_l >= row_k
    moved = 2 * m + (t % GENERATION - seen)[j]  # by the move's rank in its generation
    sources[j, row_k], sources[j, row_l] = moved, moved + GENERATION
    angle = REFINE_FLOOR ** np.minimum(1.0, t[j] / REFINE_HORIZON) * angles[: j.size]
    c, s = np.cos(angle)[:, None], np.sin(angle)[:, None]
    phase = np.exp(2j * np.pi * u_phase)[:, None]
    pairs = first[j] + np.array([row_k, row_l])
    factors = (c, s * phase, s * np.conj(phase))
    for array in (t, haar, sources, pairs, *factors):
        array.flags.writeable = False
    bounds = [*range(0, size, GENERATION), size]
    cuts = np.searchsorted(j, bounds).tolist()
    firsts = [b - a for b, a in zip(bounds, cuts)]  # Haar rows before each generation
    return [(t[lo:hi], haar[h0:h1], sources[lo:hi].reshape(-1),
             (pairs[:, a:b], *(x[a:b] for x in factors)))
            for lo, hi, a, b, h0, h1 in zip(bounds, bounds[1:], cuts, cuts[1:], firsts, firsts[1:])]


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
    of the caller's rows (runs, r, 4), each run's pool of candidate rows as
    ``_draw_chunk`` lays it out (only the incumbents' rows if no run
    refines), the incumbent minimizing and maximizing isometries (runs, 2,
    m, r) as a view of the pool, with values (min, -max), the last trial
    that improved either by more than ``PLATEAU_TOL``, and ``bands``: each
    kernel band's runs (a slice when one band has them all) and orders (none
    when ``alphas`` is None: concurrence)."""

    def __init__(self, ensembles: np.ndarray, alphas: Optional[np.ndarray], trials: int):
        self.ensembles, self.trials = ensembles, trials
        size, r = ensembles.shape[:2]
        m = r + 2
        self.shape = (m, r)
        self.best = np.full((size, 2), math.inf)
        moves = GENERATION if trials > GENERATION else 0
        self.pool = np.full((size, 2 * (m + moves) + moves * m, r), np.nan, complex)
        self.iso = self.pool[:, : 2 * m].reshape(size, 2, m, r)
        self.rotated = self.pool[:, 2 * m : 2 * (m + moves)].reshape(size, 2, moves, r)
        self.haar = self.pool[:, 2 * (m + moves) :]
        self.last_improve = np.zeros(size, dtype=int)
        self.runs = np.arange(size)[:, None]
        alphas = np.zeros(0) if alphas is None else alphas
        bands = _band_masks(alphas.tolist())
        self.bands = [(band, slice(None) if len(bands) == 1 else mask, alphas[mask][:, None, None])
                      for band, mask in bands]

    def run(self, generations: list) -> None:
        """Step through a chunk's generations, then judge the plateau once:
        each step leaves each side's best before its generation and its
        values in a (runs, 2, generations, GENERATION + 1) history, +inf
        where no trial ran, and one running minimum per generation finds the
        trials that improved by more than ``PLATEAU_TOL``."""
        history = np.full((len(self.ensembles), 2, len(generations), GENERATION + 1), math.inf)
        for generation, slot in zip(generations, np.moveaxis(history, 2, 0)):
            self.step(*generation, slot)
        prior = np.minimum.accumulate(history, axis=3)
        improved = history[..., 1:] < prior[..., :-1] - PLATEAU_TOL
        t = generations[0][0][0] + np.arange(len(generations) * GENERATION)
        # trials only grow: the last improving one is the largest seen
        np.maximum(self.last_improve, np.maximum.reduce(
            improved * t.reshape(-1, GENERATION), axis=(1, 2, 3)), out=self.last_improve)

    def step(self, t: np.ndarray, haar: np.ndarray, sources: np.ndarray, rotation,
             history: np.ndarray) -> None:
        """Evaluate trials t.  If any refines, the Haar rows and the rotated
        incumbent rows go into the pool and one ``take`` of ``sources``
        gathers every candidate; otherwise the Haar rows are the candidates.
        A Renyi run's values are sums of weight * f_alpha(C^2) over each
        trial's component rows, with weights from one product over the rows'
        doubles, C from one masked divide and the sum folded in place.
        Both sides are minima, the maximizer's of negated values (exact: the
        same tests and first indices).  Each side's best before the
        generation and its values go into the run's ``history`` slot (runs,
        2, GENERATION + 1), from which ``run`` judges the plateau."""
        size = len(self.ensembles)
        m, r = self.shape
        pairs, c, s_phase, s_conj = rotation
        if pairs.size:
            self.haar[:, : len(haar) * m] = haar.reshape(-1, r)
            # rows k and l as fresh (runs, moves, r) arrays times (moves, 1)
            # columns: numpy's complex product rounds by memory layout, and
            # the pins hold the roof to this one
            a, b = self.pool.take(pairs[0], axis=1), self.pool.take(pairs[1], axis=1)
            # a unitary mix of rows k and l keeps the columns orthonormal
            rotated = self.rotated[:, :, : pairs.shape[1]]
            np.subtract(c * a, s_phase * b, out=rotated[:, 0])
            np.add(s_conj * a, c * b, out=rotated[:, 1])
            candidates = self.pool.take(sources, axis=1)
        else:
            candidates = np.broadcast_to(haar.reshape(-1, r), (size, len(haar) * m, r))
        # per run, one 2-D product over every component row of the generation
        rows = (candidates @ self.ensembles).reshape(size, -1, m, 4)
        # a pure two-qubit component has concurrence (and negativity, so this
        # is the CREN roof too) 2|det| of its amplitudes, Renyi value f_alpha(C^2)
        dets = np.abs(rows[..., 0] * rows[..., 3] - rows[..., 1] * rows[..., 2])
        # each side's best before the generation, then its values
        seq = history[:, :, : len(t) + 1]
        seq[:, :, 0] = self.best
        values = seq[:, 0, 1:]
        if not self.bands:
            np.add.reduce(dets, axis=-1, out=values)
            values *= 2.0
        else:
            doubles = rows.view(float)
            weights = np.einsum("rtkd,rtkd->rtk", doubles, doubles)
            # C = 2|det| / weight; at weight <= 1e-14 the divide is skipped,
            # C^2 is (2|det|)^2 <= weight^2 and the component adds under 1e-14
            np.divide(dets, weights, out=dets, where=weights > 1e-14)
            lo = _lam_lo(np.minimum(1.0, (2.0 * dets) ** 2))
            f = np.empty_like(lo)
            for band, runs, alphas in self.bands:
                f[runs] = _renyi_of(lo[runs])(alphas, band)
            f *= weights
            np.add.reduce(f, axis=-1, out=values)
        np.negative(values, out=seq[:, 1, 1:])
        least = seq.min(axis=2)
        better = least < self.best
        np.copyto(self.best, least, where=better)
        first = seq[:, :, 1:].argmin(axis=2)
        np.copyto(self.iso, candidates.reshape(size, -1, m, r)[self.runs, first],
                  where=better[..., None, None])


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
    streams = _streams(seed)
    for start in range(0, stop, span):
        chunk = _draw_chunk(streams, start, min(stop, start + span), *groups[0].shape)
        for group in (group for group in groups if group.trials > start):
            group.run(chunk[: -((start - group.trials) // GENERATION)])
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
    # each run's closed form: C, or f_alpha(C^2) from one table (bit-equal to f_alpha)
    tables = _f_alpha_tables([float(concurrences[first]) ** 2], list(found), max(1, len(found)))
    closed = np.concatenate([concurrences, *(table[:, 0] for table in tables), [math.nan]])[run]
    max_side = np.array([True] * size + [_polygamy(o) or pure[first] for o in orders])
    deviation = np.abs(low - closed)
    deviation = np.where(max_side, np.maximum(
        np.maximum(deviation, np.abs(high - closed)), np.abs(low - high)), deviation)
    columns = [column.tolist() for column in (deviation, np.full(len(run), AGREEMENT_TOL),
               AGREEMENT_TOL - deviation, closed, low, high, converged, max_side)]
    # the slack it prints decides: deviation <= AGREEMENT_TOL is slack >= -0.0
    codes = _codes((run >= 0).tolist(), columns[6], columns[2], 0.0)
    (pair_codes, *pairs), (order_codes, *renyi) = zip(*[(c[:size], c[size:])
                                                        for c in [codes, *columns]])
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
    blocks = Partition.of(blocks or ({0}, range(1, len(state.weights))), len(state.weights))
    return oracle_reports(state, blocks, (), trials, seed)[0]


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
    blocks = Partition.of(blocks or ({0}, range(1, len(state.weights))), len(state.weights))
    return oracle_reports(state, blocks, [order], trials, seed)[-1]

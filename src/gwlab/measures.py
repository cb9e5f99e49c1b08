"""Entanglement quantifiers and the closed forms valid on the GW family.

On generalized W-class states (including vacuum superpositions, mixtures and
their reductions) every bipartite block reduction is, after compressing the
local supports, a two-qubit state with no doubly-excited population.  That
makes the pairwise concurrences exactly computable and pins the one-to-rest
convex-roof values through the additivity of squared pairwise concurrence.
The Renyi-order map ``f_alpha`` then turns squared concurrence into the
Renyi entanglement for Schmidt-rank-2 states.  An order is a float:
``_order`` checks it, and ``_monogamy`` and ``_polygamy`` are its windows.

Every family closed form is scalar arithmetic on the excitation
probabilities t_k of a :class:`GWBlocks`; only a pure member's canonical
pair also reads the vacuum population w.  It takes a :class:`GWBlocks` or a
GW-tagged dense state, which :meth:`GWBlocks.from_state` turns into block
weights once, at entry.  The dense measures (``concurrence_pure``,
``concurrence_two_qubit``, ``negativity``) work on the arrays themselves:
they are the reference the weight forms are tested against.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .states import GWBlocks
from .tensor import (
    DensityOperator,
    Partition,
    PureState,
    State,
    SchmidtSpectrum,
    SubsystemLayout,
    coarse_grain_state,
    partial_transpose,
    schmidt_spectrum,
    trace_norm,
)

# unused; the benchmark tracer expects these import sites (ROADMAP item 1)
from .tensor import compress_local_support, partial_trace  # noqa: F401

__all__ = [
    "ALPHA_MONOGAMY_MIN",
    "ALPHA_POLYGAMY_MAX",
    "DomainError",
    "ApplicabilityError",
    "FindingError",
    "f_alpha",
    "g_alpha",
    "renyi_entropy",
    "concurrence_pure",
    "concurrence_two_qubit",
    "negativity",
    "block_pair_reduction",
    "gw_pairwise_concurrence",
    "gw_one_to_rest_concurrence_sq",
    "cut_spectrum",
    "renyi_entanglement_gw",
    "cren_gw",
]

#: Orders at or above this threshold make f_alpha^2 convex (monogamy regime).
ALPHA_MONOGAMY_MIN = (math.sqrt(7.0) - 1.0) / 2.0
#: Upper edge of the window where f_alpha itself is concave (polygamy regime).
ALPHA_POLYGAMY_MAX = (math.sqrt(13.0) - 1.0) / 2.0

#: Orders within this distance of 1 use the von Neumann limit.
VON_NEUMANN_BAND = 1e-6
#: Orders this close to 1 (outside the von Neumann band) take sum(lambda^alpha)-1
#: through expm1; the plain Renyi quotient loses about eps / |1 - alpha| there.
EXPM1_BAND = 1e-3

_LN2 = math.log(2.0)

#: Squared-concurrence sums may overshoot 1 by float noise only.
F_DOMAIN_SLACK = 1e-9
#: Values per slice of an ``_f_alpha_tables`` table, whatever the table's length.
KERNEL_CHUNK = 2**16


class DomainError(ValueError):
    """Argument outside the mathematical domain of a closed form."""


class ApplicabilityError(ValueError):
    """Renyi order outside the window where a closed form is proven."""


class FindingError(RuntimeError):
    """A proven identity failed numerically; surfaced for review, never hidden."""


def _order(alpha: float) -> float:
    """A Renyi order as a float, refused unless positive and finite."""
    a = float(alpha)
    if not math.isfinite(a) or a <= 0.0:
        raise ValueError(f"Renyi order must be positive and finite, got {a}")
    return a


def _monogamy(alpha: float) -> bool:
    return alpha >= ALPHA_MONOGAMY_MIN


def _polygamy(alpha: float) -> bool:
    return ALPHA_MONOGAMY_MIN <= alpha <= ALPHA_POLYGAMY_MAX


def _band(alpha: float) -> int:
    """The kernel branch of an order: 0 von Neumann, 1 expm1, 2 elsewhere."""
    gap = abs(alpha - 1.0)
    return 0 if gap < VON_NEUMANN_BAND else 1 if gap < EXPM1_BAND else 2


def _band_masks(alphas: Sequence[float]) -> list[tuple[int, np.ndarray]]:
    """Each kernel band among the orders ``alphas``, with the mask of its
    orders: one kernel call serves a band."""
    bands = np.array([_band(a) for a in alphas])
    return [(band, bands == band) for band in set(bands.tolist())]


def _renyi_of(lo, minor=None) -> Callable:
    """Renyi entropy in bits of spectra whose largest coefficient is 1 - lo,
    as a function of the order, with the arrays that no order changes made
    once.

    ``minor`` holds the other coefficients along its last axis (by default
    ``lo``: rank 2).  The order ``a`` is one order, or a column of orders in
    one ``band``, which picks the branch: the von Neumann limit,
    log1p(sum lambda expm1((a-1) ln lambda)) (the plain quotient loses about
    eps / |1 - a| there), or (a log1p(-lo) + log1p(sum (lambda/(1-lo))^a)) /
    (1-a), which cannot underflow.  ``np.power`` keeps a 0-d call bit-equal
    to the same element of an array call."""
    hi, log_hi = 1.0 - lo, np.log1p(-lo)
    lam = lo if minor is None else minor

    def total(terms):
        return terms if minor is None else terms.sum(axis=-1)

    def log(lam):  # a zero coefficient contributes nothing
        return np.log(np.where(lam > 0.0, lam, 1.0))

    def renyi(a, band: Optional[int] = None):
        band = _band(a) if band is None else band
        if band == 2:
            return (a * log_hi + np.log1p(total(np.power(lam / hi, a)))) / ((1.0 - a) * _LN2)
        if band == 0:
            return (-total(lam * log(lam)) - hi * log_hi) / _LN2
        excess = total(lam * np.expm1((a - 1.0) * log(lam)))
        return np.log1p(excess + hi * np.expm1((a - 1.0) * log_hi)) / ((1.0 - a) * _LN2)

    # above order 1 a zero entropy is 0.0 / (1 - a) = -0.0; adding 0.0 makes
    # it 0.0 and leaves every other value as it is
    return lambda a, band=None: renyi(a, band) + 0.0


def _lam_lo(x):
    """The smaller Schmidt coefficient (1 - sqrt(1-x))/2 of a rank-2 state
    with squared concurrence x in [0, 1], free of that form's cancellation."""
    return x / (2.0 * (1.0 + np.sqrt(1.0 - x)))


def _checked_c2(x) -> np.ndarray:
    """Squared concurrences clamped to [0, 1]; one further outside than
    ``F_DOMAIN_SLACK`` is a domain error, not an extrapolation."""
    x = np.asarray(x, dtype=float)
    outside = ~((x >= -F_DOMAIN_SLACK) & (x <= 1.0 + F_DOMAIN_SLACK))
    if outside.any():
        raise DomainError(f"squared concurrence {x[outside][0]} outside [0, 1]")
    return np.clip(x, 0.0, 1.0)


def f_alpha(x: float, order: float) -> float:
    """Renyi entanglement of a Schmidt-rank-2 state with squared concurrence x.

    The Schmidt coefficients are (1 -+ sqrt(1-x))/2; this is the one-value
    table of ``_f_alpha_tables``, which checks the domain."""
    return next(_f_alpha_tables([float(x)], [_order(order)], 1)).item()


def _f_alpha_tables(c2: np.ndarray, alphas: Sequence[float], step: int) -> Iterator[np.ndarray]:
    """f_alpha (columns) of the squared concurrences ``c2``, at ``step`` orders of alphas (rows)
    at a time.  ``_checked_c2`` and ``_lam_lo`` run once per slice of ``KERNEL_CHUNK`` values,
    and the smaller Schmidt coefficients, one per value, are kept for every table; per table,
    each slice gets the kernel's order-free arrays and one kernel call per band of its orders.
    Past those and the table no temporary outgrows a slice.  Rows are bit-equal to ``f_alpha``."""
    c2, column = np.asarray(c2, dtype=float), np.array(alphas, dtype=float)[:, None]
    slices = [np.s_[a : a + KERNEL_CHUNK] for a in range(0, c2.size, KERNEL_CHUNK)]
    los = [_lam_lo(_checked_c2(c2[part])) for part in slices]
    for start in range(0, len(alphas), step):
        block, bands = column[start : start + step], _band_masks(alphas[start : start + step])
        out = np.empty((len(block), c2.size))
        for part, lo in zip(slices, los):
            renyi = _renyi_of(lo)
            for band, mask in bands:
                out[mask, part] = renyi(block[mask], band)
        yield out


def g_alpha(y: float, order: float) -> float:
    """f_alpha evaluated at the square of an (unsquared) concurrence y."""
    y = float(y)
    if y < -F_DOMAIN_SLACK:
        raise DomainError(f"concurrence {y} is negative")
    return f_alpha(max(y, 0.0) ** 2, order)


def renyi_entropy(
    spectrum: Union[SchmidtSpectrum, DensityOperator], order: float
) -> float:
    """log2(sum lambda_i^alpha)/(1-alpha); von Neumann entropy near alpha=1.

    The largest coefficient enters as one minus the others, as in f_alpha."""
    if isinstance(spectrum, SchmidtSpectrum):
        lams = spectrum.coefficients
    elif isinstance(spectrum, DensityOperator):
        lams = spectrum.eigenvalues()
    else:
        raise TypeError(f"expected SchmidtSpectrum or DensityOperator, got {type(spectrum)}")
    minor = np.sort(lams[lams > 1e-15])[:-1]
    return max(float(_renyi_of(minor.sum(), minor)(_order(order))), 0.0)


def concurrence_pure(psi: PureState, bipartition) -> float:
    """sqrt(2 [1 - Tr rho_A^2]) across the bipartition."""
    lams = schmidt_spectrum(psi, bipartition).coefficients
    purity = float((lams**2).sum())
    return math.sqrt(max(0.0, 2.0 * (1.0 - purity)))


_SIGMA_Y2 = np.kron(
    np.array([[0.0, -1.0j], [1.0j, 0.0]]), np.array([[0.0, -1.0j], [1.0j, 0.0]])
)


def concurrence_two_qubit(rho: DensityOperator) -> float:
    """Two-qubit mixed-state concurrence from the spin-flipped spectrum.

    Computed through the Hermitian form sqrt(rho) rho_tilde sqrt(rho), whose
    eigenvalues equal those of rho rho_tilde but come from a stable
    symmetric eigensolve.
    """
    if rho.layout.dims != (2, 2):
        raise ValueError(f"need a 2x2 qubit pair, got dims {rho.layout.dims}")
    rho_tilde = _SIGMA_Y2 @ rho.matrix.conj() @ _SIGMA_Y2
    evals, evecs = np.linalg.eigh(rho.matrix)
    sqrt_rho = (evecs * np.sqrt(np.clip(evals, 0.0, None))) @ evecs.conj().T
    mu = np.linalg.eigvalsh(sqrt_rho @ rho_tilde @ sqrt_rho)
    mu = np.clip(mu, 0.0, None)
    # null-space noise of order eps would contribute sqrt(eps) after the
    # square root below; a relative floor keeps rank-deficient states exact
    mu[mu < 1e-13 * mu.max()] = 0.0
    mu = np.sqrt(mu)[::-1]
    return max(0.0, float(mu[0] - mu[1] - mu[2] - mu[3]))


def negativity(state: State, bipartition) -> float:
    """Trace norm of the partial transpose minus one, clamped at zero."""
    two_party = coarse_grain_state(
        state, Partition.cut(bipartition, state.layout.n_parties, complete=True))
    if isinstance(two_party, PureState):
        two_party = two_party.density()
    return max(0.0, trace_norm(partial_transpose(two_party, 0)) - 1.0)


def block_pair_reduction(
    state: State | GWBlocks, block_a: Iterable[int], block_b: Iterable[int]
) -> DensityOperator:
    """The canonical qubit pair (:func:`_canonical_pair`) of two blocks of a
    pure family member, block a first: the compressed dense pair up to a
    local unitary.  A mixture has the same weights but lacks the sqrt(w)
    coherence, so a state that is not pure is refused."""
    state = GWBlocks.from_state(state)
    pair = Partition.of([block_a, block_b], len(state.weights))
    t_a, t_b = pair.block_sums(state.weights).tolist()
    if not state.pure:
        raise ValueError("a block pair needs a pure state")
    phi, r = _canonical_pair(state.vacuum_weight, t_a, t_b)
    matrix = np.outer(phi, phi) + np.diag([r, 0.0, 0.0, 0.0])
    return DensityOperator(matrix, SubsystemLayout((2, 2)), gw=True)


def _canonical_pair(w: float, t_a, t_b) -> tuple[np.ndarray, np.ndarray]:
    """phi = sqrt(w)|00> + sqrt(t_b)|01> + sqrt(t_a)|10> and r = 1-w-t_a-t_b
    (at least 0): two blocks of a pure member with vacuum weight w, weighing
    t_a and t_b, reduce to |phi><phi| + r|00><00|.  Elementwise on arrays of
    t_a and t_b: phi gains a last axis of length 4."""
    phi = np.sqrt(np.stack(np.broadcast_arrays(w, t_b, t_a, 0.0), axis=-1))
    return phi, np.maximum(0.0, 1.0 - w - t_a - t_b)


def gw_pairwise_concurrence(
    state: State | GWBlocks, block_s: Iterable[int], block_k: Iterable[int]
) -> float:
    """Concurrence 2 sqrt(t_S t_K) between two blocks of a GW-family state."""
    weights = GWBlocks.from_state(state).weights
    t_s, t_k = Partition.of([block_s, block_k], len(weights)).block_sums(weights).tolist()
    return 2.0 * math.sqrt(t_s * t_k)


def _pair_table(t: Sequence[float], s: int) -> np.ndarray:
    """``(C^2(s|rest), C^2(s, k)...)`` of the block weights ``t``: the pair
    table ``(4 t_s) t_k`` over the other blocks k, after its sum added left
    to right by ``np.add.accumulate``.  Every checker reads its squared
    concurrences from here."""
    t = np.asarray(t, dtype=float)
    if not 0 <= s < len(t):
        raise IndexError(f"block index {s} out of range")
    if len(t) < 2:
        raise ValueError("partition needs at least two blocks")
    pair_sq = (4.0 * t[s]) * np.concatenate((t[:s], t[s + 1 :]))
    return np.concatenate((np.add.accumulate(pair_sq)[-1:], pair_sq))


def gw_one_to_rest_concurrence_sq(
    state: State | GWBlocks, partition: Partition, s: int
) -> float:
    """C^2 = 4 t_S t_R of block s against the rest R, as the sum of the pair
    table 4 t_S t_K over the other blocks K, added left to right."""
    return float(_pair_table(partition.block_sums(GWBlocks.from_state(state).weights), s)[0])


def cut_spectrum(state: State | GWBlocks, bipartition) -> SchmidtSpectrum:
    """Schmidt spectrum of a pure family member across a cut of all its
    parties.

    The cut has Schmidt rank at most two, with lambda_0 lambda_1 = C^2 / 4
    and C^2 = 4 t_A t_B; the smaller coefficient comes from
    ``_lam_lo``, as in f_alpha.
    """
    state = GWBlocks.from_state(state)
    if not state.pure:
        raise ValueError("a Schmidt spectrum needs a pure state")
    cut = Partition.cut(bipartition, len(state.weights), complete=True)
    t_a, t_b = cut.block_sums(state.weights).tolist()
    c2 = min(4.0 * t_a * t_b, 1.0)
    minor = _lam_lo(c2)
    return SchmidtSpectrum([1.0 - minor, minor])


def renyi_entanglement_gw(
    state: State | GWBlocks, partition: Partition, s: int, order: float
) -> float:
    """Renyi entanglement of block s against the rest via f_alpha(C^2)."""
    order = _order(order)
    if not _monogamy(order):
        raise ApplicabilityError(
            f"order {order} below the threshold {ALPHA_MONOGAMY_MIN:.10f}"
        )
    return f_alpha(gw_one_to_rest_concurrence_sq(state, partition, s), order)


def cren_gw(state: State | GWBlocks, bipartition) -> float:
    """Convex-roof extended negativity between two blocks of a GW state.

    On this family CREN coincides with the pairwise concurrence, because all
    pure states in the optimal decompositions have Schmidt rank two.
    """
    state = GWBlocks.from_state(state)
    return gw_pairwise_concurrence(state, *Partition.cut(bipartition, len(state.weights)).blocks)

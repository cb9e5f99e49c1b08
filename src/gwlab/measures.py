"""Entanglement quantifiers and the closed forms valid on the GW family.

On generalized W-class states (including vacuum superpositions, mixtures and
their reductions) every bipartite block reduction is, after compressing the
local supports, a two-qubit state with no doubly-excited population.  That
makes the pairwise concurrences exactly computable and pins the one-to-rest
convex-roof values through the additivity of squared pairwise concurrence.
The Renyi-order map ``f_alpha`` then turns squared concurrence into the
Renyi entanglement for Schmidt-rank-2 states.

Each family closed form takes a dense state or a :class:`GWBlocks`.  On a
GWBlocks it is scalar arithmetic on the block weights; on a dense state it
is computed from the reductions, the reference the weights are tested
against.  The argument type alone selects the path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Union

import numpy as np

from .states import FamilyState, GWBlocks
from .tensor import (
    DensityOperator,
    Partition,
    PureState,
    State,
    SchmidtSpectrum,
    _memoized,
    coarse_grain_state,
    compress_local_support,
    partial_trace,
    partial_transpose,
    schmidt_spectrum,
    trace_norm,
)

__all__ = [
    "ALPHA_MONOGAMY_MIN",
    "ALPHA_POLYGAMY_MAX",
    "RenyiOrder",
    "MeasureValue",
    "ConcurrenceSplit",
    "DomainError",
    "ApplicabilityError",
    "ProvenanceError",
    "FindingError",
    "f_alpha",
    "g_alpha",
    "renyi_entropy",
    "concurrence_pure",
    "concurrence_two_qubit",
    "linear_entropy",
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

#: Squared-concurrence sums may overshoot 1 by float noise only.
F_DOMAIN_SLACK = 1e-9

#: Direct and pairwise-sum one-to-rest values must agree this tightly.
ADDITIVITY_TOL = 1e-9


class DomainError(ValueError):
    """Argument outside the mathematical domain of a closed form."""


class ApplicabilityError(ValueError):
    """Renyi order outside the window where a closed form is proven."""


class ProvenanceError(ValueError):
    """Closed form requested on a state without GW provenance."""


class FindingError(RuntimeError):
    """A proven identity failed numerically; surfaced for review, never hidden."""


@dataclass(frozen=True)
class RenyiOrder:
    """Positive Renyi order with its applicability window classification."""

    alpha: float

    def __post_init__(self):
        a = float(self.alpha)
        if not np.isfinite(a) or a <= 0.0:
            raise ValueError(f"Renyi order must be positive, got {a}")
        object.__setattr__(self, "alpha", a)

    @property
    def supports_monogamy(self) -> bool:
        return self.alpha >= ALPHA_MONOGAMY_MIN

    @property
    def supports_polygamy(self) -> bool:
        return ALPHA_MONOGAMY_MIN <= self.alpha <= ALPHA_POLYGAMY_MAX

    @property
    def near_one(self) -> bool:
        return abs(self.alpha - 1.0) < VON_NEUMANN_BAND


OrderLike = Union[RenyiOrder, float, int]


def _as_order(order: OrderLike) -> RenyiOrder:
    return order if isinstance(order, RenyiOrder) else RenyiOrder(float(order))


@dataclass(frozen=True)
class MeasureValue:
    """A nonnegative measure value with its kind and computation method."""

    value: float
    kind: str
    method: str

    KINDS = (
        "concurrence",
        "negativity",
        "cren",
        "renyi_ent",
        "linear_entropy",
    )
    METHODS = ("closed_form", "two_qubit_formula", "block_weights", "oracle")

    def __post_init__(self):
        v = float(self.value)
        if v < -1e-9:
            raise ValueError(f"measure value {v} is negative")
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown measure kind {self.kind!r}")
        if self.method not in self.METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        object.__setattr__(self, "value", max(v, 0.0))


def f_alpha(x: float, order: OrderLike) -> float:
    """Renyi entanglement of a Schmidt-rank-2 state with squared concurrence x.

    The two Schmidt coefficients are (1 -+ sqrt(1-x))/2.  Near order 1 the
    von Neumann limit (binary entropy) is used, and just outside that band an
    expm1/log1p form keeps full precision.  Inputs in (1, 1+1e-9] clamp
    to 1; anything larger is a domain error rather than an extrapolation.
    """
    order = _as_order(order)
    x = float(x)
    if x > 1.0 + F_DOMAIN_SLACK or x < -F_DOMAIN_SLACK:
        raise DomainError(f"squared concurrence {x} outside [0, 1]")
    x = min(max(x, 0.0), 1.0)
    lam_lo = (1.0 - math.sqrt(1.0 - x)) / 2.0
    lam_hi = 1.0 - lam_lo
    if order.near_one:
        ent = 0.0
        for lam in (lam_lo, lam_hi):
            if lam > 0.0:
                ent -= lam * math.log2(lam)
        return ent
    a = order.alpha
    if abs(1.0 - a) < EXPM1_BAND:
        return _renyi_near_one([lam for lam in (lam_lo, lam_hi) if lam > 0.0], a)
    return math.log2(lam_lo**a + lam_hi**a) / (1.0 - a)


def _renyi_near_one(lams: Iterable[float], a: float) -> float:
    """log2(sum lambda^a) / (1-a) for positive lambdas summing to one, as
    log1p(sum lambda expm1((a-1) ln lambda)): the plain quotient loses about
    eps / |1 - a| for orders within EXPM1_BAND of 1."""
    excess = sum(lam * math.expm1((a - 1.0) * math.log(lam)) for lam in lams)
    return math.log1p(excess) / ((1.0 - a) * math.log(2.0))


def g_alpha(y: float, order: OrderLike) -> float:
    """f_alpha evaluated at the square of an (unsquared) concurrence y."""
    y = float(y)
    if y < -F_DOMAIN_SLACK:
        raise DomainError(f"concurrence {y} is negative")
    return f_alpha(max(y, 0.0) ** 2, order)


def _spectrum_values(spectrum: Union[SchmidtSpectrum, DensityOperator]) -> np.ndarray:
    if isinstance(spectrum, SchmidtSpectrum):
        return spectrum.coefficients
    if isinstance(spectrum, DensityOperator):
        return spectrum.eigenvalues()
    raise TypeError(f"expected SchmidtSpectrum or DensityOperator, got {type(spectrum)}")


def renyi_entropy(
    spectrum: Union[SchmidtSpectrum, DensityOperator], order: OrderLike
) -> MeasureValue:
    """log2(sum lambda_i^alpha)/(1-alpha); von Neumann entropy near alpha=1."""
    order = _as_order(order)
    lams = _spectrum_values(spectrum)
    lams = lams[lams > 1e-15]
    a = order.alpha
    if order.near_one:
        value = float(-(lams * np.log2(lams)).sum())
    elif abs(1.0 - a) < EXPM1_BAND:
        value = _renyi_near_one(lams.tolist(), a)
    else:
        value = float(np.log2((lams**a).sum()) / (1.0 - a))
    return MeasureValue(max(value, 0.0), kind="renyi_ent", method="closed_form")


def concurrence_pure(psi: PureState, bipartition) -> MeasureValue:
    """sqrt(2 [1 - Tr rho_A^2]) across the bipartition."""
    lams = schmidt_spectrum(psi, bipartition).coefficients
    purity = float((lams**2).sum())
    value = math.sqrt(max(0.0, 2.0 * (1.0 - purity)))
    return MeasureValue(value, kind="concurrence", method="closed_form")


_SIGMA_Y2 = np.kron(
    np.array([[0.0, -1.0j], [1.0j, 0.0]]), np.array([[0.0, -1.0j], [1.0j, 0.0]])
)


def concurrence_two_qubit(rho: DensityOperator) -> MeasureValue:
    """Two-qubit mixed-state concurrence from the spin-flipped spectrum.

    Computed through the Hermitian form sqrt(rho) rho_tilde sqrt(rho), whose
    eigenvalues equal those of rho rho_tilde but come from a stable
    symmetric eigensolve.
    """
    if rho.layout.dims != (2, 2):
        raise ValueError(f"need a 2x2 qubit pair, got dims {rho.layout.dims}")
    return _memoized(rho, ("concurrence_two_qubit",), lambda: _concurrence(rho))


def _concurrence(rho: DensityOperator) -> MeasureValue:
    rho_tilde = _SIGMA_Y2 @ rho.matrix.conj() @ _SIGMA_Y2
    evals, evecs = np.linalg.eigh(rho.matrix)
    sqrt_rho = (evecs * np.sqrt(np.clip(evals, 0.0, None))) @ evecs.conj().T
    mu = np.linalg.eigvalsh(sqrt_rho @ rho_tilde @ sqrt_rho)
    mu = np.clip(mu, 0.0, None)
    # null-space noise of order eps would contribute sqrt(eps) after the
    # square root below; a relative floor keeps rank-deficient states exact
    mu[mu < 1e-13 * mu.max()] = 0.0
    mu = np.sqrt(mu)[::-1]
    value = max(0.0, float(mu[0] - mu[1] - mu[2] - mu[3]))
    return MeasureValue(value, kind="concurrence", method="two_qubit_formula")


def linear_entropy(rho: DensityOperator) -> MeasureValue:
    value = max(0.0, 1.0 - rho.purity())
    return MeasureValue(value, kind="linear_entropy", method="closed_form")


def negativity(state: State, bipartition) -> MeasureValue:
    """Trace norm of the partial transpose minus one, clamped at zero."""
    part = Partition.of(bipartition)
    if part.n_blocks != 2:
        raise ValueError("negativity needs a two-block bipartition")
    two_party = coarse_grain_state(state, part)
    if isinstance(two_party, PureState):
        two_party = two_party.density()
    value = trace_norm(partial_transpose(two_party, 0)) - 1.0
    return MeasureValue(max(0.0, value), kind="negativity", method="closed_form")


def _require_gw(state: State, what: str) -> None:
    if not state.gw:
        raise ProvenanceError(
            f"{what} is a closed form for the generalized W-class family; "
            "the input state carries no GW provenance"
        )


def block_pair_reduction(
    state: State, block_a: Iterable[int], block_b: Iterable[int]
) -> DensityOperator:
    """Reduce to two blocks, view them as two parties, compress to qubits.

    On GW-family states the compressed reduction is always a qubit pair; a
    different shape is surfaced as a finding.  The pair is memoized on the
    state per ordered block pair: (a, b) and (b, a) compress differently."""
    block_a = frozenset(int(p) for p in block_a)
    block_b = frozenset(int(p) for p in block_b)
    if block_a & block_b:
        raise ValueError("blocks overlap")
    key = ("block_pair_reduction", block_a, block_b)
    return _memoized(state, key, lambda: _block_pair(state, block_a, block_b))


def _block_pair(
    state: State, block_a: frozenset[int], block_b: frozenset[int]
) -> DensityOperator:
    keep = sorted(block_a | block_b)
    reduced = (
        partial_trace(state, keep)
        if set(keep) != set(range(state.layout.n_parties))
        else state
    )
    remap = {p: i for i, p in enumerate(keep)}
    local = Partition.of(
        [{remap[p] for p in block_a}, {remap[p] for p in block_b}]
    )
    two_party = coarse_grain_state(reduced, local)
    if isinstance(two_party, PureState):
        two_party = two_party.density()
    compressed, layout = compress_local_support(two_party)
    if layout.dims != (2, 2):
        raise FindingError(
            f"block reduction compressed to dims {layout.dims}, not a qubit "
            "pair; the state is outside the GW structure"
        )
    return compressed


def gw_pairwise_concurrence(
    state: FamilyState, block_s: Iterable[int], block_k: Iterable[int]
) -> MeasureValue:
    """Concurrence between two blocks of a GW-family state.

    On block weights this is 2 (1-w) sqrt(s_S s_K).  A dense state is
    coarse-grained to the two blocks, its local supports are compressed to
    qubits and the two-qubit formula applies.
    """
    _require_gw(state, "pairwise concurrence")
    if isinstance(state, GWBlocks):
        block_s, block_k = frozenset(block_s), frozenset(block_k)
        if not block_s or not block_k:
            raise ValueError("blocks must be nonempty")
        if not block_s.isdisjoint(block_k):
            raise ValueError("blocks overlap")
        product = state.block_weight(block_s) * state.block_weight(block_k)
        value = 2.0 * (1.0 - state.vacuum_weight) * math.sqrt(product)
        return MeasureValue(value, kind="concurrence", method="block_weights")
    pair = block_pair_reduction(state, block_s, block_k)
    return concurrence_two_qubit(pair)


class ConcurrenceSplit(NamedTuple):
    """One-to-rest squared concurrence computed two ways, plus the pair table."""

    direct_sq: float
    pair_sum_sq: float
    pair_sq: tuple[float, ...]

    @property
    def value(self) -> float:
        return self.pair_sum_sq


def gw_one_to_rest_concurrence_sq(
    state: FamilyState, partition: Partition, s: int
) -> ConcurrenceSplit:
    """C^2 of block s against the rest, directly and as the pairwise sum.

    On a dense state the two routes must agree within ``ADDITIVITY_TOL``;
    a violation means the state is outside the family where squared
    concurrence is additive and raises :class:`FindingError` instead of
    returning silently.  On block weights both are 4 (1-w)^2 s_S s_R.
    """
    _require_gw(state, "one-to-rest concurrence")
    partition.require_complete(state.layout)
    if not 0 <= s < partition.n_blocks:
        raise IndexError(f"block index {s} out of range")
    block_s = partition.blocks[s]
    rest_blocks = [b for i, b in enumerate(partition.blocks) if i != s]
    if not rest_blocks:
        raise ValueError("partition needs at least two blocks")
    if isinstance(state, GWBlocks):
        return _split_from_weights(state, partition, s)
    rest_union = frozenset().union(*rest_blocks)

    if isinstance(state, PureState):
        direct = concurrence_pure(state, (block_s, rest_union)).value
    else:
        pair = block_pair_reduction(state, block_s, rest_union)
        direct = concurrence_two_qubit(pair).value
    direct_sq = direct**2

    pair_sq = tuple(
        gw_pairwise_concurrence(state, block_s, block_k).value ** 2
        for block_k in rest_blocks
    )
    pair_sum_sq = float(sum(pair_sq))

    if abs(direct_sq - pair_sum_sq) > ADDITIVITY_TOL:
        raise FindingError(
            "squared-concurrence additivity failed: direct "
            f"{direct_sq!r} vs pairwise sum {pair_sum_sq!r} "
            f"(block {s} of {[sorted(b) for b in partition.blocks]})"
        )
    return ConcurrenceSplit(direct_sq, pair_sum_sq, pair_sq)


def _split_from_weights(
    state: GWBlocks, partition: Partition, s: int
) -> ConcurrenceSplit:
    weights = [state.block_weight(block) for block in partition.blocks]
    scale = 4.0 * (1.0 - state.vacuum_weight) ** 2 * weights[s]
    others = weights[:s] + weights[s + 1 :]
    pair_sq = tuple(scale * x for x in others)
    return ConcurrenceSplit(scale * math.fsum(others), float(sum(pair_sq)), pair_sq)


def cut_spectrum(state: FamilyState, bipartition) -> SchmidtSpectrum:
    """Schmidt spectrum of a pure state across a cut of all its parties.

    On block weights the cut has Schmidt rank at most two, with
    lambda_0 lambda_1 = C^2 / 4 and C^2 = 4 (1-w)^2 s_A s_B.  The smaller
    coefficient is computed as C^2 / (2 (1 + sqrt(1 - C^2))), which avoids
    the cancellation in (1 - sqrt(1 - C^2)) / 2.
    """
    if isinstance(state, GWBlocks) and state.pure:
        s_a, s_b = state.merged(Partition.of(bipartition)).weights
        c2 = min(4.0 * (1.0 - state.vacuum_weight) ** 2 * s_a * s_b, 1.0)
        minor = c2 / (2.0 * (1.0 + math.sqrt(1.0 - c2)))
        return SchmidtSpectrum([1.0 - minor, minor])
    if not isinstance(state, PureState):
        raise ValueError("a Schmidt spectrum needs a pure state")
    return schmidt_spectrum(state, bipartition)


def renyi_entanglement_gw(
    state: FamilyState, partition: Partition, s: int, order: OrderLike
) -> MeasureValue:
    """Renyi entanglement of block s against the rest via f_alpha(C^2)."""
    order = _as_order(order)
    if not order.supports_monogamy:
        raise ApplicabilityError(
            f"order {order.alpha} below the threshold {ALPHA_MONOGAMY_MIN:.10f}"
        )
    split = gw_one_to_rest_concurrence_sq(state, partition, s)
    return MeasureValue(
        f_alpha(split.value, order), kind="renyi_ent", method="closed_form"
    )


def cren_gw(state: State, bipartition) -> MeasureValue:
    """Convex-roof extended negativity between two blocks of a GW state.

    On this family CREN coincides with the pairwise concurrence, because all
    pure states in the optimal decompositions have Schmidt rank two.
    """
    _require_gw(state, "CREN")
    blocks = [frozenset(b) for b in bipartition]
    if len(blocks) != 2:
        raise ValueError("CREN needs a two-block bipartition")
    pair = block_pair_reduction(state, blocks[0], blocks[1])
    if pair.rank() > 2:
        raise FindingError(
            f"compressed pair reduction has rank {pair.rank()} > 2; "
            "outside the GW structure"
        )
    value = concurrence_two_qubit(pair).value
    return MeasureValue(value, kind="cren", method="two_qubit_formula")

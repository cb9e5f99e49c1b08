"""Quantum-vs-classical game gap bounds for GW-restricted strategies.

Only the bound arithmetic and the verifiable ingredients feeding it are
implemented: the trace distance from a bipartite pure state to its nearest
aligned product state, the monogamy-derived cap on summed squared Renyi
entanglements, and the final averaged-game gap bound with its comparison
value.  Optimizing the actual game values over POVMs is out of scope.

All logarithms are base 2; the emitted tables record that base.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .inequalities import (
    Applicability,
    InequalityReport,
    _applicable,
    _skipped,
)
from .measures import (
    FindingError,
    OrderLike,
    _as_order,
    cut_spectrum,
    f_alpha,
    gw_one_to_rest_concurrence_sq,
    gw_pairwise_concurrence,
    renyi_entropy,
)
from .states import FamilyState
from .tensor import Partition, PureState, bipartition_matrix, require_dense

# unused; the benchmark tracer expects this import site (ROADMAP item 1)
from .tensor import schmidt_spectrum  # noqa: F401

__all__ = [
    "LOG_BASE",
    "GameBoundInput",
    "GapBoundResult",
    "trace_distance_to_vacuum",
    "check_trace_bound_renyi",
    "game_gap_fn",
    "game_gap_endpoint",
    "game_gap_grid_min",
    "gap_bound",
    "check_monogamy_cap",
]

#: Base of every logarithm in the bound formulas, recorded in CSV output.
LOG_BASE = 2


@dataclass(frozen=True)
class GameBoundInput:
    """Player count n and the dimension d of the shared party."""

    n: int
    d: int

    def __post_init__(self):
        n, d = int(self.n), int(self.d)
        if n < 1:
            raise ValueError(f"player count must be >= 1, got {n}")
        if d < 2:
            raise ValueError(f"dimension must be >= 2, got {d}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "d", d)


@dataclass(frozen=True)
class GapBoundResult:
    new_bound: float
    reference_bound: float
    tighter: bool

    def __post_init__(self):
        if self.new_bound <= 0 or self.reference_bound <= 0:
            raise ValueError("bounds must be positive")


def trace_distance_to_vacuum(psi: PureState, bipartition) -> float:
    """Trace distance from |psi><psi| to its leading aligned product state.

    Computed two ways: a closed form 2 sqrt(1 - lambda_0) with lambda_0 the
    largest Schmidt coefficient, and an explicit eigensolve of the rank-two
    difference operator.  The two must agree within 1e-9.
    """
    mat = bipartition_matrix(psi, bipartition)
    u, s, vh = np.linalg.svd(mat)
    lam0 = float(s[0]) ** 2
    closed = 2.0 * math.sqrt(max(0.0, 1.0 - lam0))

    vec = mat.reshape(-1)
    require_dense(vec.size, square=True)
    aligned = np.outer(u[:, 0], vh[0, :]).reshape(-1)
    diff = np.outer(vec, vec.conj()) - np.outer(aligned, aligned.conj())
    eigensolve = float(np.abs(np.linalg.eigvalsh(diff)).sum())
    if abs(eigensolve - closed) > 1e-9:
        raise FindingError(
            f"trace-distance paths disagree: eigensolve {eigensolve!r} vs "
            f"closed form {closed!r}"
        )
    return closed


def check_trace_bound_renyi(
    psi: FamilyState, order: OrderLike, bipartition=None, tol: float = 1e-9
) -> InequalityReport:
    """Distance to the aligned product state is at most 2 sqrt(2 E_alpha).

    The distance is 2 sqrt(1 - lambda_0), taken as the weight of the Schmidt
    coefficients below the largest so that no cancellation enters."""
    order = _as_order(order)
    if bipartition is None:
        bipartition = ({0}, set(range(1, psi.layout.n_parties)))
    params = {"alpha": order.alpha}
    if order.alpha < 1.0:
        return _skipped("trace_bound_renyi", Applicability.OUT_OF_WINDOW, params)
    spectrum = cut_spectrum(psi, bipartition)
    lam0 = float(spectrum.coefficients[0])
    lhs = 2.0 * math.sqrt(float(spectrum.coefficients[1:].sum()))
    entanglement = renyi_entropy(spectrum, order).value
    rhs = 2.0 * math.sqrt(2.0 * entanglement)
    params["lambda0"] = lam0
    return _applicable("trace_bound_renyi", lhs, rhs, "le", tol, params)


def game_gap_fn(lambda0: float, order: OrderLike, d: int = 2) -> float:
    """-2 log2[l^a + (1-l)^a] - (1-l)(a-1), the scalar behind the pure-state
    trace bound.

    Nonnegative on lambda0 in [1/d, 1] for Schmidt rank at most two; use
    :func:`game_gap_grid_min` to scan that domain.
    """
    order = _as_order(order)
    a = order.alpha
    if a < 1.0:
        raise ValueError(f"order must be >= 1, got {a}")
    lam = float(lambda0)
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda0 must lie in [0, 1], got {lam}")
    if int(d) < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    inner = lam**a + (1.0 - lam) ** a
    return -2.0 * math.log2(inner) - (1.0 - lam) * (a - 1.0)


def game_gap_endpoint(d: int, order: OrderLike) -> float:
    """Endpoint value -log2[1+(d-1)^a] + a log2 d - (d-1)(a-1)/d.

    Lower-bounds ``game_gap_fn(1/d, order, d)`` for d >= 2 and orders >= 1.
    At d = 2 (the Schmidt-rank-2 regime) it equals (a-1)/2, so it certifies
    the gap function's nonnegativity at that endpoint; for d >= 3 it can go
    negative even though the gap function itself stays positive.
    """
    order = _as_order(order)
    a = order.alpha
    d = int(d)
    if a < 1.0:
        raise ValueError(f"order must be >= 1, got {a}")
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    return -math.log2(1.0 + (d - 1) ** a) + a * math.log2(d) - (d - 1) * (a - 1.0) / d


def game_gap_grid_min(
    d: int = 2,
    lambda_step: float = 0.001,
    alpha_start: float = 1.0,
    alpha_stop: float = 5.0,
    alpha_step: float = 0.05,
) -> float:
    """Minimum of the gap function over lambda0 in [1/d, 1] and the order grid."""
    lams = np.arange(1.0 / d, 1.0 + lambda_step / 2, lambda_step)
    lams = np.clip(lams, 0.0, 1.0)
    alphas = np.arange(alpha_start, alpha_stop + alpha_step / 2, alpha_step)
    best = math.inf
    for a in alphas:
        inner = lams**a + (1.0 - lams) ** a
        values = -2.0 * np.log2(inner) - (1.0 - lams) * (a - 1.0)
        best = min(best, float(values.min()))
    return best


def gap_bound(inp: GameBoundInput) -> GapBoundResult:
    """Averaged-game gap bound 2 sqrt(2) n^(-1/4) (log2 d)^(1/2) against the
    reference 3.1 n^(-1/4) d (log2 d)^(1/4).

    The new bound does not depend on the Renyi order used to derive it.  For
    every d >= 2 the comparison d >= (log2 d)^(1/4) holds, so the new bound
    is expected tighter.
    """
    n, d = inp.n, inp.d
    log_d = math.log2(d)
    if d ** 4 < log_d:
        raise FindingError(f"comparison d >= (log2 d)^(1/4) failed for d={d}")
    scale = n ** -0.25
    new_bound = 2.0 * math.sqrt(2.0) * scale * math.sqrt(log_d)
    reference = 3.1 * scale * d * log_d**0.25
    return GapBoundResult(
        new_bound=new_bound,
        reference_bound=reference,
        tighter=bool(new_bound < reference),
    )


def check_monogamy_cap(
    state: FamilyState,
    partition: Partition,
    order: OrderLike,
    tol: float = 1e-9,
) -> InequalityReport:
    """Summed squared pairwise entanglements <= squared one-to-rest value
    <= (log2 d)^2, with d the dimension of the first block."""
    order = _as_order(order)
    partition.require_complete(state.layout)
    alice = partition.blocks[0]
    d_alice = math.prod(state.layout.dims[p] for p in sorted(alice))
    params = {
        "alpha": order.alpha,
        "d": d_alice,
        "partition": [sorted(b) for b in partition.blocks],
    }
    if not order.supports_monogamy:
        return _skipped("monogamy_cap", Applicability.OUT_OF_WINDOW, params)
    split = gw_one_to_rest_concurrence_sq(state, partition, 0)
    middle = f_alpha(split.value, order) ** 2
    lhs = sum(
        f_alpha(
            gw_pairwise_concurrence(state, alice, block).value ** 2, order
        )
        ** 2
        for block in partition.blocks[1:]
    )
    cap = math.log2(d_alice) ** 2
    params["middle"] = middle
    slack = min(middle - lhs, cap - middle)
    return InequalityReport(
        name="monogamy_cap",
        lhs=float(lhs),
        rhs=float(cap),
        slack=float(slack),
        satisfied=bool(slack >= -tol),
        applicability=Applicability.APPLICABLE,
        params=params,
    )

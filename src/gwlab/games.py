"""Quantum-vs-classical game gap bounds for GW-restricted strategies.

Only the bound arithmetic and the verifiable ingredients feeding it are
implemented: the trace distance from a bipartite pure state to its nearest
aligned product state, the monogamy-derived cap on summed squared Renyi
entanglements, and the final averaged-game gap bound with its comparison
value.  Optimizing the actual game values over POVMs is out of scope.  The
cap and the trace bound are prepared in ``inequalities``, for its suite.

All logarithms are base 2; the emitted tables record that base.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .inequalities import InequalityReport, _monogamy_cap, _trace_bound_renyi
from .measures import FindingError, _order, _pair_table, _renyi_of
from .states import GWBlocks
from .tensor import Partition, PureState, State, bipartition_matrix, require_dense

# unused; the benchmark tracer expects these import sites (ROADMAP item 1)
from .measures import (  # noqa: F401
    f_alpha, gw_one_to_rest_concurrence_sq, gw_pairwise_concurrence, renyi_entropy,
)
from .tensor import schmidt_spectrum  # noqa: F401

__all__ = [
    "LOG_BASE",
    "trace_distance_to_vacuum",
    "check_trace_bound_renyi",
    "game_gap_fn",
    "game_gap_grid_min",
    "gap_bound",
    "check_monogamy_cap",
]

#: Base of every logarithm in the bound formulas, recorded in CSV output.
LOG_BASE = 2


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
    psi: State | GWBlocks, order: float, bipartition=None
) -> InequalityReport:
    """Distance to the aligned product state is at most 2 sqrt(2 E_alpha).

    The state must be pure, and its cut has Schmidt rank two.  The distance
    is 2 sqrt(1 - lambda_0), taken as the smaller Schmidt coefficient of the
    cut's C^2 so that no cancellation enters, and E_alpha = f_alpha(C^2).
    The cut is party 0 against the rest unless ``bipartition`` names one."""
    psi = GWBlocks.from_state(psi)
    n = len(psi.weights)
    bipartition = ({0}, range(1, n)) if bipartition is None else bipartition
    return _trace_bound_renyi(psi, Partition.cut(bipartition, n, complete=True)).at(order)


def game_gap_fn(lambda0: float, order: float) -> float:
    """-2 log2[l^a + (1-l)^a] - (1-l)(a-1) = (a-1) (2 E_a - (1-l)), with E_a
    the Renyi entropy of (l, 1-l): the scalar behind the pure-state trace bound.

    Nonnegative on lambda0 in [1/2, 1] at every a >= 1, by the gap lemma
    E_a >= E_inf = -log2 lambda0 >= (1-lambda0)/ln 2 and 2/ln 2 > 1.
    """
    a = _order(order)
    if a < 1.0:
        raise ValueError(f"order must be >= 1, got {a}")
    lam = float(lambda0)
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda0 must lie in [0, 1], got {lam}")
    return float(_gap(np.asarray(lam), a))


def _gap(lam, a: float):
    """The gap function elementwise on lambda0 values ``lam`` at order a."""
    return (a - 1.0) * (2.0 * _renyi_of(np.minimum(lam, 1.0 - lam))(a) - (1.0 - lam))


def game_gap_grid_min(
    d: int = 2, lambda_step: float = 0.001, alpha_step: float = 0.05
) -> float:
    """Minimum of the gap function over lambda0 in [1/d, 1] and the orders
    1 to 5 in steps of ``alpha_step``."""
    lams = np.arange(1.0 / d, 1.0 + lambda_step / 2, lambda_step)
    lams = np.clip(lams, 0.0, 1.0)
    alphas = np.arange(1.0, 5.0 + alpha_step / 2, alpha_step)
    return min(float(_gap(lams, a).min()) for a in alphas.tolist())


def gap_bound(n: int, d: int) -> tuple[float, float]:
    """Averaged-game gap bound 2 sqrt(2) n^(-1/4) (log2 d)^(1/2) and the
    reference 3.1 n^(-1/4) d (log2 d)^(1/4), for n >= 1 players sharing a
    party of dimension d >= 2.

    The new bound does not depend on the Renyi order used to derive it.  It
    is the smaller one for every integer d >= 2: log2 d < d gives
    (log2 d)^(1/4) < d^(1/4) <= d, hence (log2 d)^(1/2) < d (log2 d)^(1/4),
    and 2 sqrt(2) < 3.1.
    """
    n, d = int(n), int(d)
    if max(n, d) > sys.float_info.max:
        raise ValueError("player count and dimension must fit a float")
    if n < 1:
        raise ValueError(f"player count must be >= 1, got {n}")
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    log_d = math.log2(d)
    scale = n ** -0.25
    return 2.0 * math.sqrt(2.0) * scale * math.sqrt(log_d), 3.1 * scale * d * log_d**0.25


def check_monogamy_cap(
    state: State | GWBlocks,
    partition: Partition,
    order: float,
) -> InequalityReport:
    """Summed squared pairwise entanglements <= squared one-to-rest value
    <= (log2 d)^2, with d the dimension of the first block."""
    merged = GWBlocks.from_state(state).merged(partition)
    return _monogamy_cap(_pair_table(merged.weights, 0), merged.dims[0]).at(order)

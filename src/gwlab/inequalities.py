"""Monogamy, polygamy, upper-bound and tightened-bound checkers.

Every checker evaluates one inequality on a GW-family state, dense or
:class:`GWBlocks`, and returns an :class:`InequalityReport`.  Applicability
(order windows, side conditions, domain restrictions) is a first-class
result state rather than an error, so grid sweeps produce complete report
streams; genuine violations on applicable instances surface as
``satisfied=False`` and are never swallowed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional

import numpy as np

from .measures import (
    F_DOMAIN_SLACK,
    OrderLike,
    RenyiOrder,
    _as_order,
    cut_spectrum,
    f_alpha,
    gw_one_to_rest_concurrence_sq,
    gw_pairwise_concurrence,
    renyi_entropy,
)
from .states import FamilyState, GWBlocks, GWSpec, reduce_to_parties
from .tensor import Partition

# unused; the benchmark tracer expects these import sites (ROADMAP item 1)
from .states import mix_with_vacuum, purify_mixture  # noqa: F401
from .tensor import partial_trace, schmidt_spectrum  # noqa: F401

__all__ = [
    "Applicability",
    "InequalityReport",
    "TighterParams",
    "CLOSED_FORM_TOL",
    "EIGEN_TOL",
    "h_coefficient",
    "check_scalar_power_bound",
    "check_monogamy_sq",
    "check_monogamy_power",
    "check_polygamy",
    "check_polygamy_power",
    "check_merged_block_upper_bound",
    "check_reoa_triangle",
    "check_upper_bound_bipartition",
    "check_tighter_three",
    "check_tighter_multi",
    "run_mixture_suite",
    "report_to_json_line",
    "report_to_csv_row",
    "CSV_HEADER",
]

#: Default tolerance for inequalities evaluated through scalar closed forms.
CLOSED_FORM_TOL = 1e-9
#: Looser tolerance for paths that pass through dense eigensolves.
EIGEN_TOL = 1e-7
#: Side conditions need at least this margin; borderline cases are reported
#: as unmet with diagnostics rather than guessed.
CONDITION_MARGIN = 1e-12


class Applicability(str, Enum):
    APPLICABLE = "APPLICABLE"
    OUT_OF_WINDOW = "OUT_OF_WINDOW"
    CONDITION_UNMET = "CONDITION_UNMET"
    DOMAIN_SKIPPED = "DOMAIN_SKIPPED"


@dataclass(frozen=True)
class InequalityReport:
    """Uniform checker output: lhs, rhs, signed slack and a verdict.

    ``slack`` is signed along the inequality direction, so ``slack >= -tol``
    means satisfied.  Reports outside the applicable regime carry no numbers
    and are vacuously satisfied; the ``applicability`` tag says why.
    """

    name: str
    lhs: Optional[float]
    rhs: Optional[float]
    slack: Optional[float]
    satisfied: bool
    applicability: Applicability
    params: dict = field(default_factory=dict)


def _applicable(
    name: str, lhs: float, rhs: float, direction: str, tol: float, params: dict
) -> InequalityReport:
    slack = (lhs - rhs) if direction == "ge" else (rhs - lhs)
    return InequalityReport(
        name=name,
        lhs=float(lhs),
        rhs=float(rhs),
        slack=float(slack),
        satisfied=bool(slack >= -tol),
        applicability=Applicability.APPLICABLE,
        params=params,
    )


def _skipped(name: str, why: Applicability, params: dict) -> InequalityReport:
    return InequalityReport(
        name=name,
        lhs=None,
        rhs=None,
        slack=None,
        satisfied=True,
        applicability=why,
        params=params,
    )


CSV_HEADER = ("name", "alpha", "mu", "k", "lhs", "rhs", "slack", "satisfied")


def _csv_num(value) -> str:
    if value is None:
        return ""
    return f"{float(value):.12g}"


def report_to_csv_row(report: InequalityReport) -> tuple[str, ...]:
    return (
        report.name,
        _csv_num(report.params.get("alpha")),
        _csv_num(report.params.get("mu")),
        _csv_num(report.params.get("k")),
        _csv_num(report.lhs),
        _csv_num(report.rhs),
        _csv_num(report.slack),
        str(report.satisfied).lower(),
    )


def report_to_json_line(report: InequalityReport) -> str:
    doc = {
        "name": report.name,
        "lhs": report.lhs,
        "rhs": report.rhs,
        "slack": report.slack,
        "satisfied": report.satisfied,
        "applicability": report.applicability.value,
        "params": report.params,
    }
    return json.dumps(doc, sort_keys=True)


def h_coefficient(k: float, t: float) -> float:
    """Tightening coefficient ((1+k)^t - 1) / k^t for k >= 1, t in [0, 1]."""
    k = float(k)
    t = float(t)
    if k < 1.0:
        raise ValueError(f"k must be >= 1, got {k}")
    if not 0.0 <= t <= 1.0 + 1e-12:
        raise ValueError(f"t must lie in [0, 1], got {t}")
    t = min(t, 1.0)
    return ((1.0 + k) ** t - 1.0) / k**t


def check_scalar_power_bound(
    x: float, k: float, t: float, tol: float = 1e-12
) -> InequalityReport:
    """(1+x)^t >= 1 + h(k, t) x^t for x >= k >= 1 and t in [0, 1]."""
    params = {"x": float(x), "k": float(k), "t": float(t)}
    if not (x >= k >= 1.0 and 0.0 <= t <= 1.0):
        return _skipped("scalar_power_bound", Applicability.CONDITION_UNMET, params)
    lhs = (1.0 + x) ** t
    rhs = 1.0 + h_coefficient(k, t) * x**t
    return _applicable("scalar_power_bound", lhs, rhs, "ge", tol, params)


def _restrict_to_blocks(
    state: FamilyState, blocks: Iterable[Iterable[int]]
) -> tuple[FamilyState, Partition]:
    """Reduce to the union of the blocks and reindex them on the reduction.

    Checkers accept block families that cover only part of the state; the
    quantities they test live on the reduction to the covered parties.
    """
    blocks = [frozenset(int(p) for p in b) for b in blocks]
    union = sorted(frozenset().union(*blocks))
    n = state.layout.n_parties
    if union == list(range(n)):
        return state, Partition.of(blocks)
    reduced = reduce_to_parties(state, union)
    remap = {p: i for i, p in enumerate(union)}
    return reduced, Partition.of([{remap[p] for p in b} for b in blocks])


def _partition_params(partition: Partition, s: int) -> dict:
    return {
        "partition": [sorted(b) for b in partition.blocks],
        "s": int(s),
    }


def _power_relation(
    name: str,
    direction: str,
    state: FamilyState,
    partition: Partition,
    s: int,
    order: OrderLike,
    mu: float,
    tol: float,
) -> InequalityReport:
    """f(C^2(s|rest))^mu against the sum of f(C^2(s, k))^mu over the other
    blocks k; "ge" is checked in the monogamy window, "le" in the polygamy one."""
    order = _as_order(order)
    state, partition = _restrict_to_blocks(state, partition.blocks)
    params = {"alpha": order.alpha, "mu": mu, **_partition_params(partition, s)}
    in_window = (
        order.supports_monogamy if direction == "ge" else order.supports_polygamy
    )
    if not in_window:
        return _skipped(name, Applicability.OUT_OF_WINDOW, params)
    split = gw_one_to_rest_concurrence_sq(state, partition, s)
    lhs = f_alpha(split.pair_sum_sq, order) ** mu
    rhs = sum(f_alpha(c2, order) ** mu for c2 in split.pair_sq)
    return _applicable(name, lhs, rhs, direction, tol, params)


def check_monogamy_sq(
    state: FamilyState,
    partition: Partition,
    s: int,
    order: OrderLike,
    tol: float = CLOSED_FORM_TOL,
) -> InequalityReport:
    """Squared Renyi entanglement of one block against the rest dominates the
    sum of its squared pairwise values."""
    return _power_relation("monogamy_sq", "ge", state, partition, s, order, 2.0, tol)


def check_monogamy_power(
    state: FamilyState,
    partition: Partition,
    s: int,
    order: OrderLike,
    mu: float,
    tol: float = CLOSED_FORM_TOL,
) -> InequalityReport:
    """mu-th power monogamy for mu >= 2."""
    mu = float(mu)
    if mu < 2.0:
        raise ValueError(f"power monogamy needs mu >= 2, got {mu}")
    return _power_relation("monogamy_power", "ge", state, partition, s, order, mu, tol)


def check_polygamy(
    state: FamilyState,
    partition: Partition,
    s: int,
    order: OrderLike,
    tol: float = CLOSED_FORM_TOL,
) -> InequalityReport:
    """Assisted entanglement of one block is bounded by the pairwise sum."""
    return _power_relation("polygamy", "le", state, partition, s, order, 1.0, tol)


def check_polygamy_power(
    state: FamilyState,
    partition: Partition,
    s: int,
    order: OrderLike,
    mu: float,
    tol: float = CLOSED_FORM_TOL,
) -> InequalityReport:
    """mu-th power polygamy for 0 < mu <= 1."""
    mu = float(mu)
    if not 0.0 < mu <= 1.0:
        raise ValueError(f"power polygamy needs mu in (0, 1], got {mu}")
    return _power_relation("polygamy_power", "le", state, partition, s, order, mu, tol)


def _pair_c2(state: FamilyState, block_a, block_b) -> float:
    return gw_pairwise_concurrence(state, block_a, block_b).value ** 2


def _outside_domain(values: Iterable[float]) -> bool:
    return any(a > 1.0 + F_DOMAIN_SLACK for a in values)


def _merged_block_terms(state: FamilyState, block_p, block_q, rest) -> list[float]:
    """[C^2(P,Q)] + [C^2(P,R) for R in rest] + [C^2(Q,R) for R in rest]."""
    terms = [_pair_c2(state, block_p, block_q)]
    terms += [_pair_c2(state, block_p, r) for r in rest]
    terms += [_pair_c2(state, block_q, r) for r in rest]
    return terms


def _merged_block_rhs(terms: list[float], order: RenyiOrder) -> float:
    """2 f(C^2(P,Q)) + sum_R f(C^2(P,R)) + sum_R f(C^2(Q,R))."""
    k = (len(terms) - 1) // 2
    rhs = 2.0 * f_alpha(terms[0], order)
    rhs += sum(f_alpha(a, order) for a in terms[1 : 1 + k])
    rhs += sum(f_alpha(a, order) for a in terms[1 + k :])
    return rhs


def check_merged_block_upper_bound(
    psi: FamilyState,
    block_p: Iterable[int],
    block_q: Iterable[int],
    rest_blocks: Iterable[Iterable[int]],
    order: OrderLike,
    tol: float = CLOSED_FORM_TOL,
) -> InequalityReport:
    """Entanglement across the merged PQ cut of a pure state is bounded by
    twice the PQ term plus all pairwise P/Q-to-rest terms."""
    name = "merged_block_upper_bound"
    order = _as_order(order)
    partition = Partition.of([block_p, block_q, *rest_blocks])
    block_p, block_q, *rest = partition.blocks
    params = {"alpha": order.alpha, "blocks": [sorted(b) for b in partition.blocks]}
    if not rest:
        raise ValueError("need at least one rest block")
    partition.require_complete(psi.layout)
    # raises unless psi is pure, the only case the bound is stated for
    spectrum = cut_spectrum(psi, (block_p | block_q, frozenset().union(*rest)))
    if not order.supports_polygamy:
        return _skipped(name, Applicability.OUT_OF_WINDOW, params)

    terms = _merged_block_terms(psi, block_p, block_q, rest)
    if _outside_domain(terms):
        params["domain"] = [float(a) for a in terms]
        return _skipped(name, Applicability.DOMAIN_SKIPPED, params)

    lams = spectrum.coefficients
    if int(np.count_nonzero(lams > 1e-10)) <= 2:
        c2_cut = max(0.0, 2.0 * (1.0 - float((lams**2).sum())))
        if _outside_domain([c2_cut]):
            params["domain"] = [float(c2_cut)]
            return _skipped(name, Applicability.DOMAIN_SKIPPED, params)
        lhs = f_alpha(c2_cut, order)
    else:
        lhs = renyi_entropy(spectrum, order).value
    return _applicable(name, lhs, _merged_block_rhs(terms, order), "le", tol, params)


def check_reoa_triangle(
    state: FamilyState,
    partition: Partition,
    order: OrderLike,
    tol: float = CLOSED_FORM_TOL,
) -> InequalityReport:
    """Triangle bound among the three one-to-rest values f_alpha(C^2).

    The check runs on the f_alpha(C^2) values of each block against the
    other two.  They are the assisted values exactly when the three blocks
    cover a pure state; on a mixed reduction f_alpha(C^2) is the convex
    roof, only a lower bound on the assisted value.
    """
    order = _as_order(order)
    if partition.n_blocks != 3:
        raise ValueError("triangle bound needs exactly three blocks")
    state, partition = _restrict_to_blocks(state, partition.blocks)
    params = {"alpha": order.alpha, **_partition_params(partition, 0)}
    if not order.supports_polygamy:
        return _skipped("reoa_triangle", Applicability.OUT_OF_WINDOW, params)
    values = [
        f_alpha(gw_one_to_rest_concurrence_sq(state, partition, s).pair_sum_sq, order)
        for s in range(3)
    ]
    return _applicable(
        "reoa_triangle", values[0], values[1] + values[2], "le", tol, params
    )


def check_upper_bound_bipartition(
    state: FamilyState,
    block_p1: Iterable[int],
    block_p2: Iterable[int],
    q_blocks: Iterable[Iterable[int]],
    order: OrderLike,
    tol: float = CLOSED_FORM_TOL,
) -> InequalityReport:
    """Entanglement of the merged P1P2 block against the Q blocks is bounded
    by twice the P1P2 term plus all pairwise P-to-Q terms."""
    name = "pair_block_upper_bound"
    order = _as_order(order)
    qs = [frozenset(b) for b in q_blocks]
    if not qs:
        raise ValueError("need at least one Q block")
    state, partition = _restrict_to_blocks(state, [block_p1, block_p2, *qs])
    p1, p2, *qs = partition.blocks
    params = {"alpha": order.alpha, "blocks": [sorted(b) for b in partition.blocks]}
    if not order.supports_polygamy:
        return _skipped(name, Applicability.OUT_OF_WINDOW, params)
    terms = _merged_block_terms(state, p1, p2, qs)
    merged = Partition.of([p1 | p2, *qs])
    total_sq = gw_one_to_rest_concurrence_sq(state, merged, 0).pair_sum_sq
    if _outside_domain(terms + [total_sq]):
        params["domain"] = [float(a) for a in terms]
        return _skipped(name, Applicability.DOMAIN_SKIPPED, params)
    lhs = f_alpha(total_sq, order)
    return _applicable(name, lhs, _merged_block_rhs(terms, order), "le", tol, params)


@dataclass(frozen=True)
class TighterParams:
    """Exponents of the tightened bounds.

    ``c_pow`` and ``b_pow`` are the concurrence powers (the conditioning and
    the bounded power); they are named that way to avoid any collision with
    the Renyi order.  ``h`` is the derived tightening coefficient.
    """

    c_pow: float
    b_pow: float
    k: float

    def __post_init__(self):
        c, b, k = float(self.c_pow), float(self.b_pow), float(self.k)
        if c < 2.0:
            raise ValueError(f"c_pow must be >= 2, got {c}")
        if not 0.0 <= b <= c:
            raise ValueError(f"b_pow must lie in [0, c_pow], got {b}")
        if k < 1.0:
            raise ValueError(f"k must be >= 1, got {k}")
        object.__setattr__(self, "c_pow", c)
        object.__setattr__(self, "b_pow", b)
        object.__setattr__(self, "k", k)

    @property
    def t(self) -> float:
        return self.b_pow / self.c_pow

    @property
    def h(self) -> float:
        return h_coefficient(self.k, self.t)


_TIGHTER_KINDS = ("concurrence", "cren", "renyi")


def _tighter_sides(
    state: FamilyState,
    partition: Partition,
    split_index: int,
    params: TighterParams,
    measure_kind: str,
    order: Optional[OrderLike],
):
    """Report params and, inside the order window, (lhs, rhs, conditions) of
    the multi-block tightened bound; the sides are None outside the window.

    Blocks are numbered 1..m with P1 distinguished.  ``conditions`` holds the
    chain, index and margin of every side condition in checking order; they
    are stated on the concurrence, which CREN equals on this family.
    """
    if measure_kind not in _TIGHTER_KINDS:
        raise ValueError(f"measure_kind must be one of {_TIGHTER_KINDS}")
    order_obj: Optional[RenyiOrder] = None
    if measure_kind == "renyi":
        if order is None:
            raise ValueError("renyi kind needs a Renyi order")
        order_obj = _as_order(order)
    state, partition = _restrict_to_blocks(state, partition.blocks)
    report_params = {
        "measure": measure_kind,
        "c_pow": params.c_pow,
        "b_pow": params.b_pow,
        "k": params.k,
        "h": params.h,
        **_partition_params(partition, 0),
    }
    if order_obj is not None:
        report_params["alpha"] = order_obj.alpha
        if not order_obj.supports_monogamy:
            return report_params, None

    m = partition.n_blocks
    first = partition.blocks[0]
    # indices follow the 1-based block numbers: pair_c2[i] is C^2(P1, P_i)
    # and suffix_c2[j] is C^2(P1 | P_j ... P_m) through pairwise additivity
    pair_c2 = [None, None] + [_pair_c2(state, first, b) for b in partition.blocks[1:]]
    suffix_c2 = [None, None] + [float(sum(pair_c2[j:])) for j in range(2, m + 1)]
    c_pair = [None, None] + [math.sqrt(c2) for c2 in pair_c2[2:]]
    c_suffix = [None, None] + [math.sqrt(c2) for c2 in suffix_c2[2:]]
    if order_obj is None:
        pair_m, lhs_m = c_pair, c_suffix[2]
    else:
        pair_m = [None, None] + [f_alpha(c2, order_obj) for c2 in pair_c2[2:]]
        lhs_m = f_alpha(suffix_c2[2], order_obj)

    c, k, n = params.c_pow, params.k, split_index
    conditions = [
        {"chain": 1, "index": i, "margin": c_suffix[i + 1] ** c - k * c_pair[i] ** c}
        for i in range(2, n + 1)
    ]
    conditions += [
        {"chain": 2, "index": j, "margin": c_pair[j] ** c - k * c_suffix[j + 1] ** c}
        for j in range(n + 1, m)
    ]
    b, h = params.b_pow, params.h
    lhs = lhs_m**b
    rhs = sum(h ** (i - 2) * pair_m[i] ** b for i in range(2, n + 1))
    rhs += h**n * sum(pair_m[i] ** b for i in range(n + 1, m))
    rhs += h ** (n - 1) * pair_m[m] ** b
    return report_params, (lhs, rhs, conditions)


def check_tighter_three(
    state: FamilyState,
    partition: Partition,
    params: TighterParams,
    measure_kind: str = "concurrence",
    order: Optional[OrderLike] = None,
    tol: float = CLOSED_FORM_TOL,
) -> InequalityReport:
    """Tightened three-block bound: when the P1P3 term dominates k times the
    P1P2 term (in c_pow powers), the one-to-rest value dominates
    M(P1P2)^b + h * M(P1P3)^b.

    The coefficient h attaches to the conditioned-larger P1P3 term.  This is
    the multi-block bound at split index 2; only the recorded params differ.
    """
    if partition.n_blocks != 3:
        raise ValueError("need exactly three blocks")
    name = f"tighter_three_{measure_kind}"
    rparams, sides = _tighter_sides(state, partition, 2, params, measure_kind, order)
    if sides is None:
        return _skipped(name, Applicability.OUT_OF_WINDOW, rparams)
    lhs, rhs, [condition] = sides
    margin = condition["margin"]
    rparams["condition_margin"] = float(margin)
    if margin < CONDITION_MARGIN:
        return _skipped(name, Applicability.CONDITION_UNMET, rparams)
    return _applicable(name, lhs, rhs, "ge", tol, rparams)


def check_tighter_multi(
    state: FamilyState,
    partition: Partition,
    split_index: int,
    params: TighterParams,
    measure_kind: str = "concurrence",
    order: Optional[OrderLike] = None,
    tol: float = CLOSED_FORM_TOL,
) -> InequalityReport:
    """Tightened multi-block bound with geometric h weights.

    Blocks are numbered 1..m with P1 distinguished.  The first condition
    chain (pairs 2..split_index dominated k-fold by their suffix rest) feeds
    weights h^(i-2); the second chain (pairs split_index+1..m-1 dominating k
    times their suffix) feeds h^split_index, and the last pair h^(split_index-1).
    """
    m = partition.n_blocks
    if m < 3:
        raise ValueError("need at least three blocks")
    n = int(split_index)
    if not 1 <= n <= m - 1:
        raise ValueError(f"split_index must lie in [1, {m - 1}], got {n}")
    name = f"tighter_multi_{measure_kind}"
    rparams, sides = _tighter_sides(state, partition, n, params, measure_kind, order)
    rparams["split_index"] = n
    if sides is None:
        return _skipped(name, Applicability.OUT_OF_WINDOW, rparams)
    lhs, rhs, conditions = sides
    for condition in conditions:
        if condition["margin"] < CONDITION_MARGIN:
            rparams["failed_condition"] = condition
            return _skipped(name, Applicability.CONDITION_UNMET, rparams)
    return _applicable(name, lhs, rhs, "ge", tol, rparams)


def run_mixture_suite(
    spec: GWSpec,
    order: OrderLike = 2.0,
    tighter: Optional[TighterParams] = None,
) -> list[InequalityReport]:
    """Run the monogamy and tightened checks on a vacuum mixture.

    The mixture is verified through its (n+1)-party purification, which is a
    pure family member, and directly on the mixture (itself a valid
    reduction of that purification).  Both stages are block weights, the
    ones :func:`purify_mixture` and :func:`mix_with_vacuum` build densely.
    """
    order = _as_order(order)
    if tighter is None:
        tighter = TighterParams(c_pow=2.0, b_pow=1.0, k=1.0)
    purified = GWBlocks.purification(spec)
    mixture = GWBlocks.of(spec, pure=False)

    first_three = Partition.of([{0}, {1}, {2}])
    reports: list[InequalityReport] = []
    for stage, state in (("purified", purified), ("mixture", mixture)):
        singles = Partition.singletons(state.layout.n_parties)
        for rep in (
            check_monogamy_sq(state, singles, 0, order),
            check_tighter_three(state, first_three, tighter, "concurrence"),
        ):
            rep.params["stage"] = stage
            reports.append(rep)
    return reports

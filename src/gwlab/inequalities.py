"""Monogamy, polygamy, upper-bound and tightened-bound checkers.

Every checker evaluates one inequality on the block weights of a GW-family
state and returns an :class:`InequalityReport`.  Its :class:`Prepared` form
holds the order-free work; :func:`_grid` evaluates it over an order grid as
arrays, a block of orders at a time, into rows (lhs, rhs, slack and the keys
an order adds) and their verdicts, once.  :func:`at_orders` builds reports
from the rows for the library API; ``verify`` encodes its lines from the
same rows (:func:`_grid_lines`), with the bytes of those reports' lines and
no report built.  A public checker takes a :class:`GWBlocks` or a GW-tagged
dense state and takes the weights t_B of its blocks once, at entry, through
:func:`_block_weights`: :meth:`GWBlocks.from_state`, then one
:meth:`Partition.block_sums` over the label vector of the blocks, exact as
``math.fsum`` per block.  The preparers take those weights, or a block's
pair table of them, and the blocks renumbered on the reduction to the
parties they cover; the merged-cut bounds take one more sum, over the
relabelling that makes P and Q one block (:func:`_merged_cut`).
Applicability (order windows and side conditions) is a first-class result
state rather than an error, so grid sweeps produce complete report
streams; genuine violations on applicable instances surface as
``satisfied=False`` and are never swallowed.

Most checkers are one relation, M(x_0)^mu against sum_g c_g sum_{k in g}
M(x_k)^mu, on squared concurrences x = 4 t_A t_B and M = f_alpha.  Every x,
a cut's included, comes from one pair table, ``measures._pair_table``.
:func:`_fold` evaluates the relation on every order of a block at once,
adding each sum left to right with ``np.add.accumulate``; :func:`_relation`
makes a checker of it, and the README lists each checker's x_0, groups and mu.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import accumulate, chain, repeat
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .measures import (
    OrderLike,
    RenyiOrder,
    _as_order,
    _checked_c2,
    _f_alpha_tables,
    _lam_lo,
    _pair_table,
)
from .states import GWBlocks, GWSpec
from .tensor import Partition, State

# unused; the benchmark tracer expects these import sites (ROADMAP item 1)
from .measures import (  # noqa: F401
    f_alpha, gw_one_to_rest_concurrence_sq, gw_pairwise_concurrence, renyi_entropy,
)
from .states import mix_with_vacuum, purify_mixture  # noqa: F401
from .tensor import partial_trace, schmidt_spectrum  # noqa: F401

__all__ = [
    "Applicability",
    "InequalityReport",
    "TighterParams",
    "CLOSED_FORM_TOL",
    "at_orders",
    "h_coefficient",
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

#: Tolerance of every inequality evaluated through scalar closed forms.
CLOSED_FORM_TOL = 1e-9
#: Most f_alpha values ``at_orders`` holds per C^2 vector at once: the
#: longest vector sets how many orders a block takes, so no vector's span of
#: the block's table passes 0.5 MB.
GRID_VALUES = 2**14
#: Side conditions need at least this margin; borderline cases are reported
#: as unmet with diagnostics rather than guessed.
CONDITION_MARGIN = 1e-12


class Applicability(str, Enum):
    APPLICABLE = "APPLICABLE"
    OUT_OF_WINDOW = "OUT_OF_WINDOW"
    CONDITION_UNMET = "CONDITION_UNMET"


@dataclass(frozen=True, slots=True)
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


class Prepared(NamedTuple):
    """A checker with its order-free work (validation, reductions, C^2
    values) done.  ``evaluate(block)`` takes the f_alpha values of ``c2s``,
    one row per order of a block, and gives per order ``(lhs, rhs, slack,
    extra)``: slack is None when a side condition is unmet, and ``extra`` the
    (new, not alpha, mu or k) params a report in the order ``window`` adds.
    A check whose window is None takes no order and records none."""

    name: str
    window: Optional[Callable[[RenyiOrder], bool]]
    params: dict
    c2s: np.ndarray
    evaluate: Callable[[np.ndarray], Iterable[tuple]]

    def at(self, order: OrderLike) -> InequalityReport:
        return at_orders([order], [self])[0]


_MONOGAMY = RenyiOrder.supports_monogamy.fget
_POLYGAMY = RenyiOrder.supports_polygamy.fget
#: A row's verdict code, and by code its report's verdict and applicability.
_HELD, _FAILED, _UNMET, _OUT = range(4)
_VERDICTS = ((True, Applicability.APPLICABLE), (False, Applicability.APPLICABLE),
             (True, Applicability.CONDITION_UNMET), (True, Applicability.OUT_OF_WINDOW))


def _grid(grid: Iterable[OrderLike], checks: Sequence[Prepared]) -> tuple[list, list, list]:
    """The grid's orders, and per check its verdict codes and its rows
    ``(lhs, rhs, slack, extra)`` at every order.  One f_alpha table per block
    of orders (the whole grid unless the longest C^2 vector makes
    ``GRID_VALUES`` too few) holds each distinct vector once.  The codes are
    the one verdict rule: out of window, unmet where the slack is None, else
    satisfied when ``slack >= -CLOSED_FORM_TOL``."""
    orders = [_as_order(a) for a in grid]
    keys = [check.c2s.tobytes() for check in checks]
    vectors = dict(zip(keys, (check.c2s for check in checks)))
    ends = list(accumulate(map(len, vectors.values()), initial=0))
    spans = {key: slice(a, b) for key, a, b in zip(vectors, ends, ends[1:])}
    reads = [spans[key] for key in keys]
    lo = _lam_lo(_checked_c2(np.concatenate([np.empty(0), *vectors.values()])))
    step = max(1, GRID_VALUES // max([1, *map(len, vectors.values())]))
    rows: list[list] = [[] for _ in checks]
    for table in _f_alpha_tables(lo, [order.alpha for order in orders], step):
        for check, span, check_rows in zip(checks, reads, rows):
            check_rows += check.evaluate(table[:, span])
    codes = [[_OUT if not inside else _UNMET if slack is None
              else _HELD if slack >= -CLOSED_FORM_TOL else _FAILED
              for inside, (_, _, slack, _) in zip(
                  map(c.window, orders) if c.window else repeat(True), check_rows)]
             for c, check_rows in zip(checks, rows)]
    return orders, codes, rows


def at_orders(grid: Iterable[OrderLike], checks: Sequence[Prepared]) -> list[InequalityReport]:
    """The reports of prepared checkers at every order of the grid, order by
    order; ``verify`` writes their lines from the rows (:func:`_grid_lines`)."""
    orders, codes, rows = _grid(grid, checks)
    reports = []
    for i, order in enumerate(orders):
        for check, check_codes, check_rows in zip(checks, codes, rows):
            (lhs, rhs, slack, extra), code = check_rows[i], check_codes[i]
            params = {"alpha": order.alpha, **check.params} if check.window else dict(check.params)
            if code != _OUT:
                params.update(extra)
            sides = (lhs, rhs, slack) if code <= _FAILED else (None, None, None)
            reports.append(InequalityReport(check.name, *sides, *_VERDICTS[code], params))
    return reports


CSV_HEADER = ("name", "alpha", "mu", "k", "lhs", "rhs", "slack", "satisfied")


def _csv_num(value) -> str:
    return "" if value is None else f"{float(value):.12g}"


def _csv_row(name: str, alpha, mu, k, lhs, rhs, slack, satisfied: bool) -> tuple[str, ...]:
    """The one CSV formatter: a report's fields, numbers by :func:`_csv_num`."""
    return (name, alpha, mu, k, lhs, rhs, slack, "true" if satisfied else "false")


def report_to_csv_row(report: InequalityReport) -> tuple[str, ...]:
    numbers = [report.params.get(key) for key in CSV_HEADER[1:4]]
    numbers += [report.lhs, report.rhs, report.slack]
    return _csv_row(report.name, *map(_csv_num, numbers), report.satisfied)


_JSON = json.JSONEncoder(sort_keys=True)


def _json_value(value) -> str:
    """``value`` as ``json`` writes it: a finite float by ``float.__repr__``,
    anything else (NaN, Infinity, a string, a list...) as the encoder does."""
    if isinstance(value, float) and math.isfinite(value):
        return float.__repr__(value)
    return "null" if value is None else _JSON.encode(value)


def _json_line(why: Applicability, name: str, params: str, satisfied: bool,
               lhs: str, rhs: str, slack: str) -> str:
    """The one JSONL formatter: a report's fields, all but the tag and verdict
    encoded, as ``json.dumps(doc, sort_keys=True)`` writes them."""
    return (f'{{"applicability": "{why.value}", "lhs": {lhs}, "name": {name}, '
            f'"params": {params}, "rhs": {rhs}, '
            f'"satisfied": {"true" if satisfied else "false"}, "slack": {slack}}}')


def report_to_json_line(report: InequalityReport) -> str:
    r = report
    return _json_line(r.applicability, encode_basestring_ascii(r.name), _JSON.encode(r.params),
                      r.satisfied, *map(_json_value, (r.lhs, r.rhs, r.slack)))


def _line_format(check: Prepared, code: int, added: tuple, csv: bool) -> tuple:
    """The line of ``check`` with verdict ``code`` and the order's keys
    ``added``, by the one formatter, as a format of {0}-{2} lhs, rhs and
    slack, {3} alpha, {4}... the values of ``added`` and then the constant
    texts it returns with it, encoded here once.  The format holds only
    slots, so no long text (a partition) is parsed again on every line."""
    n, encode = 4 + len(added), _csv_num if csv else _json_value
    # a NUL marks slot i, or n for the name: json escapes every control
    # character, and a CSV line holds only numbers and the verdict besides
    marks = [f"\0{i}\0" for i in range(n + 1)]
    sides = marks[:3] if code <= _FAILED else [encode(None)] * 3
    fields = {"alpha": marks[3]} if check.window else {}
    satisfied, why = _VERDICTS[code]
    if csv:
        fields.update((key, _csv_num(value)) for key, value in check.params.items()
                      if key in CSV_HEADER[1:4])
        numbers = [fields.get(key, "") for key in CSV_HEADER[1:4]]
        line = ",".join(_csv_row(marks[n], *numbers, *sides, satisfied))
    else:
        fields.update((key, _json_value(value)) for key, value in check.params.items())
        fields.update(zip(added, marks[4:n]))
        params = ", ".join(f"{_json_value(key)}: {fields[key]}" for key in sorted(fields))
        line = _json_line(why, marks[n], "{" + params + "}", satisfied, *sides)
    chunks = line.split("\0")
    texts = [check.name if csv else encode_basestring_ascii(check.name), *chunks[::2]]
    chunks[::2] = [f"{{{i}}}" for i in range(n + 1, n + len(texts))]
    chunks[1::2] = [f"{{{i}}}" for i in chunks[1::2]]
    return "".join(chunks).format, texts


def _column(check: Prepared, codes: list, rows: list, alphas: list, csv: bool) -> Iterator[str]:
    """The lines of ``check`` at orders whose alpha is ``alphas``: a side of
    finite floats is encoded as a column, and an added dict once per run of
    rows that share it."""
    formats, last, keys, values = {}, None, (), []
    lhs, rhs, slack, extras = zip(*rows)
    sides = [map("{:.12g}".format if csv else float.__repr__, side)
             if set(map(type, side)) <= {float} and all(map(math.isfinite, side))
             else map(_csv_num if csv else _json_value, side) for side in (lhs, rhs, slack)]
    for alpha, code, lhs, rhs, slack, extra in zip(alphas, codes, *sides, extras):
        if extra is not last and not csv:
            last, keys, values = extra, tuple(extra), list(map(_json_value, extra.values()))
        added, own = ((), ()) if csv or code == _OUT else (keys, values)
        line = formats.get((code, added))
        if line is None:
            line = formats[code, added] = _line_format(check, code, added, csv)
        yield line[0](lhs, rhs, slack, alpha, *own, *line[1])


def _grid_lines(grid: Iterable[OrderLike], checks: Sequence[Prepared],
                csv: bool = False) -> tuple[bool, Iterator[str]]:
    """Whether an applicable report of ``at_orders(grid, checks)`` fails, and
    the bytes of :func:`report_to_json_line` (or :func:`report_to_csv_row`)
    of each, written from the rows, each order's alpha encoded once."""
    orders, codes, rows = _grid(grid, checks)
    alphas = [(_csv_num if csv else _json_value)(order.alpha) for order in orders]
    columns = [_column(*column, alphas, csv) for column in zip(checks, codes, rows)]
    return any(_FAILED in c for c in codes), chain.from_iterable(zip(*columns))


def h_coefficient(k: float, t: float) -> float:
    """Tightening coefficient ((1+k)^t - 1) / k^t for k >= 1, t in [0, 1]."""
    k, t = float(k), float(t)
    if not (math.isfinite(k) and k >= 1.0):
        raise ValueError(f"k must be finite and >= 1, got {k}")
    if not 0.0 <= t <= 1.0 + 1e-12:
        raise ValueError(f"t must lie in [0, 1], got {t}")
    t = min(t, 1.0)
    return ((1.0 + k) ** t - 1.0) / k**t


def _block_weights(
    state: State | GWBlocks, partition: Partition
) -> tuple[np.ndarray, Partition]:
    """The weights t_B of the partition's blocks, by one block sum, and the
    blocks on the reduction to the parties they cover, renumbered in
    ascending order (:meth:`Partition.covered`).

    Checkers accept block families that cover only part of the state; the
    quantities they test live on the reduction to the covered parties, and
    a block's weight is the same there.
    """
    return partition.block_sums(GWBlocks.from_state(state).weights), partition.covered()


def _partition_params(partition: Partition, s: int) -> dict:
    return {"partition": partition.sorted_blocks, "s": int(s)}


def _fold(block: np.ndarray, mu: float, groups=((1.0, 1, None),)) -> tuple:
    """``m[0]^mu`` and the sum over ``(coef, start, stop)`` groups of ``coef *
    sum(v^mu for v in m[start:stop])``, for every row m of a block (orders x
    values; a 1-D block is one row).  Each sum adds its row left to right,
    through ``np.add.accumulate``; ``np.add.reduce`` would add pairwise."""
    powered = np.power(block, mu)
    rhs = np.zeros(powered.shape[:-1])
    for coef, start, stop in groups:
        terms = powered[..., start:stop]
        if terms.shape[-1]:
            rhs = rhs + coef * np.add.accumulate(terms, axis=-1)[..., -1]
    return powered[..., 0], rhs


def _relation(
    name: str, direction: str, params: dict, c2s: np.ndarray, mu: float = 1.0,
    groups=((1.0, 1, None),), in_window: Optional[dict] = None, unmet: bool = False,
) -> Prepared:
    """:func:`_fold` on f_alpha of ``c2s``, checked "ge" in the monogamy window
    and "le" in the polygamy one.  Reports in the window get the ``in_window``
    params, and are CONDITION_UNMET if ``unmet``."""
    in_window = in_window or {}

    def evaluate(block):
        if unmet:
            return [(None, None, None, in_window)] * len(block)
        lhs, rhs = _fold(block, mu, groups)
        slack = lhs - rhs if direction == "ge" else rhs - lhs
        return zip(lhs.tolist(), rhs.tolist(), slack.tolist(), [in_window] * len(block))

    window = _MONOGAMY if direction == "ge" else _POLYGAMY
    return Prepared(name, window, params, np.empty(0) if unmet else c2s, evaluate)


def _power_relation(
    name: str, direction: str, c2s: np.ndarray, partition: Partition, s: int, mu
) -> Prepared:
    """f(C^2(s|rest))^mu against the sum of f(C^2(s, k))^mu over the other
    blocks k, on block s's pair table ``c2s``; "ge" is checked in the
    monogamy window, "le" in the polygamy one."""
    params = {"mu": mu, **_partition_params(partition, s)}
    return _relation(name, direction, params, c2s, mu)


def check_monogamy_sq(
    state: State | GWBlocks,
    partition: Partition,
    s: int,
    order: OrderLike,
) -> InequalityReport:
    """Squared Renyi entanglement of one block against the rest dominates the
    sum of its squared pairwise values."""
    t, partition = _block_weights(state, partition)
    return _power_relation("monogamy_sq", "ge", _pair_table(t, s), partition, s, 2.0).at(order)


def check_monogamy_power(
    state: State | GWBlocks,
    partition: Partition,
    s: int,
    order: OrderLike,
    mu: float,
) -> InequalityReport:
    """mu-th power monogamy for finite mu >= 2."""
    mu = float(mu)
    if not (math.isfinite(mu) and mu >= 2.0):
        raise ValueError(f"power monogamy needs a finite mu >= 2, got {mu}")
    t, partition = _block_weights(state, partition)
    return _power_relation("monogamy_power", "ge", _pair_table(t, s), partition, s, mu).at(order)


def check_polygamy(
    state: State | GWBlocks,
    partition: Partition,
    s: int,
    order: OrderLike,
) -> InequalityReport:
    """Assisted entanglement of one block is bounded by the pairwise sum."""
    t, partition = _block_weights(state, partition)
    return _power_relation("polygamy", "le", _pair_table(t, s), partition, s, 1.0).at(order)


def check_polygamy_power(
    state: State | GWBlocks,
    partition: Partition,
    s: int,
    order: OrderLike,
    mu: float,
) -> InequalityReport:
    """mu-th power polygamy for 0 < mu <= 1."""
    mu = float(mu)
    if not 0.0 < mu <= 1.0:
        raise ValueError(f"power polygamy needs mu in (0, 1], got {mu}")
    t, partition = _block_weights(state, partition)
    return _power_relation("polygamy_power", "le", _pair_table(t, s), partition, s, mu).at(order)


def _merged_cut(state: GWBlocks, partition: Partition) -> np.ndarray:
    """The weights (t_PQ, t_R...) of the blocks (P, Q, R...) with P and Q as
    one: one block sum over that relabelling."""
    return partition.relabelled([0, *range(partition.n_blocks - 1)]).block_sums(state.weights)


def _merged_cut_bound(name: str, t: np.ndarray, cut: np.ndarray, partition: Partition) -> Prepared:
    """f(C^2(PQ|rest)) <= 2 f(C^2(P,Q)) + sum_R [f(C^2(P,R)) + f(C^2(Q,R))] on
    the blocks (P, Q, R...) of ``partition``, whose weights are ``t``: the
    pairs are P's pair table and Q's without its QP entry, and the cut's C^2
    is the pair table of the weights ``cut`` of :func:`_merged_cut`."""
    if partition.n_blocks < 3:
        raise ValueError("need at least one rest block")
    p_c2, q_c2 = _pair_table(t, 0)[1:], _pair_table(t, 1)[2:]
    groups = ((2.0, 1, 2), (1.0, 2, len(p_c2) + 1), (1.0, len(p_c2) + 1, None))
    params = {"blocks": partition.covered().sorted_blocks}
    c2s = np.concatenate([_pair_table(cut, 0)[:1], p_c2, q_c2])
    return _relation(name, "le", params, c2s, 1.0, groups)


def check_merged_block_upper_bound(
    psi: State | GWBlocks,
    block_p: Iterable[int],
    block_q: Iterable[int],
    rest_blocks: Iterable[Iterable[int]],
    order: OrderLike,
) -> InequalityReport:
    """Entanglement across the merged PQ cut of a pure state is bounded by
    twice the PQ term plus all pairwise P/Q-to-rest terms.

    The blocks must cover the state.  The cut's C^2 = 4 t_PQ t_R is the
    merged block's pair table, as in :func:`check_upper_bound_bipartition`;
    a state that is not pure is refused."""
    blocks, psi = Partition.of([block_p, block_q, *rest_blocks]), GWBlocks.from_state(psi)
    t, cut = blocks.block_sums(psi.weights), _merged_cut(psi, blocks)
    if not (psi.pure and blocks.covers(psi.layout.n_parties)):
        raise ValueError("merged_block_upper_bound needs a pure state that its blocks cover")
    return _merged_cut_bound("merged_block_upper_bound", t, cut, blocks).at(order)


def check_reoa_triangle(
    state: State | GWBlocks,
    partition: Partition,
    order: OrderLike,
) -> InequalityReport:
    """Triangle bound among the three one-to-rest values f_alpha(C^2).

    The check runs on the f_alpha(C^2) values of each block against the
    other two.  They are the assisted values exactly when the three blocks
    cover a pure state; on a mixed reduction f_alpha(C^2) is the convex
    roof, only a lower bound on the assisted value.
    """
    return _reoa_triangle(*_block_weights(state, partition)).at(order)


def _reoa_triangle(t: np.ndarray, partition: Partition) -> Prepared:
    if partition.n_blocks != 3:
        raise ValueError("triangle bound needs exactly three blocks")
    c2s = np.array([_pair_table(t, s)[0] for s in range(3)])
    return _relation("reoa_triangle", "le", _partition_params(partition, 0), c2s)


def check_upper_bound_bipartition(
    state: State | GWBlocks,
    block_p1: Iterable[int],
    block_p2: Iterable[int],
    q_blocks: Iterable[Iterable[int]],
    order: OrderLike,
) -> InequalityReport:
    """Entanglement of the merged P1P2 block against the Q blocks is bounded
    by twice the P1P2 term plus all pairwise P-to-Q terms."""
    blocks, state = Partition.of([block_p1, block_p2, *q_blocks]), GWBlocks.from_state(state)
    t, cut = blocks.block_sums(state.weights), _merged_cut(state, blocks)
    return _merged_cut_bound("pair_block_upper_bound", t, cut, blocks).at(order)


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
        if not all(math.isfinite(v) for v in (c, b, k)):
            raise ValueError(f"c_pow, b_pow and k must be finite, got {c}, {b}, {k}")
        if c < 2.0:
            raise ValueError(f"c_pow must be >= 2, got {c}")
        if not 0.0 <= b <= c:
            raise ValueError(f"b_pow must lie in [0, c_pow], got {b}")
        if k < 1.0:
            raise ValueError(f"k must be >= 1, got {k}")
        for name, value in (("c_pow", c), ("b_pow", b), ("k", k)):
            object.__setattr__(self, name, value)

    @property
    def t(self) -> float:
        return self.b_pow / self.c_pow

    @property
    def h(self) -> float:
        return h_coefficient(self.k, self.t)


_TIGHTER_KINDS = ("concurrence", "cren", "renyi")


def _tightened(
    c2s: np.ndarray, partition: Partition, split_index, params: TighterParams, measure_kind,
    three=False,
) -> Prepared:
    """The multi-block tightened bound on P1's pair table ``c2s``; ``three``
    names it the three-block one and records the margin of its one side
    condition.

    Blocks are numbered 1..m with P1 distinguished.  ``conditions`` holds the
    chain, index and margin of every side condition in checking order; they
    are stated on the concurrence, which CREN equals on this family.  The
    concurrence and CREN kinds take no order: their report is made once, on a
    one-row block of concurrences."""
    m = partition.n_blocks
    if m < 3:
        raise ValueError("need at least three blocks")
    n = int(split_index)
    if not 1 <= n <= m - 1:
        raise ValueError(f"split_index must lie in [1, {m - 1}], got {n}")
    if measure_kind not in _TIGHTER_KINDS:
        raise ValueError(f"measure_kind must be one of {_TIGHTER_KINDS}")
    name = f"tighter_{'three' if three else 'multi'}_{measure_kind}"
    h = params.h
    report_params = {
        "measure": measure_kind,
        "c_pow": params.c_pow,
        "b_pow": params.b_pow,
        "k": params.k,
        "h": h,
        **_partition_params(partition, 0),
        **({} if three else {"split_index": n}),
    }
    # by 1-based block numbers, c2s[i - 1] is C^2(P1, P_i), c_pair[i] is
    # C(P1, P_i) and c_suffix[i] is C(P1 | P_i ... P_m) by pairwise additivity,
    # one running sum from the right
    pair_c2 = c2s[1:].tolist()
    c_pair = [None, None] + [math.sqrt(x) for x in pair_c2]
    suffix = list(accumulate(reversed(pair_c2)))
    c_suffix = [None, None] + [math.sqrt(x) for x in reversed(suffix)]

    c, k, b = params.c_pow, params.k, params.b_pow
    conditions = [
        {"chain": 1, "index": i, "margin": c_suffix[i + 1] ** c - k * c_pair[i] ** c}
        for i in range(2, n + 1)
    ]
    conditions += [
        {"chain": 2, "index": j, "margin": c_pair[j] ** c - k * c_suffix[j + 1] ** c}
        for j in range(n + 1, m)
    ]
    failed = [cond for cond in conditions if cond["margin"] < CONDITION_MARGIN]
    in_window = ({"condition_margin": float(conditions[0]["margin"])} if three
                 else {"failed_condition": failed[0]} if failed else {})

    # weights h^(i-2) up to the split, h^n after it, h^(n-1) on the last pair
    groups = [(h ** (i - 2), i - 1, i) for i in range(2, n + 1)]
    groups += [(h**n, n, m - 1), (h ** (n - 1), m - 1, m)]
    check = _relation(name, "ge", report_params, c2s, b, groups, in_window, bool(failed))
    if measure_kind == "renyi":
        return check
    row = list(check.evaluate(np.sqrt([c2s])))
    return Prepared(name, None, report_params, np.empty(0), lambda block: row * len(block))


def _tighter_report(check: Prepared, measure_kind: str, order) -> InequalityReport:
    if measure_kind == "renyi" and order is None:
        raise ValueError("renyi kind needs a Renyi order")
    return check.at(order if measure_kind == "renyi" else 1.0)  # the others take none


def check_tighter_three(
    state: State | GWBlocks,
    partition: Partition,
    params: TighterParams,
    measure_kind: str = "concurrence",
    order: Optional[OrderLike] = None,
) -> InequalityReport:
    """Tightened three-block bound: when the P1P3 term dominates k times the
    P1P2 term (in c_pow powers), the one-to-rest value dominates
    M(P1P2)^b + h * M(P1P3)^b.

    The coefficient h attaches to the conditioned-larger P1P3 term.  This is
    the multi-block bound at split index 2; only the recorded params differ.
    """
    if partition.n_blocks != 3:
        raise ValueError("need exactly three blocks")
    t, partition = _block_weights(state, partition)
    check = _tightened(_pair_table(t, 0), partition, 2, params, measure_kind, three=True)
    return _tighter_report(check, measure_kind, order)


def check_tighter_multi(
    state: State | GWBlocks,
    partition: Partition,
    split_index: int,
    params: TighterParams,
    measure_kind: str = "concurrence",
    order: Optional[OrderLike] = None,
) -> InequalityReport:
    """Tightened multi-block bound with geometric h weights.

    Blocks are numbered 1..m with P1 distinguished.  The first condition
    chain (pairs 2..split_index dominated k-fold by their suffix rest) feeds
    weights h^(i-2); the second chain (pairs split_index+1..m-1 dominating k
    times their suffix) feeds h^split_index, and the last pair h^(split_index-1).
    """
    t, partition = _block_weights(state, partition)
    check = _tightened(_pair_table(t, 0), partition, split_index, params, measure_kind)
    return _tighter_report(check, measure_kind, order)


def run_mixture_suite(
    spec: GWSpec,
    order: OrderLike = 2.0,
    tighter: Optional[TighterParams] = None,
) -> list[InequalityReport]:
    """Run the monogamy and tightened checks on a vacuum mixture.

    The mixture is verified through its (n+1)-party purification, which is a
    pure family member, and directly on the mixture (itself a valid
    reduction of that purification).  Both stages are block weights, the
    ones :func:`purify_mixture` and :func:`mix_with_vacuum` build densely;
    their singletons weigh the parties' own weights.  The three-block
    tightened check runs on a stage of at least three parties.
    """
    if tighter is None:
        tighter = TighterParams(c_pow=2.0, b_pow=1.0, k=1.0)
    checks, stages, first_three = [], [], Partition.singletons(3)
    for stage, state in (
        ("purified", GWBlocks.purification(spec)), ("mixture", GWBlocks.of(spec, pure=False))
    ):
        t, n = state.weights, state.layout.n_parties
        c2 = _pair_table(t, 0)
        checks.append(_power_relation("monogamy_sq", "ge", c2, Partition.singletons(n), 0, 2.0))
        if n >= 3:
            c3 = _pair_table(t[:3], 0)
            checks.append(_tightened(c3, first_three, 2, tighter, "concurrence", three=True))
        stages += [stage] * (len(checks) - len(stages))
    reports = at_orders([order], checks)
    for stage, report in zip(stages, reports):
        report.params["stage"] = stage
    return reports

"""Monogamy, polygamy, upper-bound and tightened-bound checkers.

Every checker evaluates one inequality on the block weights of a GW-family
state and returns an :class:`InequalityReport`.  Its :class:`Prepared` form
holds the order-free work and the params its reports carry; :func:`_grid`
evaluates it over a grid of float orders as arrays, into columns (lhs, rhs,
slack and the keys an order adds) and one verdict code per order, once.
:func:`prepare_checks` builds ``verify``'s suite (the games section's cap
and trace bound too), :func:`_oracle_checks` the oracle's two, whose columns
``roof`` evaluates.  From any check's columns and codes :func:`_reports`
builds its reports and :func:`_column` their lines.  A public checker takes a
:class:`GWBlocks` or a GW-tagged dense state and takes the weights t_B of
its blocks once, at entry (:func:`_block_weights`): one
:meth:`Partition.block_sums`, exact as ``math.fsum`` per block.  The
preparers take those weights, or a block's pair table of them; a report
names its blocks by their count ``n_blocks`` (and ``s``), and the caller's
partition says who is in them.
Applicability (order windows, and side conditions decided at prepare time)
is a first-class result state rather than an error, so grid sweeps produce
complete report streams; genuine violations on applicable instances surface
as ``satisfied=False`` and are never swallowed.

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
import sys
from dataclasses import dataclass, field
from enum import Enum
from itertools import accumulate, chain, count, groupby
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .measures import (
    _checked_c2, _f_alpha_tables, _lam_lo, _monogamy, _order, _pair_table, _polygamy,
)
from .states import GWBlocks, GWSpec
from .tensor import Partition, State, coarse_grain

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
    "prepare_checks",
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
    one row per order of a block, and gives columns over those orders: lhs,
    rhs, slack and one per ``added`` key.  ``window`` takes a float order; a
    report in it adds ``in_window``, and those keys unless ``evaluate`` is None
    (then it is CONDITION_UNMET).  A check whose window is None takes no order
    and records none."""

    name: str
    window: Optional[Callable[[float], bool]]
    params: dict
    c2s: np.ndarray
    evaluate: Optional[Callable[[np.ndarray], Sequence[np.ndarray]]]
    in_window: dict = {}
    added: tuple = ()

    def at(self, order: float) -> InequalityReport:
        return at_orders([order], [self])[0]


#: An order's verdict code, and by code its report's verdict and applicability.
_HELD, _FAILED, _UNMET, _OUT = range(4)
_VERDICTS = ((True, Applicability.APPLICABLE), (False, Applicability.APPLICABLE),
             (True, Applicability.CONDITION_UNMET), (True, Applicability.OUT_OF_WINDOW))


def _grid(grid: Iterable[float], checks: Sequence[Prepared]) -> tuple[list, list, list]:
    """The grid's orders, as floats checked once by ``_order``, and per check
    its verdict codes and its columns.
    One f_alpha table per block of orders (the whole grid unless the longest
    C^2 vector makes ``GRID_VALUES`` too few) holds each distinct vector
    object once; each relation on a vector is evaluated once, and each window
    applied once.  The codes are the one verdict rule: out of window, unmet
    where there are no columns, else satisfied when ``slack >= -CLOSED_FORM_TOL``."""
    orders = list(map(_order, grid))
    vectors = {id(check.c2s): check.c2s for check in checks}  # a shared vector is one array
    ends = list(accumulate(map(len, vectors.values()), initial=0))
    spans = {key: slice(a, b) for key, a, b in zip(vectors, ends, ends[1:])}
    reads = {(c.evaluate, id(c.c2s)): spans[id(c.c2s)] for c in checks if c.evaluate}
    lo = _lam_lo(_checked_c2(np.concatenate([np.empty(0), *vectors.values()])))
    step = max(1, GRID_VALUES // max([1, *map(len, vectors.values())]))
    # as lists at once: a column may be a view of big powers
    blocks = [[[c.tolist() for c in read[0](table[:, span])] for read, span in reads.items()]
              for table in _f_alpha_tables(lo, orders, step)]
    joined = {read: [list(chain.from_iterable(parts)) for parts in zip(*read_blocks)]
              for read, read_blocks in zip(reads, zip(*blocks))}
    columns = [joined.get((check.evaluate, id(check.c2s)), []) for check in checks]
    windows = {check.window for check in checks}
    inside = {w: list(map(w, orders)) if w else [True] * len(orders) for w in windows}
    codes = []
    for check, check_columns in zip(checks, columns):
        verdicts = ([_HELD if slack >= -CLOSED_FORM_TOL else _FAILED for slack in check_columns[2]]
                    if check_columns else [_UNMET] * len(orders))
        codes.append([code if ok else _OUT for ok, code in zip(inside[check.window], verdicts)])
    return orders, codes, columns


def _reports(check: Prepared, codes: list, columns: list, alphas: list) -> Iterator:
    """The reports of ``check``'s rows from their verdict codes, its columns
    and each row's alpha, as :func:`_line_format` prints them."""
    for i, (code, alpha) in enumerate(zip(codes, alphas)):
        params = {"alpha": alpha, **check.params} if check.window else dict(check.params)
        if code != _OUT:
            params.update(check.in_window)
            params.update(zip(check.added, [column[i] for column in columns[3:]]))
        numbers = [column[i] for column in columns[:3]] if code <= _FAILED else [None] * 3
        yield InequalityReport(check.name, *numbers, *_VERDICTS[code], params)


def at_orders(grid: Iterable[float], checks: Sequence[Prepared]) -> list[InequalityReport]:
    """The reports of prepared checkers at every order of the grid, order by
    order; ``verify`` writes their lines from the columns (:func:`_grid_lines`)."""
    orders, codes, columns = _grid(grid, checks)
    alphas = [orders] * len(checks)
    return list(chain.from_iterable(zip(*map(_reports, checks, codes, columns, alphas))))


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
    if isinstance(value, bool) or value is None:
        return "null" if value is None else "true" if value else "false"
    return _JSON.encode(value)


def _json_params(name: str, params: dict) -> str:
    """``params`` as ``json`` writes them, for a line of report ``name``; an
    int with more digits than ``sys.get_int_max_str_digits()`` (a wide
    ``monogamy_cap``'s ``d``) has no text, so it is refused by its key."""
    try:
        return _JSON.encode(params)
    except ValueError:
        for key, value in params.items():
            try:
                _JSON.encode(value)
            except ValueError:
                raise ValueError(
                    f"{name} param {key!r} has more than sys.get_int_max_str_digits() = "
                    f"{sys.get_int_max_str_digits()} digits, too many for a JSON line"
                ) from None
        raise


def _json_line(why: Applicability, name: str, params: str, satisfied: bool,
               lhs: str, rhs: str, slack: str) -> str:
    """The one JSONL formatter: a report's fields, all but the tag and verdict
    encoded, as ``json.dumps(doc, sort_keys=True)`` writes them."""
    return (f'{{"applicability": "{why.value}", "lhs": {lhs}, "name": {name}, '
            f'"params": {params}, "rhs": {rhs}, '
            f'"satisfied": {"true" if satisfied else "false"}, "slack": {slack}}}')


def report_to_json_line(report: InequalityReport) -> str:
    r = report
    params = _json_params(r.name, r.params)
    return _json_line(r.applicability, encode_basestring_ascii(r.name), params,
                      r.satisfied, *map(_json_value, (r.lhs, r.rhs, r.slack)))


def _line_format(check: Prepared, code: int, csv: bool, specs: Sequence[str],
                 row: Optional[list] = None) -> tuple[str, list]:
    """The line of ``check`` with verdict ``code`` as one ``%`` template, and
    its row: the value slots (0 alpha, 1-3 lhs, rhs, slack, then the added
    keys) in the order the template takes them, by default the slots it
    prints, then alpha if unprinted.  A check with columns (more ``specs``)
    prints its added keys in the window, and lhs, rhs and slack where
    applicable.  Names and constants are literal text with ``%`` doubled; a
    printed slot i is ``specs[i]``, any other ``%.0s``; a newline ends it."""
    satisfied, why = _VERDICTS[code]
    constants = {**check.params, **(check.in_window if code != _OUT else {})}
    slots = {"alpha": 0} if check.window and "alpha" not in constants else {}
    sides = [1, 2, 3] if code <= _FAILED else []
    slots.update(zip(check.added, count(4)) if code != _OUT and len(specs) > 1 else ())
    fields = {**constants, **slots}
    keys = CSV_HEADER[1:4] if csv else sorted(fields)
    ordered = [slots[key] for key in keys if key in slots]
    printed = ordered + sides if csv else sides[:1] + ordered + sides[1:]
    texts = [specs[i] for i in sides] or ["" if csv else "null"] * 3
    name = (check.name if csv else encode_basestring_ascii(check.name)).replace("%", "%%")
    if csv:
        numbers = [specs[slots[k]] if k in slots else _csv_num(fields.get(k)) for k in keys]
        line = ",".join(_csv_row(name, *numbers, *texts, satisfied))
    else:  # one encoding of each run of constant keys between the slots
        params = ", ".join(
            ", ".join(f"{encode_basestring_ascii(key).replace('%', '%%')}: {specs[slots[key]]}"
                      for key in run) if slot
            else _json_params(check.name, {k: fields[k] for k in run})[1:-1].replace("%", "%%")
            for slot, run in groupby(keys, slots.__contains__))
        line = _json_line(why, name, "{" + params + "}", satisfied, *texts)
    row = row or printed + [0] * (0 not in printed)
    skip = row.index(printed[0]) if printed else 0
    return "%.0s" * skip + line + "%.0s" * (len(row) - skip - len(printed)) + "\n", row


def _column(check: Prepared, codes: list, columns: list, alphas: list, csv: bool) -> Iterator[str]:
    """The newline-ended lines of ``check``'s rows, with verdicts ``codes`` and encoded
    ``alphas``: its templates on its zipped columns.  A CSV number is ``%.12g``.  One
    read of the types of the rows that print a JSONL column (the sides on held and failed
    rows, an added key on rows in the window) picks ``%r`` if they hold only finite floats,
    as it is if only str (JSON text already), one lookup if only bool, else json's text
    per value."""
    specs, values, kinds = ["%s"], [alphas], sorted(set(codes))
    top = kinds[-1] if kinds else _HELD
    for i, column in enumerate(columns):
        last = _FAILED if i < 3 else _UNMET  # the highest code whose rows print the column
        printed = () if csv else column if top <= last else [
            value for value, code in zip(column, codes) if code <= last]
        types = set(map(type, printed))
        finite = types <= {float} and all(map(math.isfinite, printed))
        specs.append("%.12g" if csv else "%r" if finite else "%s")
        values.append(column if csv or finite or types == {str} else map(
            {False: "false", True: "true"}.get if types == {bool} else _json_value, column))
    formats, row = {}, None
    for code in kinds:  # the first code's line sets the row
        formats[code], row = _line_format(check, code, csv, specs, row)
    return map(str.__mod__, map(formats.__getitem__, codes), zip(*[values[i] for i in row or ()]))


def _grid_lines(grid: Iterable[float], checks: Sequence[Prepared],
                csv: bool = False) -> tuple[bool, Iterator[str]]:
    """Whether an applicable report of ``at_orders(grid, checks)`` fails, and
    the bytes of :func:`report_to_json_line` (or :func:`report_to_csv_row`)
    of each, newline-ended, made lazily from the columns, each alpha encoded once."""
    orders, codes, columns = _grid(grid, checks)
    alphas = list(map(_csv_num if csv else _json_value, orders))
    lines = [_column(*column, alphas, csv) for column in zip(checks, codes, columns)]
    return any(_FAILED in c for c in codes), chain.from_iterable(zip(*lines))


def h_coefficient(k: float, t: float) -> float:
    """Tightening coefficient ((1+k)^t - 1) / k^t for k >= 1, t in [0, 1]."""
    k, t = float(k), float(t)
    if not (math.isfinite(k) and k >= 1.0):
        raise ValueError(f"k must be finite and >= 1, got {k}")
    if not 0.0 <= t <= 1.0 + 1e-12:
        raise ValueError(f"t must lie in [0, 1], got {t}")
    t = min(t, 1.0)
    return ((1.0 + k) ** t - 1.0) / k**t


def _block_weights(state: State | GWBlocks, partition: Partition) -> np.ndarray:
    """The weights t_B of the partition's blocks, by one block sum.

    Checkers accept block families that cover only part of the state; the
    quantities they test live on the reduction to the covered parties, and
    a block's weight is the same there.
    """
    return partition.block_sums(GWBlocks.from_state(state).weights)


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


def _relation(name: str, direction: str, params: dict, c2s: np.ndarray, mu: float = 1.0,
              groups=((1.0, 1, None),)) -> Prepared:
    """:func:`_fold` on f_alpha of ``c2s``, checked "ge" in the monogamy window
    and "le" in the polygamy one."""

    def evaluate(block):
        lhs, rhs = _fold(block, mu, groups)
        return lhs, rhs, lhs - rhs if direction == "ge" else rhs - lhs

    return Prepared(name, _monogamy if direction == "ge" else _polygamy, params, c2s, evaluate)


def _power_relation(name: str, direction: str, c2s: np.ndarray, s: int, mu) -> Prepared:
    """f(C^2(s|rest))^mu against the sum of f(C^2(s, k))^mu over the other
    blocks k, on block s's pair table ``c2s``, one entry per block; "ge" is
    checked in the monogamy window, "le" in the polygamy one."""
    return _relation(name, direction, {"mu": mu, "n_blocks": len(c2s), "s": int(s)}, c2s, mu)


def check_monogamy_sq(state: State | GWBlocks, partition: Partition, s: int,
                      order: float) -> InequalityReport:
    """Squared Renyi entanglement of one block against the rest dominates the
    sum of its squared pairwise values."""
    t = _block_weights(state, partition)
    return _power_relation("monogamy_sq", "ge", _pair_table(t, s), s, 2.0).at(order)


def check_monogamy_power(state: State | GWBlocks, partition: Partition, s: int, order: float,
                         mu: float) -> InequalityReport:
    """mu-th power monogamy for finite mu >= 2."""
    mu = float(mu)
    if not (math.isfinite(mu) and mu >= 2.0):
        raise ValueError(f"power monogamy needs a finite mu >= 2, got {mu}")
    t = _block_weights(state, partition)
    return _power_relation("monogamy_power", "ge", _pair_table(t, s), s, mu).at(order)


def check_polygamy(state: State | GWBlocks, partition: Partition, s: int,
                   order: float) -> InequalityReport:
    """Assisted entanglement of one block is bounded by the pairwise sum."""
    t = _block_weights(state, partition)
    return _power_relation("polygamy", "le", _pair_table(t, s), s, 1.0).at(order)


def check_polygamy_power(state: State | GWBlocks, partition: Partition, s: int, order: float,
                         mu: float) -> InequalityReport:
    """mu-th power polygamy for 0 < mu <= 1."""
    mu = float(mu)
    if not 0.0 < mu <= 1.0:
        raise ValueError(f"power polygamy needs mu in (0, 1], got {mu}")
    t = _block_weights(state, partition)
    return _power_relation("polygamy_power", "le", _pair_table(t, s), s, mu).at(order)


def _merged_cut_bound(name: str, weights: np.ndarray, labels: np.ndarray, t: np.ndarray,
                      c2: np.ndarray) -> Prepared:
    """f(C^2(PQ|rest)) <= 2 f(C^2(P,Q)) + sum_R [f(C^2(P,R)) + f(C^2(Q,R))] on
    the blocks (P, Q, R...) of the party ``labels``, of weights ``t`` (by party,
    ``weights``): the pairs are P's pair table ``c2`` and Q's without its QP
    entry.  The cut's C^2 is the pair table of (t_PQ, t_R...), t_PQ one
    ``math.fsum`` over the parties labelled 0 or 1."""
    if len(t) < 3:
        raise ValueError("need at least one rest block")
    t_pq = math.fsum(weights[: labels.size][(labels >= 0) & (labels <= 1)].tolist())
    cut = np.concatenate(([t_pq], t[2:]))
    p_c2, q_c2 = c2[1:], _pair_table(t, 1)[2:]
    groups = ((2.0, 1, 2), (1.0, 2, len(p_c2) + 1), (1.0, len(p_c2) + 1, None))
    c2s = np.concatenate([_pair_table(cut, 0)[:1], p_c2, q_c2])
    return _relation(name, "le", {"n_blocks": len(t)}, c2s, 1.0, groups)


def check_merged_block_upper_bound(
    psi: State | GWBlocks,
    block_p: Iterable[int],
    block_q: Iterable[int],
    rest_blocks: Iterable[Iterable[int]],
    order: float,
) -> InequalityReport:
    """Entanglement across the merged PQ cut of a pure state is bounded by
    twice the PQ term plus all pairwise P/Q-to-rest terms.

    The blocks must cover the state.  The cut's C^2 = 4 t_PQ t_R is the
    merged block's pair table, as in :func:`check_upper_bound_bipartition`;
    a state that is not pure is refused."""
    psi = GWBlocks.from_state(psi)
    blocks = Partition.of([block_p, block_q, *rest_blocks], len(psi.weights))
    t = blocks.block_sums(psi.weights)
    if not (psi.pure and blocks.covers(len(psi.weights))):
        raise ValueError("merged_block_upper_bound needs a pure state that its blocks cover")
    return _merged_cut_bound("merged_block_upper_bound", psi.weights, blocks.labels, t,
                             _pair_table(t, 0)).at(order)


def check_reoa_triangle(
    state: State | GWBlocks,
    partition: Partition,
    order: float,
) -> InequalityReport:
    """Triangle bound among the three one-to-rest values f_alpha(C^2).

    The check runs on the f_alpha(C^2) values of each block against the
    other two.  They are the assisted values exactly when the three blocks
    cover a pure state; on a mixed reduction f_alpha(C^2) is the convex
    roof, only a lower bound on the assisted value.
    """
    return _reoa_triangle(_block_weights(state, partition)).at(order)


def _reoa_triangle(t: np.ndarray) -> Prepared:
    if len(t) != 3:
        raise ValueError("triangle bound needs exactly three blocks")
    c2s = np.array([_pair_table(t, s)[0] for s in range(3)])
    return _relation("reoa_triangle", "le", {"n_blocks": 3, "s": 0}, c2s)


def check_upper_bound_bipartition(
    state: State | GWBlocks,
    block_p1: Iterable[int],
    block_p2: Iterable[int],
    q_blocks: Iterable[Iterable[int]],
    order: float,
) -> InequalityReport:
    """Entanglement of the merged P1P2 block against the Q blocks is bounded
    by twice the P1P2 term plus all pairwise P-to-Q terms."""
    state = GWBlocks.from_state(state)
    blocks = Partition.of([block_p1, block_p2, *q_blocks], len(state.weights))
    t = blocks.block_sums(state.weights)
    return _merged_cut_bound("pair_block_upper_bound", state.weights, blocks.labels, t,
                             _pair_table(t, 0)).at(order)


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
    c2s: np.ndarray, split_index, params: TighterParams, measure_kind, three=False
) -> Prepared:
    """The multi-block tightened bound on P1's pair table ``c2s``, one entry
    per block; ``three`` names it the three-block one and records the margin
    of its one side condition.

    Blocks are numbered 1..m with P1 distinguished.  ``conditions`` holds the
    chain, index and margin of every side condition in checking order; they
    are stated on the concurrence, which CREN equals on this family.  The
    concurrence and CREN kinds take no order: their report is made once, on a
    one-row block of concurrences."""
    m = len(c2s)
    if m < 3:
        raise ValueError("need at least three blocks")
    n = int(split_index)
    if not 1 <= n <= m - 1:
        raise ValueError(f"split_index must lie in [1, {m - 1}], got {n}")
    if measure_kind not in _TIGHTER_KINDS:
        raise ValueError(f"measure_kind must be one of {_TIGHTER_KINDS}")
    name = f"tighter_{'three' if three else 'multi'}_{measure_kind}"
    c, k, b, h = params.c_pow, params.k, params.b_pow, params.h
    report_params = {"measure": measure_kind, "c_pow": c, "b_pow": b, "k": k, "h": h,
                     "n_blocks": m, "s": 0, **({} if three else {"split_index": n})}
    # by 1-based block numbers, c2s[i - 1] is C^2(P1, P_i), c_pair[i] is
    # C(P1, P_i) and c_suffix[i] is C(P1 | P_i ... P_m) by pairwise additivity,
    # one running sum from the right
    pair_c2 = c2s[1:].tolist()
    c_pair = [None, None] + [math.sqrt(x) for x in pair_c2]
    suffix = list(accumulate(reversed(pair_c2)))
    c_suffix = [None, None] + [math.sqrt(x) for x in reversed(suffix)]

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
    check = _relation(name, "ge", report_params, c2s, b, groups)._replace(in_window=in_window)
    if failed:
        check = check._replace(evaluate=None)
    elif measure_kind != "renyi":
        once = check.evaluate(np.sqrt([c2s]))
        check = check._replace(evaluate=lambda block: [np.repeat(x, len(block)) for x in once])
    return check if measure_kind == "renyi" else check._replace(window=None, c2s=np.empty(0))


def _tighter_report(check: Prepared, measure_kind: str, order) -> InequalityReport:
    if measure_kind == "renyi" and order is None:
        raise ValueError("renyi kind needs a Renyi order")
    return check.at(order if measure_kind == "renyi" else 1.0)  # the others take none


def check_tighter_three(state: State | GWBlocks, partition: Partition, params: TighterParams,
                        measure_kind: str = "concurrence",
                        order: Optional[float] = None) -> InequalityReport:
    """Tightened three-block bound: when the P1P3 term dominates k times the
    P1P2 term (in c_pow powers), the one-to-rest value dominates
    M(P1P2)^b + h * M(P1P3)^b.

    The coefficient h attaches to the conditioned-larger P1P3 term.  This is
    the multi-block bound at split index 2; only the recorded params differ.
    """
    if partition.n_blocks != 3:
        raise ValueError("need exactly three blocks")
    t = _block_weights(state, partition)
    check = _tightened(_pair_table(t, 0), 2, params, measure_kind, three=True)
    return _tighter_report(check, measure_kind, order)


def check_tighter_multi(state: State | GWBlocks, partition: Partition, split_index: int,
                        params: TighterParams, measure_kind: str = "concurrence",
                        order: Optional[float] = None) -> InequalityReport:
    """Tightened multi-block bound with geometric h weights.

    Blocks are numbered 1..m with P1 distinguished.  The first condition
    chain (pairs 2..split_index dominated k-fold by their suffix rest) feeds
    weights h^(i-2); the second chain (pairs split_index+1..m-1 dominating k
    times their suffix) feeds h^split_index, and the last pair h^(split_index-1).
    """
    t = _block_weights(state, partition)
    check = _tightened(_pair_table(t, 0), split_index, params, measure_kind)
    return _tighter_report(check, measure_kind, order)


def _monogamy_cap(c2s: np.ndarray, d_alice: int) -> Prepared:
    """The games section's monogamy cap on the first block's pair table
    ``c2s``, one entry per block; ``d_alice`` is that block's dimension."""
    cap = math.log2(d_alice) ** 2

    def evaluate(block):
        middle, lhs = _fold(block, 2.0)
        return lhs, np.full(len(block), cap), np.minimum(middle - lhs, cap - middle), middle

    params = {"d": d_alice, "n_blocks": len(c2s)}
    return Prepared("monogamy_cap", _monogamy, params, c2s, evaluate, added=("middle",))


def _trace_bound_renyi(psi: GWBlocks, partition: Partition) -> Prepared:
    """The games section's trace bound across block 0 of ``partition`` against
    its other blocks, which cover the state; each side weighs one ``math.fsum``."""
    if not psi.pure:
        raise ValueError("the trace bound needs a pure state")
    labels = partition.labels
    cut = [math.fsum(psi.weights[side].tolist()) for side in (labels == 0, labels >= 1)]
    c2 = min(_pair_table(cut, 0)[0], 1.0)
    tail = float(_lam_lo(c2))
    lhs = 2.0 * math.sqrt(tail)

    def evaluate(block):
        rhs = 2.0 * np.sqrt(2.0 * block[:, 0])
        return np.full(len(rhs), lhs), rhs, rhs - lhs

    return Prepared("trace_bound_renyi", lambda a: a >= 1.0, {}, np.array([c2]), evaluate,
                    in_window={"lambda0": 1.0 - tail})


def prepare_checks(state: State | GWBlocks, partition: Partition, mu: float = 2.0,
                   tighter: Optional[TighterParams] = None) -> list[Prepared]:
    """``verify``'s checks of a pure state on a partition that covers it, in
    its stream order, with their order-free work done (the README lists
    them); :func:`at_orders` gives their reports.  ``mu`` is the power of
    the power monogamy (mu >= 2) or polygamy (0 < mu <= 1) relation."""
    mu = float(mu)
    if not (math.isfinite(mu) and (0.0 < mu <= 1.0 or mu >= 2.0)):
        raise ValueError(f"mu must lie in (0, 1] or [2, inf), got {mu}")
    psi = GWBlocks.from_state(state)
    partition.require_complete(len(psi.weights))  # the trace bound refuses a mixed state
    t, k = partition.block_sums(psi.weights), partition.n_blocks
    c2 = _pair_table(t, 0)  # one array for every check on block 0's pairs
    square = _power_relation("monogamy_sq", "ge", c2, 0, 2.0)
    if mu == 2.0:  # the square relation under a second name: one fold
        power = square._replace(name="monogamy_power")
    elif mu > 2.0:
        power = _power_relation("monogamy_power", "ge", c2, 0, mu)
    else:
        power = _power_relation("polygamy_power", "le", c2, 0, mu)
    checks = [square, _power_relation("polygamy", "le", c2, 0, 1.0), power]
    if k >= 3:
        t3 = t[:3]
        # the two merged-cut bounds are one relation under two names
        bound = _merged_cut_bound("merged_block_upper_bound", psi.weights, partition.labels, t, c2)
        checks += [_reoa_triangle(t3), bound,
                   bound._replace(name="pair_block_upper_bound")]
    checks.append(_monogamy_cap(c2, coarse_grain(psi.dims, partition)[0]))
    checks.append(_trace_bound_renyi(psi, partition))
    if tighter is not None and k >= 3:
        c3 = _pair_table(t3, 0)
        # CREN equals the concurrence on this family: one check, two names
        conc = _tightened(c3, 2, tighter, "concurrence", three=True)
        cren = conc._replace(name="tighter_three_cren", params={**conc.params, "measure": "cren"})
        checks += [conc, cren, _tightened(c3, 2, tighter, "renyi", three=True)]
        if k >= 4:
            checks.append(_tightened(c2, 1, tighter, "concurrence"))
    return checks


def _oracle_checks(pair_trials: int, trials: int, seed: int) -> tuple[Prepared, Prepared]:
    """The oracle's checks, one row per block pair and one per order; ``roof``
    evaluates their columns and codes from its runs (``oracle_reports``)."""
    added, none = ("closed_form", "roof_min", "roof_max", "converged"), np.empty(0)
    return (Prepared("c_equals_ca", None, {"trials": pair_trials, "seed": seed}, none, None,
                     added=(*added, "pair")),
            Prepared("e_alpha_formula", _monogamy, {"trials": trials, "seed": seed}, none, None,
                     added=(*added, "max_side_checked")))


def _mixture_checks(weights: np.ndarray, w: float,
                    tighter: Optional[TighterParams] = None) -> list[Prepared]:
    """The checks of :func:`run_mixture_suite` on a spec's weights and vacuum
    weight w, each with its ``stage`` in its params: the purified stage reads
    the weights and w (its ancilla party), the mixture stage the weights."""
    tighter = tighter or TighterParams(c_pow=2.0, b_pow=1.0, k=1.0)
    checks = []
    for stage, t in (("purified", np.append(weights, w)), ("mixture", weights)):
        stage_checks = [_power_relation("monogamy_sq", "ge", _pair_table(t, 0), 0, 2.0)]
        if len(t) >= 3:
            c3 = _pair_table(t[:3], 0)
            stage_checks.append(_tightened(c3, 2, tighter, "concurrence", three=True))
        checks += [check._replace(params={**check.params, "stage": stage})
                   for check in stage_checks]
    return checks


def run_mixture_suite(
    spec: GWSpec,
    order: float = 2.0,
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
    psi = GWBlocks.of(spec)
    return at_orders([order], _mixture_checks(psi.weights, psi.vacuum_weight, tighter))

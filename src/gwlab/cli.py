"""Command-line front end.

Subcommands: ``figure`` regenerates the bundled figure datasets as CSV,
``verify`` sweeps every applicable inequality checker over a Renyi-order
grid, ``oracle`` runs the convex-roof estimator against the closed forms,
and ``gamebounds`` tabulates the game gap bounds.  Output is plain CSV or
JSON lines with a fixed numeric format, so identical configurations (and
seeds) produce byte-identical files.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import featured
from .games import (
    LOG_BASE,
    GameBoundInput,
    check_monogamy_cap,
    check_trace_bound_renyi,
    gap_bound,
)
from .inequalities import (
    CSV_HEADER,
    Applicability,
    InequalityReport,
    TighterParams,
    check_merged_block_upper_bound,
    check_monogamy_power,
    check_monogamy_sq,
    check_polygamy,
    check_polygamy_power,
    check_reoa_triangle,
    check_tighter_multi,
    check_tighter_three,
    check_upper_bound_bipartition,
    h_coefficient,
    report_to_csv_row,
    report_to_json_line,
    run_mixture_suite,
)
from .measures import (
    _as_order,
    f_alpha,
    gw_one_to_rest_concurrence_sq,
    gw_pairwise_concurrence,
)
from .roof import oracle_reports
from .states import (
    GWBlocks,
    GWSpec,
    gw_spec_from_json,
    superpose_with_vacuum,
)
from .tensor import Partition

# unused; the benchmark tracer expects these import sites (ROADMAP item 1)
from .roof import verify_c_equals_ca, verify_e_alpha_formula  # noqa: F401
from .states import reduce_to_parties  # noqa: F401

__all__ = [
    "alpha_grid",
    "parse_partition",
    "cmd_figure",
    "cmd_verify",
    "cmd_oracle",
    "cmd_gamebounds",
    "main",
]

#: Default seed when neither --seed nor GWLAB_SEED is given.
DEFAULT_SEED = 271828

#: Default Renyi-order grid: the closed interval where every closed form in
#: this package applies, sampled at 0.005 with the order-1 point excluded.
DEFAULT_ALPHA_GRID = (0.8229, 1.3027, 0.005)

#: Most orders a grid may ask for; the default grid has 96.  A larger grid
#: (a tiny step, or one that float addition cannot advance) is refused
#: before anything is built.
MAX_GRID_ORDERS = 10**5


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def alpha_grid(
    start: float, stop: float, step: float, exclude_one: bool = True
) -> list[float]:
    """Arithmetic grid [start, stop] with an optional hole at order 1."""
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ValueError(f"grid {start}:{stop}:{step} has a non-finite entry")
    if step <= 0:
        raise ValueError("grid step must be positive")
    if (stop - start) / step > MAX_GRID_ORDERS:
        raise ValueError(
            f"grid {start}:{stop}:{step} asks for more than {MAX_GRID_ORDERS} orders"
        )
    values = []
    k = 0
    while True:
        v = start + k * step
        if v > stop + 1e-12:
            break
        if not (exclude_one and abs(v - 1.0) < 1e-9):
            values.append(v)
        k += 1
    return values


def parse_partition(text: str) -> Partition:
    """Blocks separated by '|', members by ','  (e.g. "0|1,2|3")."""
    blocks = []
    for chunk in text.split("|"):
        members = [m for m in chunk.split(",") if m.strip() != ""]
        if not members:
            raise ValueError(f"empty block in partition {text!r}")
        blocks.append({int(m) for m in members})
    return Partition.of(blocks)


def _parse_grid(text: str) -> tuple[float, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be start:stop:step, got {text!r}")
    start, stop, step = (float(p) for p in parts)
    return start, stop, step


def _partition(args: argparse.Namespace, spec: GWSpec) -> Partition:
    """``--partition`` if given, else one block per party."""
    if args.partition:
        return parse_partition(args.partition)
    return Partition.singletons(spec.n)


def _tighter(args: argparse.Namespace) -> Optional[TighterParams]:
    """The tightened-bound exponents: all of --c-pow, --b-pow, --k or none."""
    flags = {"--c-pow": args.c_pow, "--b-pow": args.b_pow, "--k": args.k}
    missing = [flag for flag, value in flags.items() if value is None]
    if len(missing) == len(flags):
        return None
    if missing:
        raise ValueError(
            "the tightened bounds need --c-pow, --b-pow and --k; "
            f"missing {', '.join(missing)}"
        )
    return TighterParams(c_pow=args.c_pow, b_pow=args.b_pow, k=args.k)


def _load_spec(source: str) -> GWSpec:
    text = source
    if not source.lstrip().startswith("{"):
        text = Path(source).read_text()
    return gw_spec_from_json(text)


def _write_lines(lines: list[str], out: Optional[str]) -> None:
    payload = "".join(line + "\n" for line in lines)
    if out is None:
        sys.stdout.write(payload)
    else:
        Path(out).write_text(payload)


def _csv_lines(header: Sequence[str], rows: list[Sequence[str]]) -> list[str]:
    return [",".join(header)] + [",".join(row) for row in rows]


def cmd_figure(fig_id: int, out: Optional[str] = None) -> list[str]:
    """Emit the dataset behind one bundled figure as CSV lines."""
    if fig_id == 1:
        rho, partition = featured.figure1_reduction()
        split = gw_one_to_rest_concurrence_sq(rho, partition, 0)
        c2_pairs = split.pair_sq
        rows = []
        for a in alpha_grid(*DEFAULT_ALPHA_GRID):
            e_pairs = [f_alpha(c2, a) for c2 in c2_pairs]
            lower = math.sqrt(sum(e * e for e in e_pairs))
            mid = f_alpha(split.value, a)
            upper = sum(e_pairs)
            rows.append((_fmt(a), _fmt(lower), _fmt(mid), _fmt(upper)))
        lines = _csv_lines(("alpha", "lower", "e_mid", "upper"), rows)
    elif fig_id == 2:
        psi = featured.figure2_state()
        block_p, block_q, block_r = featured.figure2_blocks()
        rows = []
        for a in alpha_grid(*DEFAULT_ALPHA_GRID):
            report = check_merged_block_upper_bound(
                psi, block_p, block_q, [block_r], a
            )
            rows.append((_fmt(a), _fmt(report.lhs), _fmt(report.rhs)))
        lines = _csv_lines(("alpha", "lhs", "upper_bound"), rows)
    elif fig_id == 3:
        psi = featured.figure3_state()
        c12 = gw_pairwise_concurrence(psi, {0}, {1}).value
        c13 = gw_pairwise_concurrence(psi, {0}, {2}).value
        split = gw_one_to_rest_concurrence_sq(psi, Partition.singletons(3), 0)
        exact_c = math.sqrt(split.value)
        rows = []
        b = 0.0
        idx = 0
        while b <= 2.0 + 1e-12:
            t = b / 2.0
            exact = exact_c**b
            bound_k1 = c12**b + h_coefficient(1.0, t) * c13**b
            bound_k2 = c12**b + h_coefficient(2.0, t) * c13**b
            rows.append((_fmt(b), _fmt(exact), _fmt(bound_k1), _fmt(bound_k2)))
            idx += 1
            b = idx * 0.02
        lines = _csv_lines(("b_pow", "exact", "bound_k1", "bound_k2"), rows)
    else:
        raise ValueError(f"unknown figure id {fig_id}")
    _write_lines(lines, out)
    return lines


def _verify_reports(args: argparse.Namespace) -> list[InequalityReport]:
    tighter = _tighter(args)
    spec = _load_spec(args.spec)
    # every verify check is a closed form, so the block weights stand in for
    # the dense state and no party count is too large
    psi = GWBlocks.of(spec)
    partition = _partition(args, spec)
    partition.require_complete(psi.layout)
    blocks = list(partition.blocks)

    alpha = _parse_grid(args.alpha) if args.alpha else DEFAULT_ALPHA_GRID
    grid = alpha_grid(*alpha, exclude_one=not args.include_one)
    if not grid:
        start, stop, step = alpha
        raise ValueError(f"order grid {start}:{stop}:{step} holds no orders")
    # the concurrence and CREN tightened bounds take no Renyi order, so they
    # are built once and repeated at every order, in the stream's order:
    # three-block concurrence, CREN, Renyi, then the multi-block bound
    order_free: list[InequalityReport] = []
    if tighter is not None and len(blocks) >= 3:
        first_three = Partition.of(blocks[:3])
        order_free = [
            check_tighter_three(psi, first_three, tighter, kind)
            for kind in ("concurrence", "cren")
        ]
        if len(blocks) >= 4:
            order_free.append(
                check_tighter_multi(psi, partition, 1, tighter, "concurrence")
            )
    reports: list[InequalityReport] = []
    for a in grid:
        reports.append(check_monogamy_sq(psi, partition, 0, a))
        reports.append(check_polygamy(psi, partition, 0, a))
        if args.mu >= 2.0:
            reports.append(check_monogamy_power(psi, partition, 0, a, args.mu))
        elif 0.0 < args.mu <= 1.0:
            reports.append(check_polygamy_power(psi, partition, 0, a, args.mu))
        if len(blocks) >= 3:
            p, q, rest = blocks[0], blocks[1], blocks[2:]
            reports.append(check_reoa_triangle(psi, Partition.of(blocks[:3]), a))
            reports.append(check_merged_block_upper_bound(psi, p, q, rest, a))
            reports.append(check_upper_bound_bipartition(psi, p, q, rest, a))
        reports.append(check_monogamy_cap(psi, partition, a))
        reports.append(
            check_trace_bound_renyi(psi, a, (blocks[0], set().union(*blocks[1:])))
        )
        if order_free:
            reports.extend(order_free[:2])
            reports.append(
                check_tighter_three(psi, first_three, tighter, "renyi", order=a)
            )
            reports.extend(order_free[2:])
    if spec.vacuum_weight > 0.0:
        reports.extend(run_mixture_suite(spec, grid[len(grid) // 2], tighter))
    return reports


def cmd_verify(args: argparse.Namespace) -> int:
    """Run every applicable checker over the grid; exit 0 only if no
    applicable check failed."""
    reports = _verify_reports(args)
    if args.format == "csv":
        rows = [report_to_csv_row(r) for r in reports]
        lines = _csv_lines(CSV_HEADER, rows)
    else:
        lines = [report_to_json_line(r) for r in reports]
    _write_lines(lines, args.out)
    failed = [
        r
        for r in reports
        if r.applicability == Applicability.APPLICABLE and not r.satisfied
    ]
    return 1 if failed else 0


def cmd_oracle(args: argparse.Namespace) -> int:
    """Convex-roof estimates plus agreement reports, one JSON object per line.

    Every block pair of the full state, and each order on the first two
    blocks, is one target of ``oracle_reports``, which reduces and
    compresses each pair through ``block_pair_reduction`` and runs all the
    roofs in lockstep."""
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    seed = _env_seed() if args.seed is None else args.seed
    if seed < 0:
        raise ValueError(f"--seed must be non-negative, got {seed}")
    spec = _load_spec(args.spec)
    psi = superpose_with_vacuum(spec)
    partition = _partition(args, spec)
    partition.require_complete(psi.layout)
    if partition.n_blocks < 2:
        raise ValueError("partition needs at least two blocks")
    orders = [_as_order(float(a)) for a in args.alpha.split(",")] if args.alpha else []
    blocks = list(partition.blocks)
    pairs = [(a, b) for i, a in enumerate(blocks) for b in blocks[i + 1 :]]
    targets = [(pair, None) for pair in pairs] + [(pairs[0], a) for a in orders]
    reports = oracle_reports(psi, targets, trials=args.trials, seed=seed)
    for (a, b), report in zip(pairs, reports):
        report.params["pair"] = [sorted(a), sorted(b)]
    _write_lines([report_to_json_line(r) for r in reports], args.out)
    return 0


def cmd_gamebounds(
    n_list: Sequence[int], d_list: Sequence[int], out: Optional[str] = None
) -> list[str]:
    """Gap-bound table over the Cartesian grid of player counts and dimensions."""
    header = ("n", "d", "new_bound", "reference_bound", "tighter", "log_base")
    rows = []
    for n in n_list:
        for d in d_list:
            result = gap_bound(GameBoundInput(n=n, d=d))
            rows.append(
                (
                    str(int(n)),
                    str(int(d)),
                    _fmt(result.new_bound),
                    _fmt(result.reference_bound),
                    str(result.tighter).lower(),
                    str(LOG_BASE),
                )
            )
    lines = _csv_lines(header, rows)
    _write_lines(lines, out)
    return lines


def _int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v.strip() != ""]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gwlab",
        description="Generalized W-class states: measures, inequality "
        "verification, convex-roof oracle and game bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fig = sub.add_parser("figure", help="emit a bundled figure dataset as CSV")
    p_fig.add_argument("fig_id", type=int, choices=(1, 2, 3))
    p_fig.add_argument("--out", default=None)

    p_ver = sub.add_parser("verify", help="run the inequality checkers over a grid")
    p_ver.add_argument("--spec", required=True, help="path to or inline JSON spec")
    p_ver.add_argument("--partition", default=None, help='blocks like "0|1,2|3"')
    p_ver.add_argument("--alpha", default=None, help="order grid start:stop:step")
    p_ver.add_argument("--include-one", action="store_true")
    p_ver.add_argument("--mu", type=float, default=2.0)
    p_ver.add_argument("--c-pow", type=float, default=None)
    p_ver.add_argument("--b-pow", type=float, default=None)
    p_ver.add_argument("--k", type=float, default=None)
    p_ver.add_argument("--format", choices=("csv", "jsonl"), default="jsonl")
    p_ver.add_argument("--out", default=None)

    p_orc = sub.add_parser("oracle", help="convex-roof estimates vs closed forms")
    p_orc.add_argument("--spec", required=True)
    p_orc.add_argument("--partition", default=None)
    p_orc.add_argument("--alpha", default=None, help="comma list of orders")
    p_orc.add_argument("--trials", type=int, default=20000)
    p_orc.add_argument("--seed", type=int, default=None)
    p_orc.add_argument("--out", default=None)

    p_gb = sub.add_parser("gamebounds", help="gap-bound table as CSV")
    p_gb.add_argument("--n", default="1", help="comma list of player counts")
    p_gb.add_argument("--d", default="2", help="comma list of dimensions")
    p_gb.add_argument("--out", default=None)

    return parser


def _env_seed() -> int:
    raw = os.environ.get("GWLAB_SEED")
    if raw is None:
        return DEFAULT_SEED
    try:
        if int(raw) >= 0:
            return int(raw)
    except ValueError:
        pass
    raise ValueError(f"GWLAB_SEED must be a non-negative integer, got {raw!r}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "oracle":
            return cmd_oracle(args)
        if args.command == "figure":
            cmd_figure(args.fig_id, args.out)
        else:
            cmd_gamebounds(_int_list(args.n), _int_list(args.d), args.out)
        return 0
    except (ValueError, KeyError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())

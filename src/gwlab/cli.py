"""Command-line front end.

Subcommands: ``figure`` regenerates the bundled figure datasets as CSV,
``verify`` sweeps the checks of ``inequalities.prepare_checks`` over an
order grid, ``oracle`` runs the convex-roof estimator against the closed
forms, and ``gamebounds`` tabulates the game gap bounds.  ``_parse`` reads
each command's flags from the one table ``_FLAGS``, and every refusal is
one ``error:`` line and exit 2.  Output is plain CSV or JSON lines with a
fixed numeric format, so identical configurations (and seeds) produce
byte-identical files on the same numpy build with the same CPU features.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import Iterable, Optional, Sequence

from . import featured
from .games import LOG_BASE, gap_bound
from .inequalities import (
    CSV_HEADER,
    TighterParams,
    _csv_num,
    _grid,
    _grid_lines,
    _merged_cut_bound,
    _mixture_checks,
    _power_relation,
    h_coefficient,
    prepare_checks,
)
from .measures import _pair_table
from .roof import oracle_lines
from .states import GWBlocks, GWSpec, gw_spec_from_json
from .tensor import Partition

# unused; the benchmark tracer expects these import sites (ROADMAP item 1)
from .games import check_monogamy_cap, check_trace_bound_renyi  # noqa: F401
from .inequalities import (  # noqa: F401
    check_merged_block_upper_bound, check_monogamy_power, check_monogamy_sq,
    check_polygamy, check_polygamy_power, check_reoa_triangle, check_tighter_multi,
    check_tighter_three, check_upper_bound_bipartition, report_to_csv_row, report_to_json_line,
    run_mixture_suite,
)
from .measures import (  # noqa: F401
    f_alpha, gw_one_to_rest_concurrence_sq, gw_pairwise_concurrence,
)
from .roof import verify_c_equals_ca, verify_e_alpha_formula  # noqa: F401
from .states import reduce_to_parties, superpose_with_vacuum  # noqa: F401

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
#: this package applies, sampled at 0.005.  No order lies within 1e-9 of 1
#: (0.9979 and 1.0029 are nearest), so ``--include-one`` changes nothing on it.
DEFAULT_ALPHA_GRID = (0.8229, 1.3027, 0.005)

#: Most orders a grid may ask for; the default grid has 96.  A larger grid
#: (a tiny step, or one that float addition cannot advance) is refused
#: before anything is built.
MAX_GRID_ORDERS = 10**5


def alpha_grid(
    start: float, stop: float, step: float, exclude_one: bool = True
) -> list[float]:
    """Arithmetic grid [start, stop] with an optional hole at order 1.

    An order past stop by at most 1e-9 steps, float rounding of start +
    k * step, still ends the grid.  A grid never holds one order twice: a
    step that float addition cannot advance is refused, also when the grid
    ends anyway."""
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ValueError(f"grid {start}:{stop}:{step} has a non-finite entry")
    if step <= 0:
        raise ValueError("grid step must be positive")
    values = []
    previous, repeated = None, False
    # bounded by count: below the spacing of start, start + k * step stalls
    for k in range(MAX_GRID_ORDERS + 1):
        v = start + k * step
        if v > stop + 1e-9 * step:
            break
        repeated = repeated or v == previous
        previous = v
        if not (exclude_one and abs(v - 1.0) < 1e-9):
            values.append(v)
    else:
        raise ValueError(
            f"grid {start}:{stop}:{step} asks for more than {MAX_GRID_ORDERS} orders"
        )
    if repeated:
        raise ValueError(
            f"grid {start}:{stop}:{step} repeats an order: its step does not "
            "advance past the float spacing of its orders"
        )
    return values


@contextlib.contextmanager
def _converting(flag: str):
    """Name ``flag`` in front of the refusal of a conversion of its value."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None


def parse_partition(text: str, n_parties: int) -> Partition:
    """Blocks separated by '|', members by ','  (e.g. "0|1,2|3") of parties
    0..n_parties-1; a party listed twice, in one block or two, is refused."""
    blocks = [[m for m in chunk.split(",") if m.strip() != ""] for chunk in text.split("|")]
    if not all(blocks):
        raise ValueError(f"empty block in partition {text!r}")
    with _converting("--partition"):
        blocks = [[int(m) for m in members] for members in blocks]
    out = [p for members in blocks for p in members if not 0 <= p < n_parties]
    if out:
        raise ValueError(f"party {out[0]} out of range for {n_parties} parties")
    return Partition.of(blocks)


def _parse_grid(text: str) -> tuple[float, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be start:stop:step, got {text!r}")
    with _converting("--alpha"):
        return tuple(map(float, parts))


def _tighter(args: SimpleNamespace) -> Optional[TighterParams]:
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


def _load_blocks(args: SimpleNamespace) -> tuple[GWBlocks, Partition]:
    """The spec's block weights, not the spec (no dense state, so no party count
    is too large), and ``--partition`` or one block per party, checked complete."""
    psi = GWBlocks.of(_load_spec(args.spec))
    n = len(psi.weights)
    partition = (
        parse_partition(args.partition, n) if args.partition is not None
        else Partition.singletons(n)
    )
    partition.require_complete(n)
    return psi, partition


def _write_lines(lines: Iterable[str], out: Optional[str]) -> None:
    """The one writer: one ``writelines`` of newline-ended lines to ``out`` or stdout."""
    stream = contextlib.nullcontext(sys.stdout) if out is None else open(out, "w")
    with stream as file:
        file.writelines(lines)


def cmd_figure(fig_id: int, out: Optional[str] = None) -> list[str]:
    """Emit the dataset behind one bundled figure as newline-ended CSV lines.

    Every column is a closed form, so the figures run on block weights.
    Figures 1 and 2 read the columns of :func:`_grid` and build no report;
    the default grid lies in both windows."""
    psi = GWBlocks.of(featured.figure_spec(fig_id))
    grid = alpha_grid(*DEFAULT_ALPHA_GRID)
    if fig_id == 1:
        # lower is the monogamy bound, upper the polygamy one, on E(0|12)
        c2 = _pair_table(psi.weights[:3], 0)
        _, _, (sq, poly) = _grid(grid, [_power_relation("monogamy_sq", "ge", c2, 0, 2.0),
                                        _power_relation("polygamy", "le", c2, 0, 1.0)])
        header = ("alpha", "lower", "e_mid", "upper")
        rows = zip(grid, map(math.sqrt, sq[1]), poly[0], poly[1])
    elif fig_id == 2:
        partition = Partition.of(featured.figure2_blocks())
        t = partition.block_sums(psi.weights)
        bound = _merged_cut_bound("merged_block_upper_bound", psi.weights, partition.labels, t,
                                  _pair_table(t, 0))
        _, _, [(lhs, rhs, _)] = _grid(grid, [bound])
        header, rows = ("alpha", "lhs", "upper_bound"), zip(grid, lhs, rhs)
    else:
        exact_c, c12, c13 = map(math.sqrt, _pair_table(psi.weights, 0))
        header, rows = ("b_pow", "exact", "bound_k1", "bound_k2"), []
        for b in (i * 0.02 for i in range(101)):
            bounds = [c12**b + h_coefficient(k, b / 2.0) * c13**b for k in (1.0, 2.0)]
            rows.append((b, exact_c**b, *bounds))
    template = ",".join(["%.12g"] * len(header)) + "\n"
    lines = [",".join(header) + "\n", *map(template.__mod__, rows)]
    _write_lines(lines, out)
    return lines


def _verify_checks(
    args: SimpleNamespace,
) -> tuple[Sequence[float], float, Optional[TighterParams], list, list]:
    """The job's weights and vacuum weight (what the mixture suite reads; the
    loaded blocks and partition die here), tightened-bound exponents, order
    grid and the checks of :func:`prepare_checks`, order-free work done once."""
    tighter = _tighter(args)
    psi, partition = _load_blocks(args)
    alpha = DEFAULT_ALPHA_GRID if args.alpha is None else _parse_grid(args.alpha)
    grid = alpha_grid(*alpha, exclude_one=not args.include_one)
    if not grid:
        start, stop, step = alpha
        raise ValueError(f"order grid {start}:{stop}:{step} holds no orders")
    checks = prepare_checks(psi, partition, args.mu, tighter)
    return psi.weights, psi.vacuum_weight, tighter, grid, checks


def cmd_verify(args: SimpleNamespace) -> int:
    """Run every applicable checker over the grid, then, on a spec with a
    vacuum weight, the mixture suite at the grid's middle order; exit 0 only
    if no applicable check failed.  Both are evaluated once as columns, and
    one writer makes every line from them, one ``%`` template per check and
    verdict, with the bytes of its report (no report is built)."""
    weights, w, tighter, grid, checks = _verify_checks(args)
    csv = args.format == "csv"
    failed, lines = _grid_lines(grid, checks, csv)
    if w > 0.0:
        mixed, more = _grid_lines([grid[len(grid) // 2]], _mixture_checks(weights, w, tighter), csv)
        failed, lines = failed or mixed, itertools.chain(lines, more)
    _write_lines(itertools.chain([",".join(CSV_HEADER) + "\n"], lines) if csv else lines, args.out)
    return int(failed)


def cmd_oracle(args: SimpleNamespace) -> int:
    """The lines of ``oracle_lines``, one per report of ``oracle_reports`` on
    every block pair and each order on the first two.  That call refuses a
    bad trial count, seed or order, and more than ``roof.MAX_ORACLE_TARGETS``
    targets, before any roof runs.  Exits 0 whatever the verdicts."""
    seed = _env_seed() if args.seed is None else args.seed
    psi, partition = _load_blocks(args)
    with _converting("--alpha"):
        orders = [] if args.alpha is None else [float(a) for a in args.alpha.split(",")]
    _write_lines(oracle_lines(psi, partition, orders, trials=args.trials, seed=seed), args.out)
    return 0


def cmd_gamebounds(
    n_list: Sequence[int], d_list: Sequence[int], out: Optional[str] = None
) -> list[str]:
    """Newline-ended CSV gap-bound table over the grid of player counts and dimensions."""
    header = ("n", "d", "new_bound", "reference_bound", "tighter", "log_base")
    rows = []
    for n, d in itertools.product(n_list, d_list):
        new_bound, reference = gap_bound(n, d)
        rows.append((str(int(n)), str(int(d)), _csv_num(new_bound), _csv_num(reference),
                     str(new_bound < reference).lower(), str(LOG_BASE)))
    lines = [",".join(header) + "\n"] + [",".join(row) + "\n" for row in rows]
    _write_lines(lines, out)
    return lines


def _int_list(flag: str, text: str) -> list[int]:
    """The integers of a comma list, refused when it holds none."""
    with _converting(flag):
        values = [int(v) for v in text.split(",") if v.strip() != ""]
    if not values:
        raise ValueError(f"{flag} needs at least one integer, got {text!r}")
    return values


_OUT = {"--out": (str, None, "write to this file, not stdout")}
_STATE = {"--spec": (str, ..., "path to or inline JSON spec"),
          "--partition": (str, None, 'blocks like "0|1,2|3"; default one per party')}
#: Each command's flags, name: (kind, default, help).  A kind converts the
#: value, lists the texts accepted, or is None for a switch (no value); a
#: default ``...`` marks a required flag, a name without ``--`` a positional.
_FLAGS = {
    "figure": {"fig_id": (("1", "2", "3"), ..., "the figure: 1, 2 or 3"), **_OUT},
    "verify": {**_STATE, "--alpha": (str, None, "order grid start:stop:step"),
               "--include-one": (None, False, "keep the orders within 1e-9 of 1"),
               "--mu": (float, 2.0, "exponent of the power relations"),
               "--c-pow": (float, None, "tightened bounds: conditioning concurrence power"),
               "--b-pow": (float, None, "tightened bounds: bounded concurrence power"),
               "--k": (float, None, "tightened bounds: k >= 1 of the coefficient h"),
               "--format": (("csv", "jsonl"), "jsonl", "csv or jsonl"), **_OUT},
    "oracle": {**_STATE, "--alpha": (str, None, "comma list of orders"),
               "--trials": (int, 20000, "roof trials per target"),
               "--seed": (int, None, f"default: GWLAB_SEED, else {DEFAULT_SEED}"), **_OUT},
    "gamebounds": {"--n": (str, "1", "comma list of player counts"),
                   "--d": (str, "2", "comma list of dimensions"), **_OUT},
}


def _parse(argv: Sequence[str]) -> Optional[SimpleNamespace]:
    """The command and its flags' values, or None once ``--help`` is printed.

    A value follows its flag or an ``=``; a token that starts with ``--``
    is never a value, and the last of a repeated flag wins."""
    command = argv[0] if argv else None
    if command not in (*_FLAGS, "-h", "--help"):
        raise ValueError(("no command" if command is None else f"unknown command {command!r}")
                         + f"; the commands are {', '.join(_FLAGS)}")
    if "-h" in argv or "--help" in argv:
        flags = _FLAGS.get(command, {})
        lines = [f"  {n:<15}{t}{' (required)' if d is ... else f' (default {d})' if d else ''}\n"
                 for n, (_, d, t) in flags.items()]
        _write_lines([f"usage: gwlab {command if flags else '<command>'} [flags]\n",
                      *(lines or [f"commands: {', '.join(_FLAGS)}\n"])], None)
        return None
    flags, given, tokens = _FLAGS[command], {}, iter(argv[1:])
    positional = [name for name in flags if not name.startswith("--")]
    for token in tokens:
        name, eq, text = token.partition("=")
        if not token.startswith("--"):
            if not positional:
                raise ValueError(f"unexpected argument {token!r}")
            name, text = positional.pop(0), token
        elif name not in flags:
            raise ValueError(f"{command} has no flag {name}")
        elif flags[name][0] is None:
            if eq:
                raise ValueError(f"{name} takes no value")
            text = True
        elif not eq:
            text = next(tokens, "--")  # none left: as if another flag came
            if text.startswith("--"):
                raise ValueError(f"{name} needs a value")
        given[name] = text
    values = {"command": command}
    for name, (kind, default, _) in flags.items():
        text = given.get(name, default)
        if text is ...:
            raise ValueError(f"{command} needs {name}")
        if isinstance(kind, tuple) and text not in kind:
            raise ValueError(f"{name} must be one of {', '.join(kind)}, got {text!r}")
        with _converting(name):
            values[name.lstrip("-").replace("-", "_")] = (
                kind(text) if callable(kind) and name in given else text)
    return SimpleNamespace(**values)


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
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        if args is None:
            return 0
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "oracle":
            return cmd_oracle(args)
        if args.command == "figure":
            cmd_figure(int(args.fig_id), args.out)
        else:
            cmd_gamebounds(_int_list("--n", args.n), _int_list("--d", args.d), args.out)
        return 0
    except (ValueError, KeyError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception:  # a fault of the program, never a verdict: exit 1 means a violation
        import traceback  # only a fault needs it; importing it costs every start

        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())

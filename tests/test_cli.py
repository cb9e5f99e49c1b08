"""Command-line behavior: datasets, exit codes and byte determinism."""

import copy
import csv
import json
import math
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import gwlab.cli
import gwlab.games
import gwlab.inequalities
import gwlab.measures
import gwlab.roof
import gwlab.tensor
from gwlab import (
    GWBlocks,
    GWSpec,
    Partition,
    at_orders,
    gw_spec_from_json,
    gw_spec_to_json,
    oracle_reports,
    prepare_checks,
    report_to_json_line,
    verify_c_equals_ca,
    verify_e_alpha_formula,
)
from gwlab.cli import (
    DEFAULT_ALPHA_GRID, _parse, alpha_grid, cmd_figure, cmd_gamebounds, main, parse_partition,
)
from gwlab.featured import FIG1_AMPLITUDES

from conftest import MANY_STACK_ORDERS, MANY_STACK_PARTIES, many_stack_spec


@pytest.fixture
def spec_file(tmp_path):
    spec = GWSpec.qubit(FIG1_AMPLITUDES)
    path = tmp_path / "spec.json"
    path.write_text(gw_spec_to_json(spec))
    return str(path)


def _read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_alpha_grid_excludes_one():
    grid = alpha_grid(0.99, 1.01, 0.005)
    assert all(abs(v - 1.0) > 1e-9 for v in grid)
    assert len(grid) == 4
    full = alpha_grid(0.8229, 1.3027, 0.005)
    assert len(full) == 96
    assert full[0] == pytest.approx(0.8229)
    assert full[-1] <= 1.3027 + 1e-12


def test_default_grid_holds_no_order_near_one():
    # the default grid passes order 1 at 0.0021, so --include-one changes
    # nothing on it; on 0.83:1.30:0.01 it adds the order-1 point
    grid = alpha_grid(*DEFAULT_ALPHA_GRID)
    assert grid == alpha_grid(*DEFAULT_ALPHA_GRID, exclude_one=False)
    assert min(abs(v - 1.0) for v in grid) > 2e-3
    assert len(alpha_grid(0.83, 1.30, 0.01, exclude_one=False)) == 48
    assert len(alpha_grid(0.83, 1.30, 0.01)) == 47


def test_grid_end_tolerance_scales_with_the_step():
    # grids far below 1e-12: a fixed absolute tolerance would run past their stop
    assert alpha_grid(1e-13, 5e-13, 1e-13) == [1e-13 + k * 1e-13 for k in range(5)]
    assert alpha_grid(1e-320, 1e-319, 1e-320) == [1e-320 + k * 1e-320 for k in range(10)]
    # the default, bench and pinned grids keep their orders
    for grid, size in ((DEFAULT_ALPHA_GRID, 96), ((0.83, 1.30, 0.01), 48),
                       ((0.83, 1.30, 0.05), 10), ((0.6, 1.6, 0.05), 21)):
        start, _, step = grid
        assert alpha_grid(*grid, exclude_one=False) == [start + k * step for k in range(size)]


def test_parse_partition():
    p = parse_partition("0|1,2|3", 4)
    assert [sorted(b) for b in p.blocks] == [[0], [1, 2], [3]]
    with pytest.raises(ValueError):
        parse_partition("0||2", 3)


def test_figure1_rows_ordered(tmp_path):
    out = tmp_path / "fig1.csv"
    cmd_figure(1, str(out))
    rows = _read_csv(out)
    assert len(rows) == 96
    for row in rows:
        lower, mid, upper = (float(row[k]) for k in ("lower", "e_mid", "upper"))
        assert lower <= mid + 1e-9
        assert mid <= upper + 1e-9


def test_figure2_rows_bounded(tmp_path):
    out = tmp_path / "fig2.csv"
    cmd_figure(2, str(out))
    rows = _read_csv(out)
    assert len(rows) == 96
    for row in rows:
        assert float(row["lhs"]) <= float(row["upper_bound"]) + 1e-9


def test_figure3_rows_dominance(tmp_path):
    out = tmp_path / "fig3.csv"
    cmd_figure(3, str(out))
    rows = _read_csv(out)
    assert len(rows) == 101
    assert float(rows[0]["b_pow"]) == 0.0
    assert float(rows[-1]["b_pow"]) == pytest.approx(2.0)
    for row in rows:
        exact = float(row["exact"])
        k1, k2 = float(row["bound_k1"]), float(row["bound_k2"])
        assert k2 >= k1 - 1e-12
        assert exact >= k2 - 1e-9


def test_figure_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    cmd_figure(2, str(a))
    cmd_figure(2, str(b))
    assert a.read_bytes() == b.read_bytes()


GOLDEN = Path(__file__).resolve().parent.parent / "bench" / "golden"


@pytest.mark.parametrize("fig_id", [1, 2, 3])
def test_figure_matches_golden_without_dense_state(fig_id, monkeypatch, tmp_path):
    def refuse(self):
        raise AssertionError(f"{type(self).__name__} built")

    def no_reports(grid, checks):
        raise AssertionError("reports built")

    monkeypatch.setattr(gwlab.tensor.PureState, "__post_init__", refuse)
    monkeypatch.setattr(gwlab.tensor.DensityOperator, "__post_init__", refuse)
    # figures 1 and 2 read the grid's columns and build no report
    monkeypatch.setattr(gwlab.cli, "at_orders", no_reports, raising=False)
    monkeypatch.setattr(gwlab.inequalities, "at_orders", no_reports)
    out = tmp_path / f"figure{fig_id}.csv"
    assert main(["figure", str(fig_id), "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"figure{fig_id}.csv").read_bytes()


def test_verify_exit_zero_and_jsonl(spec_file, tmp_path):
    out = tmp_path / "reports.jsonl"
    code = main(
        [
            "verify",
            "--spec",
            spec_file,
            "--partition",
            "0|1|2|3",
            "--alpha",
            "0.9:1.25:0.05",
            "--mu",
            "2",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    reports = [json.loads(line) for line in out.read_text().splitlines()]
    assert reports
    names = {r["name"] for r in reports}
    assert {"monogamy_sq", "polygamy", "monogamy_power", "reoa_triangle"} <= names
    for r in reports:
        assert set(r) == {
            "name",
            "lhs",
            "rhs",
            "slack",
            "satisfied",
            "applicability",
            "params",
        }
        if r["applicability"] == "APPLICABLE":
            assert r["satisfied"]


def test_verify_csv_projection(spec_file, tmp_path):
    out = tmp_path / "reports.csv"
    code = main(
        [
            "verify",
            "--spec",
            spec_file,
            "--alpha",
            "0.9:1.2:0.1",
            "--format",
            "csv",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "name,alpha,mu,k,lhs,rhs,slack,satisfied"


def _flip_monogamy_sq(monkeypatch):
    # monogamy_sq run "le": it fails at every order of its (polygamy) window;
    # prepare_checks and the mixture suite both build it in gwlab.inequalities
    relation = gwlab.inequalities._power_relation

    def flipped(name, direction, *rest):
        return relation(name, "le" if name == "monogamy_sq" else direction, *rest)

    monkeypatch.setattr(gwlab.inequalities, "_power_relation", flipped)


def _flip_mixture_monogamy_sq(monkeypatch):
    # the flip above, only while cli builds the mixture suite's checks
    mixture_checks = gwlab.cli._mixture_checks

    def flipped(*args):
        with monkeypatch.context() as patch:
            _flip_monogamy_sq(patch)
            return mixture_checks(*args)

    monkeypatch.setattr(gwlab.cli, "_mixture_checks", flipped)


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_verify_exits_one_on_violation(spec_file, tmp_path, monkeypatch, fmt):
    args = ["verify", "--spec", spec_file, "--partition", "0|1,2|3", "--c-pow", "2",
            "--b-pow", "1", "--k", "2", "--format", fmt]
    grid = ["--alpha", "0.6:1.6:0.05"]
    passing, failing = tmp_path / f"pass.{fmt}", tmp_path / f"fail.{fmt}"
    # out-of-window and condition-unmet lines are written, and exit 0
    assert main(args + grid + ["--out", str(passing)]) == 0
    if fmt == "jsonl":
        tags = {json.loads(line)["applicability"] for line in passing.read_text().splitlines()}
        assert tags == {"APPLICABLE", "OUT_OF_WINDOW", "CONDITION_UNMET"}
    _flip_monogamy_sq(monkeypatch)
    assert main(args + grid + ["--out", str(failing)]) == 1
    lines = failing.read_text().splitlines()
    assert len(lines) == len(passing.read_text().splitlines())
    if fmt == "jsonl":
        docs = [json.loads(line) for line in lines if '"name": "monogamy_sq"' in line]
        failed = [doc for doc in docs if not doc["satisfied"]]
        assert failed and all(doc["applicability"] == "APPLICABLE" for doc in failed)
        assert all('"satisfied": false' in line for line in lines
                   if '"name": "monogamy_sq"' in line and '"APPLICABLE"' in line)
    else:
        rows = [row.split(",") for row in lines[1:] if row.startswith("monogamy_sq,")]
        failed = [row for row in rows if row[-1] == "false"]
        assert failed and all(row[4] != "" for row in failed)
        assert all(row[-1] == "false" for row in rows if row[4] != "")
    # past the polygamy window the flipped check is out of window: exit 0
    assert main(args + ["--alpha", "1.35:1.6:0.05", "--out", str(failing)]) == 0


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_verify_exits_one_on_mixture_violation(tmp_path, monkeypatch, fmt):
    # the mixture suite's verdicts set the exit code as the grid's do; its
    # middle order (1.0629) lies in the polygamy window
    spec = gw_spec_to_json(GWSpec.qubit([0.6, 0.48, 0.64], 0.3))
    args = ["verify", "--spec", spec, "--format", fmt]
    passing, failing = tmp_path / f"pass.{fmt}", tmp_path / f"fail.{fmt}"
    assert main(args + ["--out", str(passing)]) == 0
    _flip_mixture_monogamy_sq(monkeypatch)
    assert main(args + ["--out", str(failing)]) == 1
    before, after = passing.read_text().splitlines(), failing.read_text().splitlines()
    assert len(after) == len(before)
    changed = [i for i, (b, a) in enumerate(zip(before, after)) if b != a]
    # only the mixture suite's monogamy_sq lines, last in the stream, move
    assert changed and min(changed) >= len(after) - 4
    if fmt == "jsonl":
        docs = [json.loads(after[i]) for i in changed]
        assert all(doc["name"] == "monogamy_sq" and "stage" in doc["params"] for doc in docs)
        assert not any(doc["satisfied"] for doc in docs)
    else:
        assert all(after[i].startswith("monogamy_sq,") for i in changed)
        assert all(after[i].endswith(",false") for i in changed)


def test_verify_writes_no_negative_zero(tmp_path):
    # a product state's entanglement is zero at every order, also above
    # order 1, where 0.0 / (1 - a) is -0.0; no line writes a negative zero
    spec = '{"n":2,"d":2,"amplitudes":[[1,0],[0,0]],"vacuum_weight":0.5}'
    for fmt in ("csv", "jsonl"):
        out = tmp_path / f"r.{fmt}"
        assert main(["verify", "--spec", spec, "--format", fmt, "--out", str(out)]) == 0
        text = out.read_text()
        if fmt == "csv":
            rows = text.splitlines()
            assert "trace_bound_renyi,1.2979,,,0,0,0,true" in rows
            assert not any("-0" in row.split(",") for row in rows)
        else:
            assert "-0.0," not in text and "-0.0}" not in text


def test_verify_inline_spec(tmp_path):
    spec = gw_spec_to_json(GWSpec.qubit([0.6, 0.8]))
    out = tmp_path / "r.jsonl"
    code = main(["verify", "--spec", spec, "--alpha", "1.1:1.1:1", "--out", str(out)])
    assert code == 0


def test_verify_malformed_spec_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        '{"n": 4, "d": 2, "amplitudes": [[0.9, 0], [0.5, 0], [0.4, 0], [0.3, 0]],'
        ' "vacuum_weight": 0.0}'
    )
    assert main(["verify", "--spec", str(bad)]) == 2
    missing = tmp_path / "missing.json"
    assert main(["verify", "--spec", str(missing)]) == 2
    # amplitude entries that are not [re, im] pairs
    unpaired = '{"n": 2, "d": 2, "amplitudes": [1.0, 0.0], "vacuum_weight": 0.0}'
    assert main(["verify", "--spec", unpaired]) == 2
    # 1e400 parses as an infinite float, which no party count equals; a
    # count that is not integral, a bool or a string, and a bool or a string
    # for an amplitude or the vacuum weight, are no JSON numbers of the spec
    fields = [("1e400", "2", "[1,0]", "0.0"), ("2", "1e400", "[1,0]", "0.0"),
              ("-1e400", "2", "[1,0]", "0.0"), ("2.9", "2", "[1,0]", "0.0"),
              ('"2"', "2", "[1,0]", "0.0"), ("true", "2", "[1,0]", "0.0"),
              ("2", '"2"', "[1,0]", "0.0"), ("2", "2.5", "[1,0]", "0.0"),
              ("2", "2", "[1,0]", '"0.1"'), ("2", "2", "[true,0]", "0.0"),
              ("2", "2", '[1,"0"]', "0.0"), ("2", "2", "[1,0]", "false")]
    for n, d, first, w in fields:
        spec = f'{{"n":{n},"d":{d},"amplitudes":[{first},[0,0]],"vacuum_weight":{w}}}'
        for command in ("verify", "oracle"):
            capsys.readouterr()
            assert main([command, "--spec", spec]) == 2, spec
            assert "malformed GW spec document" in capsys.readouterr().err, spec
    # a spec nested deeper than the JSON decoder recurses, and text that is
    # not JSON, are malformed documents too, not a traceback with exit 1
    nested = "[" * 1000 + "]" * 1000
    deep = f'{{"n":{nested},"d":2,"amplitudes":[[1,0],[0,0]],"vacuum_weight":0}}'
    for spec in (deep, '{"n": 2,'):
        for command in ("verify", "oracle"):
            capsys.readouterr()
            assert main([command, "--spec", spec]) == 2, spec[:20]
            err = capsys.readouterr().err
            assert "malformed GW spec document" in err and "Traceback" not in err, spec[:20]
    # too few parties or levels is named as such, also when the amplitudes match
    for n, d, amplitudes in ((1, 2, "[[1,0]]"), (2, 1, "[]"), (1, 1, "[]")):
        spec = f'{{"n":{n},"d":{d},"amplitudes":{amplitudes},"vacuum_weight":0}}'
        for command in ("verify", "oracle"):
            capsys.readouterr()
            assert main([command, "--spec", spec]) == 2, spec
            err = capsys.readouterr().err
            assert "needs n >= 2 parties and d >= 2 levels" in err and "match" not in err, spec
    # an integral float is a count: 2.0 parties are 2
    spec = '{"n":2.0,"d":2.0,"amplitudes":[[1,0],[0,0]],"vacuum_weight":0}'
    assert main(["verify", "--spec", spec, "--alpha", "1.1:1.1:1"]) == 0


#: Each rejected order grid and the reason its error names.
BAD_GRIDS = {
    "0.9:inf:0.1": "non-finite",
    "0.9:1.3:nan": "non-finite",
    "nan:1.3:0.1": "non-finite",
    # 0.9 + k * 1e-300 == 0.9, so a grid built without a size check never ends
    "0.9:1.3:1e-300": "more than 100000 orders",
    "0.9:1.3:1e-9": "more than 100000 orders",
    # (stop - start) / step is 0, yet 1e300 + k == 1e300 for every k that a
    # list can hold: a size check on that quotient lets the grid grow until
    # memory runs out
    "1e300:1e300:1": "more than 100000 orders",
    # 1e17 + k == 1e17 for k < 9, so the grid would end holding 1e17 nine times
    "1e17:1e17:1": "repeats an order",
    # the step advances from 2**53 - 2 to 2**53, then 2**53 + 1 rounds back
    "9007199254740990:9007199254740996:1": "repeats an order",
}


@pytest.mark.parametrize("grid", list(BAD_GRIDS))
def test_verify_bad_grid_exit_two(spec_file, grid, capsys):
    why = BAD_GRIDS[grid]
    start, stop, step = (float(v) for v in grid.split(":"))
    with pytest.raises(ValueError, match=why):
        alpha_grid(start, stop, step)
    assert main(["verify", "--spec", spec_file, "--alpha", grid]) == 2
    assert why in capsys.readouterr().err


def test_verify_empty_grid_exit_two(spec_file, tmp_path, capsys):
    out = tmp_path / "r.jsonl"
    args = ["verify", "--spec", spec_file, "--out", str(out)]
    assert main(args + ["--alpha", "1.3:0.9:0.1"]) == 2
    assert main(args + ["--alpha", "1:1:1"]) == 2  # only order 1, excluded
    assert "holds no orders" in capsys.readouterr().err
    assert not out.exists()


def test_parser_is_built_once_and_reused(spec_file, tmp_path, capsys):
    # main runs many times in one process: a refused call and --help must
    # leave the flag table, built once at import, as it was, and the next
    # call's bytes as a first call's
    table = copy.deepcopy(gwlab.cli._FLAGS)
    good = ["oracle", "--spec", spec_file, "--trials", "100", "--alpha", "1.1", "--out"]
    assert main(good + [str(tmp_path / "a.jsonl")]) == 0
    assert main(["oracle", "--spec", spec_file, "--trials", "many"]) == 2
    assert main(["oracle", "--help"]) == 0
    assert "usage: gwlab oracle" in capsys.readouterr().out
    assert main(good + [str(tmp_path / "b.jsonl")]) == 0
    assert gwlab.cli._FLAGS == table
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()


COMMANDS = "the commands are figure, verify, oracle, gamebounds"


@pytest.mark.parametrize(
    "argv, why",
    [
        (["verify", "--spec", "S", "--bogus", "1"], "verify has no flag --bogus"),
        (["oracle", "--spec", "S", "--tri", "10"], "oracle has no flag --tri"),
        (["verify", "--spec", "S", "--"], "verify has no flag --"),
        (["verify", "--spec", "S", "--alpha"], "--alpha needs a value"),
        (["verify", "--spec", "--mu", "2"], "--spec needs a value"),
        (["verify", "--spec", "S", "--include-one=x"], "--include-one takes no value"),
        (["verify", "--spec", "S", "--format", "xml"],
         "--format must be one of csv, jsonl, got 'xml'"),
        (["oracle", "--spec", "S", "--trials", "1e3"],
         "--trials: invalid literal for int() with base 10: '1e3'"),
        (["verify"], "verify needs --spec"),
        (["figure", "4"], "fig_id must be one of 1, 2, 3, got '4'"),
        (["figure", "1", "2"], "unexpected argument '2'"),
        ([], f"no command; {COMMANDS}"),
        (["plot"], f"unknown command 'plot'; {COMMANDS}"),
    ],
    ids=["unknown-flag", "abbreviated-flag", "double-dash", "no-value-at-end",
         "no-value-before-flag", "switch-with-value", "format-xml", "trials-1e3",
         "verify-no-spec", "figure-4", "figure-two-ids", "no-command", "unknown-command"],
)
def test_parse_refusals_exit_two(spec_file, tmp_path, capsys, argv, why):
    # a refusal of the command line is one error line and exit 2, as every
    # other refusal is, before any file is opened
    out = tmp_path / "r.out"
    argv = [spec_file if a == "S" else a for a in argv]
    argv = argv[:1] + ["--out", str(out)] + argv[1:] if argv else argv
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {why}\n")
    assert not out.exists()


def test_flag_forms_and_repeats(spec_file, tmp_path):
    # --flag=value is --flag value, the last of a repeated flag wins, a
    # value may start with one dash, and figure's id may follow --out
    spaced = ["oracle", "--spec", spec_file, "--trials", "100", "--alpha", "1.1"]
    joined = ["oracle", f"--spec={spec_file}", "--trials=100", "--alpha=1.1"]
    repeated = ["oracle", "--trials", "7", "--spec", spec_file, "--alpha", "0.9"] + spaced[3:]
    outs = [tmp_path / f"{i}.jsonl" for i in range(3)]
    for argv, out in zip([spaced, joined, repeated], outs):
        assert main(argv + ["--out", str(out)]) == 0
    assert _parse(spaced) == _parse(joined) == _parse(repeated)
    assert len({out.read_bytes() for out in outs}) == 1
    assert _parse(spaced + ["--seed", "-1"]).seed == -1
    assert _parse(["figure", "--out", "f.csv", "2"]) == _parse(["figure", "2", "--out=f.csv"])


@pytest.mark.parametrize("command", list(gwlab.cli._FLAGS))
def test_help_names_every_flag_of_the_table(capsys, command):
    # --help is built from the table, so it cannot leave a flag out
    assert main([command, "--help"]) == 0
    out, err = capsys.readouterr()
    assert out.startswith(f"usage: gwlab {command}") and err == ""
    assert all(f"  {name} " in out for name in gwlab.cli._FLAGS[command])
    assert main(["-h"]) == 0
    assert capsys.readouterr().out.startswith("usage: gwlab <command>")


def _gwlab_child(*args):
    """A fresh interpreter that imports gwlab from this checkout."""
    env = dict(os.environ, PYTHONPATH=str(Path(gwlab.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=120)


def test_a_run_imports_no_argparse(spec_file, tmp_path):
    # the command line is parsed without argparse, whose parser build, with
    # gettext importing locale, was the largest start-up cost a job paid
    code = ("import sys; from gwlab.cli import main\n"
            "codes = [main(['verify', '--spec', sys.argv[1], '--out', sys.argv[2]]),\n"
            "         main(['figure', '1', '--out', sys.argv[2]])]\n"
            "print(codes, sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))")
    proc = _gwlab_child("-c", code, spec_file, str(tmp_path / "out"))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[0, 0] []\n", "")
    # the console script calls main() with no arguments: it reads sys.argv
    proc = _gwlab_child("-m", "gwlab.cli", "--help")
    assert proc.returncode == 0 and proc.stdout.startswith("usage: gwlab <command>")
    proc = _gwlab_child("-m", "gwlab.cli")
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: no command; {COMMANDS}\n")


TIGHTER_FLAGS = ("--c-pow", "--b-pow", "--k")


@pytest.mark.parametrize(
    "given", [["--c-pow"], ["--k"], ["--c-pow", "--b-pow"], ["--b-pow", "--k"]]
)
def test_verify_partial_tightened_flags_exit_two(spec_file, tmp_path, capsys, given):
    # the tightened bounds need all three exponents; a partial set used to
    # drop every tightened bound and exit 0
    out = tmp_path / "r.jsonl"
    values = {"--c-pow": "2", "--b-pow": "1", "--k": "2"}
    args = ["verify", "--spec", spec_file, "--out", str(out)]
    args += [v for flag in given for v in (flag, values[flag])]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    missing = [flag for flag in TIGHTER_FLAGS if flag not in given]
    assert err.rstrip().endswith("missing " + ", ".join(missing))
    assert not out.exists()


@pytest.mark.parametrize(
    "flags",
    [("2", "1", "nan"), ("2", "1", "inf"), ("inf", "1", "2"), ("nan", "1", "2"),
     ("2", "nan", "2"), ("2", "inf", "2")],
)
def test_verify_non_finite_tightened_flags_exit_two(spec_file, tmp_path, capsys, flags):
    # a NaN --k used to emit NaN slacks (invalid JSON) and exit 1, an infinite
    # --k or --c-pow to write NaN or Infinity into params, and a NaN --c-pow
    # to blame --b-pow
    out = tmp_path / "r.jsonl"
    args = ["verify", "--spec", spec_file, "--out", str(out)]
    args += [v for pair in zip(TIGHTER_FLAGS, flags) for v in pair]
    assert main(args) == 2
    assert "c_pow, b_pow and k must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_verify_dense_work_independent_of_grid(monkeypatch, tmp_path):
    # verify runs on block weights, so neither grid compresses any local
    # support, and the order-free work (block sums of the parties' weights)
    # runs once per job, whatever its number of orders
    calls = {}

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    compress = gwlab.measures.compress_local_support
    monkeypatch.setattr(
        gwlab.measures, "compress_local_support", counting("compress", compress)
    )
    sums = counting("block_sums", gwlab.tensor.Partition.block_sums)
    monkeypatch.setattr(gwlab.tensor.Partition, "block_sums", sums)
    spec = gw_spec_to_json(GWSpec.qubit([0.5, 0.5, 0.5, 0.5], vacuum_weight=0.2))
    counts = []
    for grid in ("1.1:1.1:1", "0.83:1.30:0.05"):
        calls.update(compress=0, block_sums=0)
        args = ["verify", "--spec", spec, "--alpha", grid, "--c-pow", "2"]
        args += ["--b-pow", "1", "--k", "2", "--out", str(tmp_path / "r.jsonl")]
        assert main(args) == 0
        counts.append(dict(calls))
    assert len(alpha_grid(0.83, 1.30, 0.05)) == 10
    assert counts[0] == counts[1]
    assert counts[0]["compress"] == 0
    assert counts[0]["block_sums"] > 0


def test_verify_prepares_each_partition_and_merge_once(monkeypatch, tmp_path):
    # the job's partition is parsed once, and its block weights come from one
    # block sum over the job's labels (the first three are the first three
    # blocks' weights); the merged-cut bounds' cut (P and Q as one block,
    # shared by both bounds) and the trace bound's cut are fsums over masks of
    # those labels, with no relabelled partition.  A preparer that parses the
    # partition again, builds another, or sums twice, fails this.
    calls = {"of": 0, "partition": 0, "block_sums": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    partition = gwlab.tensor.Partition
    monkeypatch.setattr(partition, "of", classmethod(counting("of", partition.of.__func__)))
    init = counting("partition", partition.__post_init__)
    monkeypatch.setattr(partition, "__post_init__", init)
    monkeypatch.setattr(partition, "block_sums", counting("block_sums", partition.block_sums))
    spec = gw_spec_to_json(GWSpec.qubit([0.5] * 4))
    args = ["verify", "--spec", spec, "--partition", "0|1|2,3", "--alpha", "0.83:1.30:0.05"]
    assert main(args + ["--out", str(tmp_path / "r.jsonl")]) == 0
    assert len(alpha_grid(0.83, 1.30, 0.05)) == 10
    assert calls == {"of": 1, "partition": 1, "block_sums": 1}


#: One job of each kind that reads a spec, and the objects it validates:
#: ``GWBlocks``, ``PartyLayout`` and ``Partition``.  Verify builds the
#: loader's weights and their merge, on the loader's layout and the merged
#: one, and one partition; the mixture suite reads the loader's weights.
VALIDATED_PER_JOB = {
    "verify-vacuum": (["verify", "--spec", gw_spec_to_json(GWSpec.qubit([0.5] * 4, 0.2)),
                       "--partition", "0|1|2,3", "--c-pow", "2", "--b-pow", "1", "--k", "2",
                       "--alpha", "0.83:1.30:0.05"], (2, 2, 1)),
    "verify-pure": (["verify", "--spec", gw_spec_to_json(GWSpec.qubit([0.5] * 4)),
                     "--partition", "0|1|2,3", "--c-pow", "2", "--b-pow", "1", "--k", "2",
                     "--alpha", "0.83:1.30:0.05"], (2, 2, 1)),
    "oracle": (["oracle", "--spec", gw_spec_to_json(GWSpec.qubit([0.5] * 4, 0.2)),
                "--partition", "0|1|2,3", "--trials", "64", "--seed", "3", "--alpha", "0.9,1.2"],
               (1, 1, 1)),
}


@pytest.mark.parametrize("job", list(VALIDATED_PER_JOB))
def test_each_job_validates_its_objects_once(monkeypatch, tmp_path, job):
    # a job validates its input once: no stage rebuilds the loader's weights,
    # a layout or a partition to read weights it already holds
    calls = {}
    for cls in (GWBlocks, gwlab.tensor.PartyLayout, Partition):
        def counted(self, init=cls.__post_init__, name=cls.__name__):
            calls[name] = calls.get(name, 0) + 1
            init(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    argv, want = VALIDATED_PER_JOB[job]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 0
    got = tuple(calls.get(name, 0) for name in ("GWBlocks", "PartyLayout", "Partition"))
    assert got == want


def test_verify_two_parties_with_vacuum(tmp_path):
    # the mixture suite ran its three-block check on the two-party mixture
    # and ended in an IndexError traceback with exit 1
    spec = '{"n": 2, "d": 2, "amplitudes": [[0.6,0],[0.8,0]], "vacuum_weight": 0.3}'
    out = tmp_path / "r.jsonl"
    assert main(["verify", "--spec", spec, "--alpha", "1.1:1.1:1", "--out", str(out)]) == 0
    stages = [json.loads(line)["params"].get("stage") for line in out.read_text().splitlines()]
    assert [s for s in stages if s] == ["purified", "purified", "mixture"]


def test_verify_order_blocks_change_no_bit(monkeypatch, tmp_path):
    # a C^2 vector longer than GRID_VALUES / (grid size) is evaluated over
    # blocks of orders; blocks of one, two and three orders give the bytes
    # of the whole-grid table
    amps = np.array([0.5, 0.4, 0.3, 0.5, 0.2, 0.45])
    spec = gw_spec_to_json(GWSpec.qubit(amps / np.linalg.norm(amps), vacuum_weight=0.2))
    args = ["verify", "--spec", spec, "--partition", "0|1,2|3|4|5", "--alpha",
            "0.85:1.3:0.05", "--include-one", "--c-pow", "2", "--b-pow", "1", "--k", "2"]
    outputs = []
    for values in (gwlab.inequalities.GRID_VALUES, 5, 10, 15):
        monkeypatch.setattr(gwlab.inequalities, "GRID_VALUES", values)
        out = tmp_path / f"r{values}.jsonl"
        assert main(args + ["--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert all(o == outputs[0] for o in outputs[1:])


def test_verify_single_block_exit_two(spec_file, tmp_path, capsys):
    # every checker prepares its split before any order, so a one-block
    # partition fails even on a grid with no order in any window, where it
    # used to exit 0 with skipped reports only
    out = tmp_path / "r.jsonl"
    args = ["verify", "--spec", spec_file, "--partition", "0,1,2,3", "--out", str(out)]
    assert main(args + ["--alpha", "0.5:0.7:0.1"]) == 2
    assert main(args) == 2
    assert "partition needs at least two blocks" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "partition,why",
    [("0||1,2,3", "empty block in partition"),
     ("0|1,1|2|3", "overlap: party 1 is listed more than once"),
     ("0,1|1,2|3", "overlap: party 1 is listed more than once"),
     ("0|1|2", "does not cover all 4 parties"),
     ("0|1|2|3,7", "party 7 out of range for 4 parties"),
     ("-1|0|1|2,3", "party -1 out of range for 4 parties"),
     ("0|1,a|2|3", "invalid literal for int() with base 10: 'a'")],
)
@pytest.mark.parametrize("command", ["verify", "oracle"])
def test_malformed_partition_exit_two(spec_file, tmp_path, capsys, command, partition, why):
    # a party listed twice in one block used to run as if listed once
    out = tmp_path / "r.jsonl"
    args = [command, "--spec", spec_file, f"--partition={partition}", "--out", str(out)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and why in err and "Traceback" not in err
    if why.startswith("invalid literal"):  # a conversion error names its flag
        assert err == f"error: --partition: {why}\n"
    assert not out.exists()


def test_verify_folds_the_square_relation_once_at_mu_two(spec_file, tmp_path, monkeypatch):
    # at mu = 2 the power monogamy is monogamy_sq under a second name, with
    # equal params, so the grid folds that row once; at mu = 3 it is its own
    # relation and folds on its own.  The reports keep both names
    counts, lines, real = {}, {}, gwlab.inequalities._fold

    def count(*args):
        counts[mu] += 1
        return real(*args)

    monkeypatch.setattr(gwlab.inequalities, "_fold", count)
    for mu in ("2", "3"):
        counts[mu], out = 0, tmp_path / f"mu{mu}.jsonl"
        assert main(["verify", "--spec", spec_file, "--alpha", "1.1:1.2:0.1", "--mu", mu,
                     "--out", str(out)]) == 0
        lines[mu] = [json.loads(line) for line in out.read_text().splitlines()]
    assert counts["2"] == counts["3"] - 1
    square, power = ([doc for doc in lines["2"] if doc["name"] == name]
                     for name in ("monogamy_sq", "monogamy_power"))
    assert [doc["params"] for doc in power] == [doc["params"] for doc in square]
    assert [doc["lhs"] for doc in power] == [doc["lhs"] for doc in square]
    assert sum(doc["name"] == "monogamy_power" for doc in lines["3"]) == 2


@pytest.mark.parametrize("mu", ["1.5", "-1", "0", "nan", "inf"])
def test_verify_mu_outside_domain_exit_two(spec_file, tmp_path, capsys, mu):
    # a --mu outside (0, 1] and [2, inf) used to drop the power report and
    # exit 0, or with inf to report an infinite power bound
    out = tmp_path / "r.jsonl"
    assert main(["verify", "--spec", spec_file, "--mu", mu, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: mu must lie in (0, 1] or [2, inf), got ")
    assert not out.exists()


def _refuse_roof(*args, **kwargs):
    raise AssertionError("a roof ran")


@pytest.mark.parametrize(
    "command, flags, call, wide, named",
    [
        ("verify", ["--mu", "1.5"], lambda psi, p: prepare_checks(psi, p, 1.5), False, "got 1.5"),
        ("verify", ["--mu", "nan"], lambda psi, p: prepare_checks(psi, p, math.nan), False,
         "got nan"),
        ("verify", ["--mu", "inf"], lambda psi, p: prepare_checks(psi, p, math.inf), False,
         "got inf"),
        ("oracle", ["--trials", "0"], lambda psi, p: oracle_reports(psi, p, trials=0), False,
         "got 0"),
        ("oracle", ["--seed", "-1"], lambda psi, p: oracle_reports(psi, p, seed=-1), False,
         "got -1"),
        ("oracle", ["--alpha=-1"], lambda psi, p: oracle_reports(psi, p, [-1.0]), False,
         "got -1.0"),
        ("verify", ["--alpha", "1.2:1.2:1"],
         lambda psi, p: list(map(report_to_json_line, at_orders([1.2], prepare_checks(psi, p)))),
         True, "param 'd'"),
    ],
    ids=["mu-1.5", "mu-nan", "mu-inf", "trials-zero", "seed-negative", "order-negative",
         "block-0-past-digit-limit"],
)
def test_library_and_cli_refuse_alike(tmp_path, monkeypatch, capsys, command, flags, call, wide,
                                      named):
    # each rule is checked once, by the library code that uses the value:
    # the CLI prints the library's message, which names the value it
    # refuses, exits 2, runs no roof and writes no file; a wide spec's
    # block 0 is one qubit past the digit limit
    if wide:
        m = math.ceil(sys.get_int_max_str_digits() / math.log10(2))
        spec = GWSpec.qubit(np.full(m + 1, 1.0 / math.sqrt(m + 1)))
        partition = Partition.of([range(m), [m]])
    else:
        spec = GWSpec.qubit(FIG1_AMPLITUDES)
        partition = Partition.singletons(spec.n)
    monkeypatch.setattr(gwlab.roof, "_pair_rows", _refuse_roof)
    monkeypatch.setattr(gwlab.roof, "_roof_estimates", _refuse_roof)
    monkeypatch.delenv("GWLAB_SEED", raising=False)
    with pytest.raises(ValueError) as refused:
        call(GWBlocks.of(spec), partition)
    assert named in str(refused.value)
    out = tmp_path / "r.jsonl"
    argv = [command, "--spec", gw_spec_to_json(spec), "--out", str(out), *flags,
            "--partition", "|".join(",".join(map(str, b)) for b in partition.sorted_blocks)]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {refused.value}\n")
    assert not out.exists()


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf],
                         ids=["zero", "negative", "nan", "inf"])
def test_bad_order_refused_alike_at_every_entry(tmp_path, monkeypatch, capsys, bad):
    # measures._order is the one order validator: every entry point refuses
    # an order that is not positive and finite with its one message, and the
    # CLI prints it, exits 2, runs no roof and writes no file
    message = f"Renyi order must be positive and finite, got {bad}"
    spec = GWSpec.qubit(FIG1_AMPLITUDES)
    psi, partition = GWBlocks.of(spec), Partition.singletons(spec.n)
    calls = [
        lambda: gwlab.measures.f_alpha(0.5, bad),
        lambda: gwlab.measures.renyi_entropy(gwlab.tensor.SchmidtSpectrum([0.7, 0.3]), bad),
        lambda: gwlab.games.game_gap_fn(0.9, bad),
        lambda: gwlab.roof.convex_roof_bounds(
            gwlab.measures.block_pair_reduction(psi, {0}, {1}), 10, order=bad),
        lambda: prepare_checks(psi, partition)[0].at(bad),
    ]
    for call in calls:
        with pytest.raises(ValueError) as refused:
            call()
        assert str(refused.value) == message
    monkeypatch.setattr(gwlab.roof, "_roof_estimates", _refuse_roof)
    # a grid refuses a non-finite entry itself, before any order is made
    grids = {"oracle": f"2.0,{bad}", **({"verify": f"{bad}:1:0.5"} if math.isfinite(bad) else {})}
    for command, alpha in grids.items():
        out = tmp_path / f"{command}.jsonl"
        argv = [command, "--spec", gw_spec_to_json(spec), f"--alpha={alpha}", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()


@pytest.mark.parametrize(
    "argv, why",
    [
        (["verify", "--partition", ""], "empty block in partition ''"),
        (["oracle", "--partition", ""], "empty block in partition ''"),
        (["verify", "--alpha", ""], "grid must be start:stop:step, got ''"),
        (["oracle", "--alpha", ""], "--alpha: could not convert string to float: ''"),
        (["gamebounds", "--n", ""], "--n needs at least one integer, got ''"),
        (["gamebounds", "--d", ""], "--d needs at least one integer, got ''"),
        (["gamebounds", "--n", ","], "--n needs at least one integer, got ','"),
    ],
    ids=["verify-partition", "oracle-partition", "verify-alpha", "oracle-alpha",
         "gamebounds-n", "gamebounds-d", "gamebounds-n-comma"],
)
def test_empty_flag_value_exit_two(spec_file, tmp_path, capsys, argv, why):
    # an empty value used to run as if the flag were absent (default blocks,
    # the default grid, no order) or to print a table with no rows
    out = tmp_path / "r.out"
    spec = [] if argv[0] == "gamebounds" else ["--spec", spec_file]
    assert main([*argv, *spec, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {why}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, why",
    [
        (["oracle", "--alpha", "0.9,abc"], "--alpha: could not convert string to float: 'abc'"),
        (["verify", "--alpha", "1:2:x"], "--alpha: could not convert string to float: 'x'"),
        (["gamebounds", "--n", "1,x"], "--n: invalid literal for int() with base 10: 'x'"),
        (["gamebounds", "--d", "2,y"], "--d: invalid literal for int() with base 10: 'y'"),
        (["verify", "--mu", "x"], "--mu: could not convert string to float: 'x'"),
    ],
    ids=["oracle-alpha", "verify-alpha", "gamebounds-n", "gamebounds-d", "verify-mu"],
)
def test_conversion_errors_name_their_flag(spec_file, tmp_path, capsys, argv, why):
    # a value that is not a number used to print Python's conversion error
    # alone, with no word of which flag held it
    out = tmp_path / "r.out"
    spec = [] if argv[0] == "gamebounds" else ["--spec", spec_file]
    assert main([*argv, *spec, "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: {why}\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["verify", "oracle"])
def test_internal_fault_exits_three(spec_file, tmp_path, monkeypatch, capsys, command):
    # a fault of the program prints its traceback and exits 3: it used to
    # leave main as an exception, which the interpreter turns into exit 1,
    # the code of a violation
    def fault(*args, **kwargs):
        raise RuntimeError("an internal fault")

    monkeypatch.setattr(gwlab.cli, "_write_lines", fault)
    trials = ["--trials", "10"] if command == "oracle" else []
    assert main([command, "--spec", spec_file, *trials]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" in err
    assert err.rstrip().endswith("RuntimeError: an internal fault")


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_verify_block_dimension_past_int_digit_limit(tmp_path, capsys, fmt):
    # a JSONL line prints monogamy_cap's d, block 0's dimension 2**m; past
    # sys.get_int_max_str_digits() digits no line could hold it, and json
    # could not read it back, so the job is refused before any line is
    # written; CSV prints no d and runs
    limit = sys.get_int_max_str_digits()
    m = math.ceil(limit / math.log10(2))  # the fewest qubits whose 2**m passes the limit
    assert len(str(2 ** (m - 1))) == limit
    n = m + 15
    spec = gw_spec_to_json(GWSpec.qubit(np.full(n, 1.0 / math.sqrt(n))))
    for size, code in ((m, 2 if fmt == "jsonl" else 0), (m - 1, 0)):
        parts = [",".join(map(str, range(size))), ",".join(map(str, range(size, n)))]
        out = tmp_path / f"r{size}.{fmt}"
        argv = ["verify", "--spec", spec, "--partition", "|".join(parts),
                "--alpha", "1.2:1.2:1", "--format", fmt]
        assert main(argv + ["--out", str(out)]) == code
        assert main(argv) == code
        written, err = capsys.readouterr()
        if code == 2:
            assert written == "" and not out.exists()
            assert err == ("error: monogamy_cap param 'd' has more than "
                           f"sys.get_int_max_str_digits() = {limit} digits, too many "
                           "for a JSON line\n") * 2
        else:
            assert err == "" and written == out.read_text()
            if fmt == "jsonl":
                caps = [json.loads(line) for line in written.splitlines()
                        if '"monogamy_cap"' in line]
                assert [doc["params"]["d"] for doc in caps] == [2**size]


def test_verify_determinism(spec_file, tmp_path):
    args = [
        "verify",
        "--spec",
        spec_file,
        "--alpha",
        "0.83:1.3:0.05",
        "--mu",
        "0.5",
        "--c-pow",
        "2",
        "--b-pow",
        "1",
        "--k",
        "1",
    ]
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_oracle_reports_and_determinism(spec_file, tmp_path):
    args = [
        "oracle",
        "--spec",
        spec_file,
        "--partition",
        "0|1|2,3",
        "--trials",
        "400",
        "--seed",
        "123",
    ]
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    reports = [json.loads(line) for line in a.read_text().splitlines()]
    pairs = [r for r in reports if r["name"] == "c_equals_ca"]
    assert len(pairs) == 3  # all block pairs
    for r in pairs:
        assert r["satisfied"]


def test_oracle_hands_full_state_to_verify(spec_file, tmp_path, monkeypatch):
    # one oracle_lines call gets the state's block weights and every
    # target; it builds each block pair itself, and no dense state is built
    args = ["oracle", "--spec", spec_file, "--partition", "0|1,2|3"]
    args += ["--trials", "300", "--seed", "7", "--alpha", "0.9,1.1"]
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(args + ["--out", str(a)]) == 0

    def refuse(self):
        raise AssertionError("a dense state was built")

    calls = []
    real = gwlab.cli.oracle_lines

    def spy(state, partition, orders, **kwargs):
        calls.append((state, partition, orders))
        return real(state, partition, orders, **kwargs)

    monkeypatch.setattr(gwlab.tensor.PureState, "__post_init__", refuse)
    monkeypatch.setattr(gwlab.cli, "oracle_lines", spy)
    assert main(args + ["--out", str(b)]) == 0
    assert b.read_bytes() == a.read_bytes()
    assert len(b.read_text().splitlines()) == 5
    [(state, partition, orders)] = calls
    assert isinstance(state, GWBlocks) and state.layout.n_parties == 4
    assert partition.sorted_blocks == [[0], [1, 2], [3]]
    assert orders == [0.9, 1.1]


def _oracle_lines(tmp_path, spec, partition, orders, trials, seed):
    """The oracle's lines, and the block weights of the spec as it read it."""
    path = tmp_path / "spec.json"
    path.write_text(gw_spec_to_json(spec))
    out = tmp_path / "o.jsonl"
    args = ["oracle", "--spec", str(path), "--partition", partition, "--trials", str(trials)]
    if orders:
        args += ["--alpha", ",".join(map(str, orders))]
    assert main(args + ["--seed", str(seed), "--out", str(out)]) == 0
    return out.read_text().splitlines(), GWBlocks.of(gw_spec_from_json(path.read_text()))


def _solo_line(psi, pair, order, trials, seed):
    """The oracle line of one target, run alone."""
    if order is None:
        report = verify_c_equals_ca(psi, trials=trials, seed=seed, blocks=pair)
    else:
        report = verify_e_alpha_formula(psi, order, trials=trials, seed=seed, blocks=pair)
    return report_to_json_line(report)


def test_oracle_lockstep_lines_equal_solo_runs(tmp_path, monkeypatch):
    # party 1 carries no excitation, so the pair {0} | {2, 3} is pure; its
    # rows are phi and a zero row, so it shares the isometry shape (4, 2) of
    # the two mixed pairs; the orders run on the mixed pair {0} | {1}, and
    # 0.5 is out of window
    spec = GWSpec.qubit(np.array([0.6, 0.0, 0.64, 0.48]))
    shapes = set()
    real = gwlab.roof._draw_chunk

    def record(streams, start, stop, m, r):
        shapes.add((m, r))
        return real(streams, start, stop, m, r)

    monkeypatch.setattr(gwlab.roof, "_draw_chunk", record)
    lines, psi = _oracle_lines(tmp_path, spec, "0|1|2,3", (1.1, 0.5), 300, 5)
    assert shapes == {(4, 2)}
    a, b, c = {0}, {1}, {2, 3}
    targets = [((a, b), None), ((a, c), None), ((b, c), None), ((a, b), 1.1), ((a, b), 0.5)]
    assert lines == [_solo_line(psi, pair, order, 300, 5) for pair, order in targets]
    pure = json.loads(lines[1])["params"]
    assert pure["roof_min"] == pytest.approx(pure["roof_max"])
    assert json.loads(lines[4])["applicability"] == "OUT_OF_WINDOW"


def test_oracle_stack_of_mixed_measures_equals_solo_runs(tmp_path, monkeypatch):
    # every pair is mixed and entangled, so all runs draw the shape (4, 2):
    # one stack of the three concurrence runs, and one Renyi stack of an
    # order in each f_alpha branch (the von Neumann band, the expm1 band and
    # the plain power sum); 0.5, outside the window, runs in none.  The trial
    # counts fall on both sides of a generation (64 trials) and of a draw
    # chunk (16 generations)
    spec = GWSpec.qubit(np.array([0.6, 0.48, 0.64, 0.0]))
    orders = (1.0000005, 1.0005, 1.1, 0.5)
    a, b, c = {0}, {1}, {2, 3}
    targets = [((a, b), None), ((a, c), None), ((b, c), None)]
    targets += [((a, b), order) for order in orders]
    bands, real = [], gwlab.roof._Group.__init__

    def record(self, *stack):
        real(self, *stack)
        bands.append(sorted(band for band, _, _ in self.bands))

    for trials in (1, 63, 65, 300, 1025):
        bands.clear()
        monkeypatch.setattr(gwlab.roof._Group, "__init__", record)
        lines, psi = _oracle_lines(tmp_path, spec, "0|1|2,3", orders, trials, 5)
        monkeypatch.undo()
        assert bands == [[], [0, 1, 2]], trials
        assert lines == [_solo_line(psi, pair, order, trials, 5) for pair, order in targets], trials


@pytest.mark.parametrize("orders", [(1.1,), (1.0000005, 1.0005, 0.9, 1.1, 1.2, 2.0, 5.0)],
                         ids=["one-order", "seven-orders"])
@pytest.mark.parametrize("trials, steps, chunks", [(1, 2, 1), (1000, 17, 1), (2100, 34, 3)])
def test_oracle_steps_once_per_generation(spec_file, tmp_path, monkeypatch, orders, trials,
                                          steps, chunks):
    # README spec: its three pairs fill one concurrence stack and every
    # in-window order one Renyi stack, so a job steps once for the pairs and
    # once per generation of the orders, and draws each chunk once
    G, calls = gwlab.roof.GENERATION, []
    step, draw = gwlab.roof._Group.step, gwlab.roof._draw_chunk

    def count_step(group, *generation):
        calls.append("step")
        step(group, *generation)

    def count_draw(*args):
        calls.append("draw")
        return draw(*args)

    monkeypatch.setattr(gwlab.roof._Group, "step", count_step)
    monkeypatch.setattr(gwlab.roof, "_draw_chunk", count_draw)
    args = ["oracle", "--spec", spec_file, "--partition", "0|1,2|3", "--trials", str(trials)]
    assert main(args + ["--alpha", ",".join(map(str, orders)),
                        "--out", str(tmp_path / "o.jsonl")]) == 0
    assert calls.count("step") == steps == 1 + -(-trials // G)
    assert calls.count("draw") == chunks == -(-trials // (gwlab.roof.DRAW_CHUNK * G))


def test_oracle_many_stacks_equal_solo_runs(tmp_path):
    # a stack of 435 concurrence runs and one of 300 Renyi runs, each longer
    # than GROUP_RUNS; 65 trials cross a generation.  Lines on both sides of
    # each 256-run split equal their solo runs, and every roof's min is at
    # most its max: both sides are minima over the same scored candidates
    n, orders, trials = MANY_STACK_PARTIES, MANY_STACK_ORDERS, 65
    pairs = [({i}, {j}) for i in range(n) for j in range(i + 1, n)]
    split = gwlab.roof.GROUP_RUNS
    assert len(pairs) > split and len(orders) - 1 > split
    lines, psi = _oracle_lines(tmp_path, many_stack_spec(), "|".join(map(str, range(n))),
                               orders, trials, 9)
    assert len(lines) == len(pairs) + len(orders)
    for k in (0, split - 1, split, len(pairs) - 1):
        assert lines[k] == _solo_line(psi, pairs[k], None, trials, 9), k
    for k in (0, 1, split - 1, split, *range(len(orders) - 4, len(orders))):
        line = lines[len(pairs) + k]
        assert line == _solo_line(psi, pairs[0], orders[k], trials, 9), orders[k]
    assert json.loads(lines[-1])["applicability"] == "OUT_OF_WINDOW"
    for line in lines[:-1]:
        params = json.loads(line)["params"]
        assert params["roof_min"] <= params["roof_max"], line


def test_oracle_runs_each_distinct_target_once(tmp_path, monkeypatch):
    # 30 singleton qubits of equal weight make 435 pairs of one weight pair:
    # one concurrence run, and one run per order, each line still byte for
    # byte its solo run
    n = 30
    spec = GWSpec.qubit(np.full(n, math.sqrt(1 / n)), vacuum_weight=0.2)
    runs = []
    real = gwlab.roof._roof_estimates

    def count(stacks, seed):
        runs.append([(rows.shape, alphas if alphas is None else alphas.tolist(), trials)
                     for rows, alphas, trials in stacks])
        return real(stacks, seed)

    monkeypatch.setattr(gwlab.roof, "_roof_estimates", count)
    orders = (1.1, 1.2)
    lines, psi = _oracle_lines(tmp_path, spec, "|".join(map(str, range(n))), orders, 300, 9)
    assert runs == [[((1, 2, 4), None, gwlab.roof.GENERATION), ((2, 2, 4), [1.1, 1.2], 300)]]
    monkeypatch.undo()
    pairs = [({i}, {j}) for i in range(n) for j in range(i + 1, n)]
    targets = [(pair, None) for pair in pairs] + [(pairs[0], order) for order in orders]
    assert len(lines) == len(targets)
    for line, (pair, order) in zip(lines, targets):
        assert line == _solo_line(psi, pair, order, 300, 9), (pair, order)


def test_oracle_runs_no_eigendecomposition(spec_file, tmp_path, monkeypatch):
    # README spec: three pairs, and both orders reuse the first one; one call
    # builds the rows of the three distinct pairs from their block weights,
    # with no dense pair built and no eigendecomposition made
    def refuse(*args, **kwargs):
        raise AssertionError("a dense pair or an eigendecomposition on the oracle path")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(gwlab.tensor.DensityOperator, "__post_init__", refuse)
    calls = []
    real = gwlab.roof._pair_rows

    def count(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(gwlab.roof, "_pair_rows", count)
    args = ["oracle", "--spec", spec_file, "--partition", "0|1,2|3", "--trials", "100"]
    assert main(args + ["--alpha", "0.9,1.1", "--out", str(tmp_path / "o.jsonl")]) == 0
    [(w, t_a, t_b)] = calls
    assert len(t_a) == len(t_b) == 3


def test_large_order_values_stay_finite(spec_file, tmp_path):
    # past order ~1000 the plain Renyi power sum underflows to zero
    out = tmp_path / "v.jsonl"
    args = ["verify", "--spec", spec_file, "--partition", "0|1,2|3"]
    assert main(args + ["--alpha", "5000:5000:1", "--out", str(out)]) == 0
    docs = [json.loads(line) for line in out.read_text().splitlines()]
    [trace] = [doc for doc in docs if doc["name"] == "trace_bound_renyi"]
    assert math.isfinite(trace["rhs"]) and trace["satisfied"]
    out = tmp_path / "o.jsonl"
    args = ["oracle", "--spec", spec_file, "--partition", "0|1,2|3", "--trials", "300"]
    assert main(args + ["--alpha", "5000", "--seed", "3", "--out", str(out)]) == 0
    [doc] = [json.loads(line) for line in out.read_text().splitlines() if "e_alpha" in line]
    assert all(math.isfinite(doc["params"][key])
               for key in ("closed_form", "roof_min", "roof_max"))


def test_oracle_draws_each_generation_once_per_shape(spec_file, tmp_path, monkeypatch):
    # README spec: three blocks, so three pairs plus two orders share every
    # generation of the single isometry shape; chunks of five generations
    # split the 16 generations of 1000 trials four ways, the last one short
    calls = []
    real = gwlab.roof._draw_chunk
    G = gwlab.roof.GENERATION

    def count(streams, start, stop, m, r):
        chunk = real(streams, start, stop, m, r)
        assert all(not x.flags.writeable for t, haar, sources, rotation in chunk
                   for x in (t, haar, sources, *rotation))
        generations = range(start // G, -(-stop // G))
        assert len(chunk) == len(generations)
        calls.extend((g, m, r) for g in generations)
        return chunk

    monkeypatch.setattr(gwlab.roof, "_draw_chunk", count)
    monkeypatch.setattr(gwlab.roof, "DRAW_CHUNK", 5)
    args = ["oracle", "--spec", spec_file, "--partition", "0|1,2|3", "--trials", "1000"]
    assert main(args + ["--seed", "7", "--alpha", "0.9,1.1",
                        "--out", str(tmp_path / "o.jsonl")]) == 0
    assert sorted(calls) == [(g, 4, 2) for g in range(-(-1000 // G))]


def test_oracle_chunking_changes_no_bit(tmp_path, monkeypatch):
    # 2100 trials are 33 generations: three chunks, the last one a single
    # generation cut short, on the lockstep spec above, whose pure and mixed
    # pairs both draw the shape (4, 2)
    spec = GWSpec.qubit(np.array([0.6, 0.0, 0.64, 0.48]))
    assert -(-2100 // gwlab.roof.GENERATION) == 2 * gwlab.roof.DRAW_CHUNK + 1
    lines, _ = _oracle_lines(tmp_path, spec, "0|1|2,3", (1.1, 0.5), 2100, 5)
    monkeypatch.setattr(gwlab.roof, "DRAW_CHUNK", 1)
    assert _oracle_lines(tmp_path, spec, "0|1|2,3", (1.1, 0.5), 2100, 5)[0] == lines


def test_oracle_env_seed(spec_file, tmp_path, monkeypatch):
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    monkeypatch.setenv("GWLAB_SEED", "777")
    main(["oracle", "--spec", spec_file, "--trials", "300", "--out", str(out1)])
    main(
        [
            "oracle",
            "--spec",
            spec_file,
            "--trials",
            "300",
            "--seed",
            "777",
            "--out",
            str(out2),
        ]
    )
    assert out1.read_bytes() == out2.read_bytes()


def test_oracle_single_block_exit_two(spec_file, capsys):
    args = ["oracle", "--spec", spec_file, "--partition", "0,1,2,3", "--trials", "10"]
    assert main(args + ["--alpha", "1.1"]) == 2
    assert main(args) == 2
    assert "partition needs at least two blocks" in capsys.readouterr().err


def test_oracle_low_trials_unconverged(spec_file, tmp_path):
    # 10 trials never certify a Renyi plateau; a concurrence run converges
    # when its min and max agree within PLATEAU_TOL, as every decomposition
    # of a family pair averages to C
    out = tmp_path / "r.jsonl"
    args = ["oracle", "--spec", spec_file, "--trials", "10", "--seed", "1", "--alpha", "1.1"]
    assert main(args + ["--out", str(out)]) == 0
    reports = [json.loads(line) for line in out.read_text().splitlines()]
    renyi = [r for r in reports if r["name"] == "e_alpha_formula"]
    pairs = [r for r in reports if r["name"] == "c_equals_ca"]
    assert len(renyi) == 1 and len(pairs) == 6
    assert all(not r["params"]["converged"] for r in renyi)
    assert all(r["applicability"] == "CONDITION_UNMET" for r in renyi)
    for r in pairs:
        params = r["params"]
        assert params["trials"] == 10
        spread = params["roof_max"] - params["roof_min"]
        assert params["converged"] == (spread <= gwlab.roof.PLATEAU_TOL)
        assert r["applicability"] == ("APPLICABLE" if params["converged"] else "CONDITION_UNMET")
    assert all(r["params"]["converged"] for r in pairs)


def test_gamebounds_table(tmp_path):
    out = tmp_path / "gb.csv"
    cmd_gamebounds([1, 16], [2, 4], str(out))
    rows = _read_csv(out)
    assert len(rows) == 4
    first = rows[0]
    assert float(first["new_bound"]) == pytest.approx(2 * math.sqrt(2), abs=1e-11)
    assert float(first["reference_bound"]) == pytest.approx(6.2, abs=1e-11)
    assert first["tighter"] == "true"
    assert first["log_base"] == "2"
    code = main(["gamebounds", "--n", "1,16", "--d", "2,4", "--out", str(tmp_path / "g2.csv")])
    assert code == 0
    assert (tmp_path / "g2.csv").read_bytes() == out.read_bytes()


@pytest.mark.parametrize("flag", ["--n", "--d"])
def test_gamebounds_beyond_float_range_exit_two(tmp_path, capsys, flag):
    # 10**400 is a valid int that no float holds; it used to end in an
    # OverflowError traceback
    out = tmp_path / "gb.csv"
    assert main(["gamebounds", flag, str(10**400), "--out", str(out)]) == 2
    assert "must fit a float" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_figure_id():
    with pytest.raises(ValueError):
        cmd_figure(7)


def test_oracle_checks_orders_before_any_roof(spec_file, monkeypatch, capsys):
    def roof(*args, **kwargs):
        raise AssertionError("a roof ran before the orders were checked")

    monkeypatch.setattr(gwlab.roof, "_pair_rows", roof)
    monkeypatch.setattr(gwlab.roof, "_roof_estimates", roof)
    args = ["oracle", "--spec", spec_file, "--trials", "10", "--alpha", "0.9,-1"]
    assert main(args) == 2
    assert "Renyi order must be positive" in capsys.readouterr().err


_ROOF = [(gwlab.roof, "_pair_rows"), (gwlab.roof, "_roof_estimates")]


@pytest.mark.parametrize(
    "extra, env_seed, message, spied",
    [
        (["--trials", "0"], None, "trials must be >= 1, got 0", _ROOF),
        (["--seed", "-1"], None, "seed must be non-negative", _ROOF),
        ([], "seven", "GWLAB_SEED must be a non-negative integer",
         [(gwlab.cli, "oracle_lines")]),
        ([], "-3", "GWLAB_SEED must be a non-negative integer", [(gwlab.cli, "oracle_lines")]),
    ],
    ids=["trials-zero", "seed-negative", "env-seed-not-int", "env-seed-negative"],
)
def test_oracle_checks_trials_and_seed_before_any_roof(
    spec_file, monkeypatch, capsys, extra, env_seed, message, spied
):
    calls = []
    for module, name in spied:
        monkeypatch.setattr(module, name, lambda *a, **k: calls.append(a))
    if env_seed is None:
        monkeypatch.delenv("GWLAB_SEED", raising=False)
    else:
        monkeypatch.setenv("GWLAB_SEED", env_seed)
    assert main(["oracle", "--spec", spec_file, "--trials", "10", *extra]) == 2
    assert message in capsys.readouterr().err
    assert calls == []


def _run_capped(args, cap_bytes=2**30):
    """``gwlab args`` in a child process whose address space is capped."""
    code = "import sys; from gwlab.cli import main; sys.exit(main(sys.argv[1:]))"
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = str(Path(gwlab.__file__).resolve().parents[1])

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (cap_bytes, cap_bytes))

    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, env=env, preexec_fn=cap, timeout=120,
    )


#: 14 qubits split as one party against the other 13: on the dense path the
#: pair of the two blocks is a 2^14 x 2^14 operator, 4 GiB of complex entries.
WIDE_SPEC = gw_spec_to_json(GWSpec.qubit(np.ones(14) / math.sqrt(14)))
WIDE_CUT = "0|" + ",".join(str(p) for p in range(1, 14))
#: 2000 qubits with a vacuum admixture: a dense state would need 2^2000 entries.
HUGE_SPEC = gw_spec_to_json(GWSpec.qubit(np.ones(2000) / math.sqrt(2000), 0.2))


def test_oracle_runs_wide_pairs_on_weights():
    proc = _run_capped(["oracle", "--spec", WIDE_SPEC, "--partition", WIDE_CUT,
                        "--trials", "10"])
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 1
    huge_cut = "0|" + ",".join(str(p) for p in range(1, 2000))
    proc = _run_capped(["oracle", "--spec", HUGE_SPEC, "--partition", huge_cut,
                        "--trials", "10", "--alpha", "1.1"], cap_bytes=2 * 2**30)
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 2


def test_oracle_refuses_too_many_targets():
    # singleton blocks of 2000 parties make about 2e6 pairs, gigabytes of roofs
    proc = _run_capped(["oracle", "--spec", HUGE_SPEC, "--trials", "10"])
    assert proc.returncode == 2, proc.stderr
    assert "MAX_ORACLE_TARGETS" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_verify_two_wide_blocks_needs_no_dense_array():
    proc = _run_capped(["verify", "--spec", WIDE_SPEC, "--partition", WIDE_CUT,
                        "--alpha", "1.1:1.1:1"])
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 5


def test_verify_thousand_parties_builds_no_dense_state(monkeypatch, tmp_path):
    def refuse(self):
        raise AssertionError(f"{type(self).__name__} built")

    monkeypatch.setattr(gwlab.tensor.PureState, "__post_init__", refuse)
    monkeypatch.setattr(gwlab.tensor.DensityOperator, "__post_init__", refuse)
    rng = np.random.default_rng(1000)
    amps = rng.normal(size=1000) + 1j * rng.normal(size=1000)
    spec = GWSpec.qubit(amps / np.linalg.norm(amps), vacuum_weight=0.2)
    out = tmp_path / "r.jsonl"
    args = ["verify", "--spec", gw_spec_to_json(spec), "--alpha", "0.9:1.3:0.2"]
    args += ["--c-pow", "2", "--b-pow", "1", "--k", "2", "--out", str(out)]
    started = time.perf_counter()
    assert main(args) == 0
    assert time.perf_counter() - started < 5.0
    reports = [json.loads(line) for line in out.read_text().splitlines()]
    assert {r["params"].get("stage") for r in reports} == {None, "purified", "mixture"}
    assert reports[0]["params"]["n_blocks"] == 1000


def test_verify_jsonl_line_length_does_not_grow_with_n(tmp_path):
    # a line names its blocks by their count, not by their parties: at 10^4
    # singletons no line is longer than at 10 but for the wider n_blocks (and
    # a number printed a digit or two longer); one listing each block's
    # parties took 79,150 characters
    longest = {}
    for n in (10, 10**4):
        spec = {"n": n, "d": 2, "amplitudes": [[1 / math.sqrt(n), 0.0]] * n, "vacuum_weight": 0.2}
        path, out = tmp_path / f"spec{n}.json", tmp_path / f"r{n}.jsonl"
        path.write_text(json.dumps(spec))
        assert main(["verify", "--spec", str(path), "--format", "jsonl", "--out", str(out)]) == 0
        longest[n] = max(map(len, out.read_text().splitlines()))
    assert longest[10**4] <= longest[10] + 8, longest

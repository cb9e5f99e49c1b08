"""Pinned ``gwlab verify`` and ``gwlab oracle`` report streams.

The expected verify streams in ``tests/data`` were recorded before the
checkers were merged into one implementation per inequality shape.  Both
oracle streams were recorded again when each concurrence run began taking
one generation (64 trials): every decomposition of a family pair averages
to C, so its line's trials fell to 64 and its roof numbers moved in the
last bits.  Their Renyi lines are those of the oracle that starts each
pair's roof from the rows its block weights give.  The oracle streams carry the tags out of window, condition unmet and
applicable satisfied.  No applicable unsatisfied oracle report is pinned:
none of the pinned Renyi runs reaches a plateau in 1000 trials.  "Same
behaviour" is checked the way the project defines it: every report keeps
its name, applicability tag, verdict and params keys, and every number
agrees within 1e-12.  The CSV streams are pinned byte for byte, as the
project's "same behaviour" asks of CSV output, and so are the oracle
streams, whose lines come from the writer that prints verify's.  The README one runs the
default order grid; the mixture one runs the mixture stream's arguments in
CSV and was recorded before the mixture suite's lines came from the grid's
writer.  A deliberate output change re-records a stream by running the
``ARGS`` below with ``--out tests/data/<file>`` and is written up in
CHANGES.md.
"""

import hashlib
import json
import math
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import assert_same_doc
from gwlab import Applicability, InequalityReport, report_to_csv_row, report_to_json_line
from gwlab.cli import _build_parser, _verify_checks, main, parse_partition
from gwlab.inequalities import (
    CLOSED_FORM_TOL, Prepared, _csv_num, _grid_lines, _json_value, _mixture_checks, at_orders,
)
from gwlab.measures import _as_order
from gwlab.roof import oracle_reports
from gwlab.states import GWBlocks, gw_spec_from_json

DATA = Path(__file__).parent / "data"
NUM_TOL = 1e-12

README_SPEC = (
    '{"n": 4, "d": 2, "amplitudes": [[0.7071067811865476, 0.0], [0.5, 0.0], '
    '[0.4, 0.0], [0.3, 0.0]], "vacuum_weight": 0.0}'
)
#: d=3 vacuum superposition with four blocks.  Its block weights meet the
#: side conditions of ``tighter_multi`` and of the mixture suite's
#: three-party bound, so both are applicable.
MIXTURE_SPEC = (
    '{"n": 5, "d": 3, "amplitudes": [[0.5, 0.0], [0.4, 0.3], [0.3, 0.0], '
    '[0.0, -0.1], [0.4, 0.2], [0.1, 0.3], [0.1, 0.1], [0.2, 0.0], [0.0, 0.0], '
    '[0.2, 0.0]], "vacuum_weight": 0.3}'
)
#: The order grid crosses both window edges, so out-of-window reports show too.
TIGHTER = ["--c-pow", "2", "--b-pow", "1", "--k", "2", "--alpha", "0.6:1.6:0.05"]

ARGS = {
    "report_stream_readme.jsonl": [
        "verify", "--spec", README_SPEC, "--partition", "0|1,2|3", *TIGHTER,
        "--format", "jsonl",
    ],
    "report_stream_readme.csv": [
        "verify", "--spec", README_SPEC, "--partition", "0|1,2|3", *TIGHTER[:6],
        "--format", "csv",
    ],
    "report_stream_mixture.jsonl": [
        "verify", "--spec", MIXTURE_SPEC, "--partition", "0|2,3|1|4", *TIGHTER,
        "--mu", "0.5", "--format", "jsonl",
    ],
    "report_stream_mixture.csv": [
        "verify", "--spec", MIXTURE_SPEC, "--partition", "0|2,3|1|4", *TIGHTER,
        "--mu", "0.5", "--format", "csv",
    ],
    "oracle_stream_readme.jsonl": [
        "oracle", "--spec", README_SPEC, "--partition", "0|1,2|3",
        "--trials", "1000", "--seed", "7", "--alpha", "0.7,0.9,1.1,1.25,1.5",
    ],
    "oracle_stream_mixture.jsonl": [
        "oracle", "--spec", MIXTURE_SPEC, "--partition", "0|2,3|1|4",
        "--trials", "1000", "--seed", "11", "--alpha", "0.9,1.2",
    ],
}


def _assert_stream_unchanged(stream, tmp_path) -> None:
    out = tmp_path / stream
    assert main(ARGS[stream] + ["--out", str(out)]) == 0
    got = [json.loads(line) for line in out.read_text().splitlines()]
    want = [json.loads(line) for line in (DATA / stream).read_text().splitlines()]
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        assert_same_doc(g, w, f"line {i + 1} ({w['name']})", NUM_TOL)


@pytest.mark.parametrize(
    "stream", sorted(s for s in ARGS if s.startswith("report") and s.endswith(".jsonl"))
)
def test_verify_report_stream_unchanged(stream, tmp_path):
    _assert_stream_unchanged(stream, tmp_path)


def _assert_csv_stream_bytes_unchanged(stream, tmp_path, capsys) -> None:
    # the same bytes whether the lines go to a file or to stdout
    out = tmp_path / stream
    assert main(ARGS[stream] + ["--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / stream).read_bytes()
    assert main(ARGS[stream]) == 0
    assert capsys.readouterr().out == (DATA / stream).read_text()


def test_verify_csv_stream_bytes_unchanged(tmp_path, capsys):
    _assert_csv_stream_bytes_unchanged("report_stream_readme.csv", tmp_path, capsys)


def test_verify_mixture_csv_stream_bytes_unchanged(tmp_path, capsys):
    # the mixture suite's lines, last in the stream, come from the grid's writer
    _assert_csv_stream_bytes_unchanged("report_stream_mixture.csv", tmp_path, capsys)


@pytest.mark.parametrize("stream", sorted(s for s in ARGS if s.startswith("oracle")))
def test_oracle_report_stream_unchanged(stream, tmp_path):
    _assert_stream_unchanged(stream, tmp_path)
    # and byte for byte: the oracle's lines come from verify's writer
    assert (tmp_path / stream).read_bytes() == (DATA / stream).read_bytes()


#: The spec and blocks of an oracle job whose Renyi line at order 0.9 is
#: applicable and unsatisfied: the maximizing decompositions exceed the
#: closed form on the mixed pair (README, "The assisted side").
FAILING_ORACLE_SPEC = (
    '{"amplitudes": [[0.1505909296969551, -0.021217807112788534], '
    '[-0.03841691343668695, 0.6519171389849093], [-0.3440927652106678, 0.2707318439212349], '
    '[0.18389939818599607, 0.23898025254001726], [0.3007156507569763, -0.42112272138094214]], '
    '"d": 2, "n": 5, "vacuum_weight": 0.2}'
)


@pytest.mark.parametrize(
    "spec, partition, orders, trials, seed, tags",
    [
        # pairs applicable, 0.5 out of the window, 0.9 applicable and
        # unsatisfied, 1.2 short of a plateau
        (FAILING_ORACLE_SPEC, "1,3|2|0|4", [0.5, 0.9, 1.2], 1000, 995147860,
         {("c_equals_ca", "APPLICABLE", True), ("e_alpha_formula", "OUT_OF_WINDOW", True),
          ("e_alpha_formula", "APPLICABLE", False), ("e_alpha_formula", "CONDITION_UNMET", True)}),
        # a pure pair (two blocks cover a vacuum-free state) whose Renyi runs
        # are too short to converge
        (README_SPEC, "0|1,2,3", [0.9, 1.5], 10, 3,
         {("c_equals_ca", "APPLICABLE", True), ("e_alpha_formula", "CONDITION_UNMET", True)}),
    ],
    ids=["failing-and-out-of-window", "pure-pair-unconverged"],
)
def test_oracle_lines_are_the_reports_lines(tmp_path, spec, partition, orders, trials, seed,
                                            tags):
    # every line gwlab oracle writes is report_to_json_line of the matching
    # report of oracle_reports, though no report is built to write it
    out = tmp_path / "o.jsonl"
    argv = ["oracle", "--spec", spec, "--partition", partition, "--trials", str(trials),
            "--seed", str(seed), "--alpha", ",".join(map(str, orders)), "--out", str(out)]
    assert main(argv) == 0
    spec = gw_spec_from_json(spec)
    reports = oracle_reports(GWBlocks.of(spec), parse_partition(partition, spec.n), orders,
                             trials=trials, seed=seed)
    assert out.read_text().splitlines() == [report_to_json_line(r) for r in reports]
    assert {(r.name, r.applicability.value, r.satisfied) for r in reports} == tags
    if partition == "0|1,2,3":
        assert all(r.params["max_side_checked"] for r in reports[1:])


#: SHA-256 of the CSV stream of ``verify`` on 5 * 10^4 singleton qubits of
#: equal weight with vacuum weight 0.2 over the orders 0.9, 1.1 and 1.2,
#: recorded while blocks were still sets of parties.
LARGE_CSV_SHA256 = "03e55df405c1a84064e88b2438f577fca553b5f9c662d8ed66bf8322ce9f6099"


def test_large_singleton_csv_stream_bytes_unchanged(tmp_path):
    n = 5 * 10**4
    spec = {"n": n, "d": 2, "amplitudes": [[1 / math.sqrt(n), 0.0]] * n, "vacuum_weight": 0.2}
    path, out = tmp_path / "spec.json", tmp_path / "r.csv"
    path.write_text(json.dumps(spec))
    args = ["verify", "--spec", str(path), "--alpha", "0.9:1.2:0.1", "--format", "csv"]
    assert main(args + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == LARGE_CSV_SHA256


def test_verify_jsonl_stream_same_bytes_to_file_and_stdout(tmp_path, capsys):
    stream = "report_stream_readme.jsonl"
    out = tmp_path / stream
    assert main(ARGS[stream] + ["--out", str(out)]) == 0
    assert main(ARGS[stream]) == 0
    assert capsys.readouterr().out.encode() == out.read_bytes()


def _doc_line(report: InequalityReport) -> str:
    doc = {"name": report.name, "lhs": report.lhs, "rhs": report.rhs,
           "slack": report.slack, "satisfied": report.satisfied,
           "applicability": report.applicability.value, "params": report.params}
    return json.dumps(doc, sort_keys=True)


def _assert_grid_lines(grid, checks) -> None:
    # the grid writer encodes each order's alpha and each check's constant
    # fields once, and builds no report; its lines must be those of the
    # reports at_orders builds from the same columns, in both formats
    reports = at_orders(grid, checks)
    want = [_doc_line(r) for r in reports]
    assert [report_to_json_line(r) for r in reports] == want
    failed, lines = _grid_lines(grid, checks)
    assert list(lines) == want
    failed_csv, rows = _grid_lines(grid, checks, csv=True)
    assert list(rows) == [",".join(report_to_csv_row(r)) for r in reports]
    # the one verdict rule: out of the check's window, else unmet when it has
    # no evaluator, else satisfied by the slack
    for report, (order, check) in zip(reports, product(map(_as_order, grid), checks)):
        out = check.window is not None and not check.window(order)
        assert (report.applicability == Applicability.OUT_OF_WINDOW) == out
        unmet = not out and check.evaluate is None
        assert (report.applicability == Applicability.CONDITION_UNMET) == unmet
    applicable = [r for r in reports if r.applicability == Applicability.APPLICABLE]
    assert all(r.satisfied == (r.slack >= -CLOSED_FORM_TOL) for r in applicable)
    assert failed == failed_csv == (not all(r.satisfied for r in applicable))


@pytest.mark.parametrize(
    "stream", sorted(s for s in ARGS if s.startswith("report") and s.endswith(".jsonl"))
)
def test_spliced_lines_of_pinned_streams_match_json(stream):
    # the grid's lines, and the mixture suite's at the grid's middle order
    # (some without alpha), come from the one writer
    spec, tighter, grid, checks = _verify_checks(_build_parser().parse_args(ARGS[stream]))
    _assert_grid_lines(grid, checks)
    mixture = _mixture_checks(spec, tighter) if spec.vacuum_weight else []
    assert all("stage" in c.params for c in mixture)
    assert bool(mixture) == (stream == "report_stream_mixture.jsonl")
    _assert_grid_lines([grid[len(grid) // 2]], mixture)


@settings(max_examples=300, deadline=None)
@given(x=st.one_of(st.sampled_from([-0.0, 5e-324, 1e-5, 1e16, 1e22]),
                   st.floats(allow_nan=False, allow_infinity=False)))
def test_value_slots_write_the_encoders_bytes(x):
    # a line's template formats a finite value itself: a CSV number by %.12g
    # and a JSONL column by %r, with the bytes of the encoders of a report
    assert "%.12g" % x == _csv_num(x)
    assert "%r" % x == _json_value(x) == json.dumps(x)


#: Text a line's template could misread: % directives, format fields, NUL.
_FORMAT_TEXT = ["%", "%%", "%s", "{0}", "}", "\0"]
_texts = st.one_of(st.text(max_size=6), st.lists(
    st.one_of(st.sampled_from(_FORMAT_TEXT), st.text(max_size=2)), max_size=3).map("".join))
_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True), st.sampled_from([-0.0, 0.0, 2.0])
)
_numbers = st.one_of(_floats, st.integers(-(2**70), 2**70), st.booleans(), st.none())
_scalars = st.one_of(_numbers, _texts)
_values = st.recursive(_scalars, lambda inner: st.lists(inner, max_size=3), max_leaves=8)
_condition = st.fixed_dictionaries(
    {"chain": st.integers(1, 2), "index": st.integers(2, 9), "margin": _floats})
#: The keys a report adds in its window; never alpha, mu or k nor a key of
#: its check's params.
_WINDOW_KEYS = ("middle", "%s{0}", "lambda0", "condition_margin", "failed_condition")
_keys = st.one_of(st.sampled_from(["d", "partition", "s", "blocks", "h", "measure", "stage"]),
                  _texts.filter(bool)).filter(lambda key: key not in _WINDOW_KEYS)
#: CSV reads alpha, mu and k from the params, so the check's are numbers.
_consts = st.tuples(
    st.dictionaries(_keys.filter(lambda key: key not in ("alpha", "mu", "k")), _values,
                    max_size=4),
    st.fixed_dictionaries({}, optional={"alpha": _numbers, "mu": _numbers, "k": _numbers}),
).map(lambda parts: {**parts[0], **parts[1]})
_in_window = st.fixed_dictionaries({}, optional={
    "lambda0": _floats, "condition_margin": _floats, "failed_condition": _condition})
_added = st.lists(st.sampled_from(["middle", "%s{0}"]), unique=True, max_size=2).map(tuple)
_sides = st.one_of(st.none(), _floats)
#: An empty grid writes no line.
_orders = st.lists(st.sampled_from([0.6, 0.83, 0.9, 1.0, 1.1, 1.3, 5000.0]), max_size=6)


@st.composite
def _checks(draw, n_orders):
    # float columns (lhs, rhs, slack and one per added key) that hold NaN,
    # +-Infinity and -0.0, or no evaluator at all, as for an unmet side
    # condition; constant in-window params; the window, if any, rejects the
    # orders below a cut
    added, in_window = draw(_added), draw(_in_window)
    columns = draw(st.lists(st.lists(_floats, min_size=n_orders, max_size=n_orders),
                            min_size=3 + len(added), max_size=3 + len(added)))
    evaluate = draw(st.sampled_from([None, lambda block: [np.array(c) for c in columns]]))
    cut = draw(st.one_of(st.none(), st.sampled_from([0.0, 0.9, 1.2, 10.0])))
    window = None if cut is None else (lambda order: order.alpha >= cut)
    name = draw(_texts)
    return Prepared(name, window, draw(_consts), np.empty(0), evaluate, in_window, added)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), grid=_orders)
def test_spliced_lines_match_json(data, grid):
    # an int stays an int (d: 2) and a float a float (mu: 2.0), and NaN,
    # Infinity and -0.0 are written as json writes them; the verdict comes
    # from the slack column and the order's window, as in at_orders
    checks = data.draw(st.lists(_checks(len(grid)), min_size=1, max_size=3))
    _assert_grid_lines(grid, checks)
    # any report, whatever its tag, verdict and sides, is written as json does
    reports = data.draw(st.lists(st.builds(
        InequalityReport, _texts, _sides, _sides, _sides, st.booleans(),
        st.sampled_from(list(Applicability)), st.dictionaries(_keys, _values, max_size=5),
    ), max_size=4))
    assert [report_to_json_line(r) for r in reports] == [_doc_line(r) for r in reports]

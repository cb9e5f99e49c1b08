"""Pinned ``gwlab verify`` and ``gwlab oracle`` report streams.

The expected verify streams in ``tests/data`` were recorded before the
checkers were merged into one implementation per inequality shape.  The
oracle streams were recorded when the roof began drawing its trials in
generations; they carry the tags out of window, condition unmet and
applicable satisfied.  No applicable unsatisfied oracle report is pinned:
none of the pinned Renyi runs reaches a plateau in 1000 trials.  "Same
behaviour" is checked the way the project defines it: every report keeps
its name, applicability tag, verdict and params keys, and every number
agrees within 1e-12.  The CSV stream is pinned byte for byte, as the
project's "same behaviour" asks of CSV output; it runs the default order
grid.  A deliberate output change re-records a stream by running the
``ARGS`` below with ``--out tests/data/<file>`` and is written up in
CHANGES.md.
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import assert_same_doc
from gwlab import (
    Applicability, InequalityReport, report_to_csv_row, report_to_json_line, run_mixture_suite,
)
from gwlab.cli import _build_parser, _verify_checks, main
from gwlab.inequalities import Prepared, _grid_lines, at_orders

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


def test_verify_csv_stream_bytes_unchanged(tmp_path, capsys):
    # the same bytes whether the lines go to a file or to stdout
    stream = "report_stream_readme.csv"
    out = tmp_path / stream
    assert main(ARGS[stream] + ["--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / stream).read_bytes()
    assert main(ARGS[stream]) == 0
    assert capsys.readouterr().out == (DATA / stream).read_text()


@pytest.mark.parametrize("stream", sorted(s for s in ARGS if s.startswith("oracle")))
def test_oracle_report_stream_unchanged(stream, tmp_path):
    _assert_stream_unchanged(stream, tmp_path)


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
    # reports at_orders builds from the same rows, in both formats
    reports = at_orders(grid, checks)
    want = [_doc_line(r) for r in reports]
    assert [report_to_json_line(r) for r in reports] == want
    failed, lines = _grid_lines(grid, checks)
    assert list(lines) == want
    failed_csv, rows = _grid_lines(grid, checks, csv=True)
    assert list(rows) == [",".join(report_to_csv_row(r)) for r in reports]
    violated = any(r.applicability == Applicability.APPLICABLE and not r.satisfied
                   for r in reports)
    assert failed == failed_csv == violated


@pytest.mark.parametrize(
    "stream", sorted(s for s in ARGS if s.startswith("report") and s.endswith(".jsonl"))
)
def test_spliced_lines_of_pinned_streams_match_json(stream):
    # the grid's lines come from its rows; the mixture suite's, some
    # without alpha, from its reports
    spec, tighter, grid, checks = _verify_checks(_build_parser().parse_args(ARGS[stream]))
    _assert_grid_lines(grid, checks)
    mixture = run_mixture_suite(spec, grid[len(grid) // 2], tighter) if spec.vacuum_weight else []
    assert any("stage" in r.params for r in mixture) == (stream == "report_stream_mixture.jsonl")
    assert [report_to_json_line(r) for r in mixture] == [_doc_line(r) for r in mixture]


_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True), st.sampled_from([-0.0, 0.0, 2.0])
)
_numbers = st.one_of(_floats, st.integers(-(2**70), 2**70), st.booleans(), st.none())
_scalars = st.one_of(_numbers, st.text(max_size=6))
_values = st.recursive(_scalars, lambda inner: st.lists(inner, max_size=3), max_leaves=8)
_condition = st.fixed_dictionaries(
    {"chain": st.integers(1, 2), "index": st.integers(2, 9), "margin": _floats})
#: An order adds keys of its own, never alpha, mu or k nor a key of its check.
_ADDED = ("middle", "lambda0", "condition_margin", "failed_condition", "stage")
_keys = st.one_of(st.sampled_from(["d", "partition", "s", "blocks", "h", "measure"]),
                  st.text(min_size=1, max_size=6)).filter(lambda key: key not in _ADDED)
#: CSV reads alpha, mu and k from the params, so the check's are numbers.
_consts = st.tuples(
    st.dictionaries(_keys.filter(lambda key: key not in ("alpha", "mu", "k")), _values,
                    max_size=4),
    st.fixed_dictionaries({}, optional={"alpha": _numbers, "mu": _numbers, "k": _numbers}),
).map(lambda parts: {**parts[0], **parts[1]})
_added = st.fixed_dictionaries({}, optional={
    "middle": _floats, "lambda0": _floats, "condition_margin": _floats,
    "failed_condition": _condition, "stage": st.sampled_from(["purified", "mixture"])})
_sides = st.one_of(st.none(), _floats)
_orders = st.lists(st.sampled_from([0.6, 0.83, 0.9, 1.0, 1.1, 1.3, 5000.0]), min_size=1,
                   max_size=6)


@st.composite
def _checks(draw, n_orders):
    # rows of sides None, NaN, +-Infinity and -0.0 (in some checks floats
    # only, as a grid's columns are), whose added keys come from a pool, so
    # rows share one dict as the preparers' rows do; the window, if any,
    # rejects the orders below a cut
    pool = draw(st.lists(_added, min_size=1, max_size=3))
    sides = draw(st.sampled_from([_sides, _floats]))
    rows = draw(st.lists(
        st.tuples(sides, sides, sides, st.sampled_from(pool)),
        min_size=n_orders, max_size=n_orders))
    cut = draw(st.one_of(st.none(), st.sampled_from([0.0, 0.9, 1.2, 10.0])))
    window = None if cut is None else (lambda order: order.alpha >= cut)
    name = draw(st.text(max_size=8))
    return Prepared(name, window, draw(_consts), np.empty(0), lambda block: rows[:len(block)])


@settings(max_examples=150, deadline=None)
@given(data=st.data(), grid=_orders)
def test_spliced_lines_match_json(data, grid):
    # an int stays an int (d: 2) and a float a float (mu: 2.0), and NaN,
    # Infinity and -0.0 are written as json writes them; the verdict comes
    # from the row's slack and the order's window, as in at_orders
    checks = data.draw(st.lists(_checks(len(grid)), min_size=1, max_size=3))
    _assert_grid_lines(grid, checks)
    # any report, whatever its tag, verdict and sides, is written as json does
    reports = data.draw(st.lists(st.builds(
        InequalityReport, st.text(max_size=8), _sides, _sides, _sides, st.booleans(),
        st.sampled_from(list(Applicability)), st.dictionaries(_keys, _values, max_size=5),
    ), max_size=4))
    assert [report_to_json_line(r) for r in reports] == [_doc_line(r) for r in reports]

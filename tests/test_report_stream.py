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

import pytest
from hypothesis import given, settings, strategies as st

from conftest import assert_same_doc
from gwlab import Applicability, InequalityReport, report_to_json_line
from gwlab.cli import _build_parser, _verify_reports, main
from gwlab.inequalities import Prepared, _json_lines

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


def _assert_spliced_lines(reports, checks) -> None:
    want = [_doc_line(r) for r in reports]
    assert [report_to_json_line(r) for r in reports] == want
    assert list(_json_lines(reports, checks)) == want


@pytest.mark.parametrize(
    "stream", sorted(s for s in ARGS if s.startswith("report") and s.endswith(".jsonl"))
)
def test_spliced_lines_of_pinned_streams_match_json(stream):
    # the grid's lines splice each check's params, encoded once; the mixture
    # suite's, some without alpha, are encoded whole
    checks, reports, mixture = _verify_reports(_build_parser().parse_args(ARGS[stream]))
    _assert_spliced_lines(reports, checks)
    assert any("stage" in r.params for r in mixture) == (stream == "report_stream_mixture.jsonl")
    assert [report_to_json_line(r) for r in mixture] == [_doc_line(r) for r in mixture]


_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True), st.sampled_from([-0.0, 0.0, 2.0])
)
_scalars = st.one_of(_floats, st.integers(-(2**70), 2**70), st.booleans(), st.none(),
                     st.text(max_size=6))
_values = st.recursive(_scalars, lambda inner: st.lists(inner, max_size=3), max_leaves=8)
_condition = st.fixed_dictionaries(
    {"chain": st.integers(1, 2), "index": st.integers(2, 9), "margin": _floats})
_keys = st.one_of(st.sampled_from(["d", "mu", "partition", "s", "blocks", "k", "h"]),
                  st.text(min_size=1, max_size=6))
_added = st.fixed_dictionaries({}, optional={
    "alpha": _floats, "middle": _floats, "lambda0": _floats, "condition_margin": _floats,
    "failed_condition": _condition, "stage": st.sampled_from(["purified", "mixture"])})
_sides = st.one_of(st.none(), _floats)


@settings(max_examples=150, deadline=None)
@given(
    consts=st.lists(st.dictionaries(_keys, _values, max_size=5), min_size=1, max_size=3),
    rows=st.lists(st.tuples(_added, _sides, _sides, _sides, st.booleans(),
                            st.sampled_from(list(Applicability)), st.text(max_size=8)),
                  min_size=1, max_size=12),
)
def test_spliced_lines_match_json(consts, rows):
    # report i holds the params of check i % len(checks), as at_orders makes
    # them, plus keys of its own; an int stays an int (d: 2) and a float a
    # float (mu: 2.0), and NaN, Infinity and -0.0 are written as json does
    checks = [Prepared(f"check{i}", None, const, (), None) for i, const in enumerate(consts)]
    reports = []
    for i, (added, lhs, rhs, slack, satisfied, why, name) in enumerate(rows):
        const = consts[i % len(consts)]
        params = {**const, **{k: v for k, v in added.items() if k not in const}}
        reports.append(InequalityReport(name, lhs, rhs, slack, satisfied, why, params))
    _assert_spliced_lines(reports, checks)

"""Pinned ``gwlab verify`` and ``gwlab oracle`` report streams.

The expected verify streams in ``tests/data`` were recorded before the
checkers were merged into one implementation per inequality shape, and the
oracle streams before the two oracle checks were folded into one pipeline.
Between them the oracle streams carry every tag: out of window,
condition unmet, and applicable both satisfied and unsatisfied.  "Same
behaviour" is checked the way the project defines it: every report keeps
its name, applicability tag, verdict and params keys, and every number
agrees within 1e-12.  A deliberate output change re-records a stream by
running the ``ARGS`` below with ``--out tests/data/<file>`` and is written
up in CHANGES.md.
"""

import json
from pathlib import Path

import pytest

from conftest import assert_same_doc
from gwlab.cli import main

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


@pytest.mark.parametrize("stream", sorted(s for s in ARGS if s.startswith("report")))
def test_verify_report_stream_unchanged(stream, tmp_path):
    _assert_stream_unchanged(stream, tmp_path)


@pytest.mark.parametrize("stream", sorted(s for s in ARGS if s.startswith("oracle")))
def test_oracle_report_stream_unchanged(stream, tmp_path):
    _assert_stream_unchanged(stream, tmp_path)

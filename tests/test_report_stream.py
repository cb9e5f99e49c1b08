"""Pinned ``gwlab verify`` and ``gwlab oracle`` report streams.

The expected verify streams in ``tests/data`` were recorded before the
checkers were merged into one implementation per inequality shape; their
JSONL lines name the blocks by ``n_blocks`` since lines stopped listing
each block's parties, the numbers kept as recorded.  Both
oracle streams were recorded again when each concurrence run began taking
one generation (64 trials): every decomposition of a family pair averages
to C, so its line's trials fell to 64 and its roof numbers moved in the
last bits.  Their Renyi lines are those of the oracle that starts each
pair's roof from the rows its block weights give, and were recorded again
when the roof began drawing every generation from one normal and one
uniform stream per call (runs longer than one generation moved, the
concurrence lines kept their bytes), and again when it began drawing
normals for its Haar trials and moves alone and orthonormalising by
Gram-Schmidt: every line moved, the concurrence lines in their last bits.  The oracle streams carry the tags out of window, condition unmet and
applicable satisfied.  No applicable unsatisfied oracle report is pinned:
none of the pinned Renyi runs reaches a plateau in 1000 trials.  "Same
behaviour" is checked the way the project defines it: every report keeps
its name, applicability tag, verdict and params keys, and every number
agrees within 1e-12.  The CSV streams are pinned byte for byte, as the
project's "same behaviour" asks of CSV output, and so are the oracle
streams, whose lines come from the writer that prints verify's.  The README one runs the
default order grid; the mixture one runs the mixture stream's arguments in
CSV and was recorded before the mixture suite's lines came from the grid's
writer.  The 12 ``oracle-pairs`` benchmark jobs of seed 1 are pinned by one
SHA-256 of their ids, exit codes and stdout: they cover every cell shape of
that workload, where the two oracle streams cover two specs.  One more
digest pins an oracle job whose pair and Renyi runs each fill more than one
stack of ``GROUP_RUNS``, and one the single-state roof on states of every
rank, whose isometry shapes no oracle job draws.  A deliberate output change re-records a stream
by running the ``ARGS`` below with ``--out tests/data/<file>`` (or a digest
by running its jobs) and is written up in CHANGES.md.

The oracle byte pins and the roof-ranks pin hold on the numpy build and CPU
features they were recorded on: numpy's AVX-512 float64 loops round some
last bits apart from its other loops.  ``PIN_DISPATCH`` holds one set of
their digests per dispatch, numpy 2.4.6 with and without ``X86_V4``,
``AVX512_ICL`` and ``AVX512_SPR``, and each pin test reads the set of the
running dispatch; on a dispatch with no set it fails, naming the recorded
dispatches and the running one.  A pin re-recorded on purpose is recorded on
every dispatch in ``PIN_DISPATCH``.  ``test_pins_hold_without_avx512`` runs
every stream and pinned job without the AVX-512 loops in a child process:
its byte pins must match the second set, its streams the rules above, with
CSV byte for byte.
"""

import contextlib
import functools
import hashlib
import io
import json
import math
import os
import runpy
import subprocess
import sys
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    MANY_STACK_ORDERS, MANY_STACK_PARTIES, assert_same_doc, many_stack_spec,
    random_complete_partition, random_gw_spec,
)
from gwlab import Applicability, InequalityReport, report_to_csv_row, report_to_json_line
import gwlab
import gwlab.measures
import gwlab.roof
from gwlab.cli import (
    _parse, _verify_checks, _write_lines, cmd_figure, cmd_gamebounds, main, parse_partition,
)
from gwlab.inequalities import (
    CLOSED_FORM_TOL, Prepared, _csv_num, _grid_lines, _json_value, _mixture_checks, at_orders,
)
from gwlab.roof import oracle_lines, oracle_reports
from gwlab.states import GWBlocks, gw_spec_from_json, gw_spec_to_json
from gwlab.tensor import Partition

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


def _avx512_features() -> list[str]:
    """The AVX-512 targets of numpy's dispatch that this host has."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return [name for name in umath.__cpu_dispatch__ if umath.__cpu_features__.get(name)
            and (name.startswith("AVX512") or name == "X86_V4")]


#: Per dispatch, the numpy version and its AVX-512 targets
#: (``_avx512_features``), the SHA-256 of each byte pin that moves with the
#: dispatch: the two oracle streams' bytes (the first set's are those of the
#: files in ``tests/data``), the ``oracle-pairs`` jobs of seed 1, the
#: many-stack job and the roof ranks.  Both sets were last recorded when the
#: roof began drawing normals for its Haar trials and moves alone and
#: orthonormalising by Gram-Schmidt, which moved every one of them; the second
#: with numpy's AVX-512 loops disabled (``NPY_DISABLE_CPU_FEATURES="AVX512_ICL
#: AVX512_SPR X86_V4"``), as on a host without them.
PIN_DISPATCH = {
    ("2.4.6", ("X86_V4", "AVX512_ICL", "AVX512_SPR")): {
        "oracle_stream_mixture.jsonl":
            "dd896c46c3fab1cb4404afd25c6c85a0ded2cd835e7cbf7b0c8bd0cc2a5371db",
        "oracle_stream_readme.jsonl":
            "c69d0f67788ab2140a652210c3aebc61b0b4cca9377f257c8bfa863e8b3bc3c8",
        "oracle_pairs_seed1": "416b79e8056f8cb7431cdbe61587777a0c28807f740db96f057f7b05f1e99a06",
        "many_stack": "650bb5668aa3e0d32317ac3fd0bed258aeee92697452dd28762dd93d38cdd2cc",
        "roof_ranks": "2c6f4812030bfd63180845a14e9501fe3cdba9e387efb2e0269eadf1f4f5ae26",
    },
    ("2.4.6", ()): {
        "oracle_stream_mixture.jsonl":
            "d4f0e8c187f5752da164ea225c98037d0275931972be6d3ba714effdea31a6d8",
        "oracle_stream_readme.jsonl":
            "f1513e1666170588b7103e1f97fc4260475a9760412a3988c00268c2bfaeea26",
        "oracle_pairs_seed1": "dcdeeb1349d4dc91d93caab5ac8ea3688f445bbf0920e1a739499210314ac1b4",
        "many_stack": "5b1eb3aa62ff0b00e4989900c37d34b64aba71eaed117a1452ddc5fb48d9e649",
        "roof_ranks": "f16c08a1ac365700fcfe1ebc3bb00532d3521ffb52f69761f5bdcf70299ba2e1",
    },
}


def _dispatch_note() -> str:
    """The message of a failed byte pin: the dispatches pins were recorded on
    and the one running."""
    recorded = "; ".join(f"numpy {version} with {', '.join(targets) or 'no AVX-512 target'}"
                         for version, targets in PIN_DISPATCH)
    running = ", ".join(_avx512_features()) or "no AVX-512 target"
    return f"pinned on {recorded}; running numpy {np.__version__} with {running}"


def _pin(name: str) -> str:
    """Byte pin ``name``'s digest for the running dispatch; a dispatch with no
    recorded set fails the test, naming the recorded ones and the running one."""
    pins = PIN_DISPATCH.get((np.__version__, tuple(_avx512_features())))
    if pins is None:
        pytest.fail(f"no byte pins recorded for this dispatch: {_dispatch_note()}")
    return pins[name]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("stream", sorted(s for s in ARGS if s.startswith("oracle")))
def test_oracle_report_stream_unchanged(stream, tmp_path):
    _assert_stream_unchanged(stream, tmp_path)
    # and byte for byte: the oracle's lines come from verify's writer
    assert _sha256((tmp_path / stream).read_bytes()) == _pin(stream), _dispatch_note()
    assert _sha256((DATA / stream).read_bytes()) == next(iter(PIN_DISPATCH.values()))[stream]


#: Runs the streams of ``ARGS`` (JSON, argv[1]) into the directory argv[2];
#: prints their exit codes, the named features numpy still dispatches to and
#: the digests of the three byte pins that are not streams.
_STREAMS_CHILD = """
import json, sys
import numpy as np
from gwlab.cli import main
from test_report_stream import _avx512_features, _job_digests
streams, out = json.loads(sys.argv[1]), sys.argv[2]
codes = {name: main(argv + ["--out", f"{out}/{name}"]) for name, argv in streams.items()}
print(json.dumps({"codes": codes, "features": _avx512_features(), "numpy": np.__version__,
                  "digests": _job_digests()}))
"""


def test_pins_hold_without_avx512(tmp_path):
    # numpy picks its float64 loops by CPU at import, and the AVX-512 loops
    # round some last bits differently: with them disabled in a child, the
    # byte pins must match the set recorded for that dispatch, and every exit
    # code, name, tag and verdict, every CSV byte and every JSONL number of
    # the first set's streams must hold within NUM_TOL
    features = _avx512_features()
    if not features:
        pytest.skip("numpy dispatches to no AVX-512 feature on this host")
    paths = [Path(gwlab.__file__).parents[1], Path(__file__).parent, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(features),
           "PYTHONPATH": os.pathsep.join(map(str, filter(None, paths)))}
    child = subprocess.run([sys.executable, "-c", _STREAMS_CHILD, json.dumps(ARGS), str(tmp_path)],
                           env=env, capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    result = json.loads(child.stdout.splitlines()[-1])
    assert result["codes"] == dict.fromkeys(ARGS, 0) and result["features"] == []
    pins = PIN_DISPATCH.get((result["numpy"], ()))
    assert pins is not None, f"no byte pins recorded without AVX-512: {_dispatch_note()}"
    streams = {s: _sha256((tmp_path / s).read_bytes()) for s in ARGS if s.startswith("oracle")}
    assert {**streams, **result["digests"]} == pins
    for stream in ARGS:
        got, want = (tmp_path / stream).read_text(), (DATA / stream).read_text()
        if stream.endswith(".csv"):
            assert got == want, stream
            continue
        got, want = got.splitlines(), want.splitlines()
        assert len(got) == len(want), stream
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same_doc(json.loads(g), json.loads(w), f"{stream} line {i + 1}", NUM_TOL)


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
        (FAILING_ORACLE_SPEC, "1,3|2|0|4", [0.5, 0.9, 1.2], 1000, 176,
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


def test_kernel_chunks_change_no_byte(monkeypatch, capsys):
    # a table evaluated three values at a time, so every vector and the
    # concatenation split mid-vector, writes the bytes of one whole slice
    rng = np.random.default_rng(46)
    jobs = []
    for _ in range(8):
        spec = random_gw_spec(rng, n_min=3, n_max=9, d=int(rng.integers(2, 4)))
        partition = random_complete_partition(rng, spec.n)
        blocks = "|".join(",".join(map(str, sorted(block))) for block in partition.blocks)
        for fmt in ("csv", "jsonl"):
            jobs.append(["verify", "--spec", gw_spec_to_json(spec), "--partition", blocks,
                         *TIGHTER, "--mu", "3", "--format", fmt])
    outputs = {}
    for chunk in (2**40, 3):
        monkeypatch.setattr(gwlab.measures, "KERNEL_CHUNK", chunk)
        for argv in jobs:
            assert main(argv) in (0, 1)
        outputs[chunk] = capsys.readouterr().out
    assert outputs[3] == outputs[2**40] and outputs[3].count("\n") > 16 * 21


def test_verify_and_oracle_share_one_verdict_rule(monkeypatch, capsys):
    # the oracle's codes come from the verdict rule verify's grid uses: one
    # function, which a verify job calls at CLOSED_FORM_TOL and an oracle job
    # at 0.0 on the slack it prints
    assert gwlab.roof._codes is gwlab.inequalities._codes
    original, tols = gwlab.inequalities._codes, []

    def spy(inside, met, slacks, tol):
        tols.append(tol)
        return original(inside, met, slacks, tol)

    for module in (gwlab.inequalities, gwlab.roof):
        monkeypatch.setattr(module, "_codes", spy)
    assert main(ARGS["report_stream_readme.csv"]) == 0
    assert set(tols) == {CLOSED_FORM_TOL}
    tols.clear()
    assert main(ARGS["oracle_stream_readme.jsonl"][:-1] + ["0.9", "--trials", "64"]) == 0
    assert tols == [0.0]
    capsys.readouterr()


def _stdout(argv) -> tuple[int, str]:
    """Exit code and stdout of ``main(argv)``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def _oracle_pairs_digest() -> str:
    """SHA-256 of the 12 ``oracle-pairs`` benchmark jobs of seed 1, run in
    order: per job its id and exit code, then its stdout.  The cells cover
    local dimensions 2 and 3, 3-5 parties, vacuum weights 0 and 0.2 and 3 or
    4 blocks, at 1000 trials and orders 0.9 and 1.2."""
    # the job list comes from the benchmark's own generator, read by path
    workloads = runpy.run_path(str(Path(__file__).parent.parent / "bench" / "workloads.py"))
    jobs = workloads["oracle_pairs_jobs"](1)
    assert len(jobs) == 12
    digest = hashlib.sha256()
    for job in jobs:
        code, out = _stdout(job.argv)
        digest.update(f"{job.job_id} exit {code}\n{out}".encode())
    return digest.hexdigest()


def _many_stack_digest() -> str:
    """SHA-256 of the stdout of conftest's many-stack oracle job (435 pairs
    and 301 orders at 65 trials, seed 9): its pair stack and its Renyi stack
    both split at ``GROUP_RUNS``."""
    n = MANY_STACK_PARTIES
    argv = ["oracle", "--spec", gw_spec_to_json(many_stack_spec()), "--partition",
            "|".join(map(str, range(n))), "--alpha", ",".join(map(str, MANY_STACK_ORDERS)),
            "--trials", "65", "--seed", "9"]
    code, out = _stdout(argv)
    assert code == 0
    assert len(out.splitlines()) == n * (n - 1) // 2 + len(MANY_STACK_ORDERS)
    return _sha256(out.encode())


def _roof_ranks_digest() -> str:
    """SHA-256 of the ``repr`` of ``convex_roof_bounds`` on three random
    two-qubit states of each rank 1-4 (isometry shapes 3 x 1 to 6 x 4), at
    every kernel band and the concurrence, over one and 18 generations.  The
    oracle pins run rank-2 pairs only; numpy's complex product rounds by
    memory layout, so the other shapes need a pin of their own."""
    rng = np.random.default_rng(11)
    digest = hashlib.sha256()
    for rank in (1, 2, 3, 4):
        for seed in (7, 8, 9):
            a = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
            rho = gwlab.DensityOperator(a @ a.conj().T / np.vdot(a, a).real,
                                        gwlab.SubsystemLayout((2, 2)))
            for order, trials in product((None, 1.0000005, 1.0005, 1.1, 2.0), (65, 1100)):
                digest.update(repr(gwlab.convex_roof_bounds(rho, trials, seed, order)).encode())
    return digest.hexdigest()


def _job_digests() -> dict:
    """The byte pins of ``PIN_DISPATCH`` that are not stream files."""
    return {"oracle_pairs_seed1": _oracle_pairs_digest(), "many_stack": _many_stack_digest(),
            "roof_ranks": _roof_ranks_digest()}


def test_oracle_pairs_jobs_bytes_unchanged():
    assert _oracle_pairs_digest() == _pin("oracle_pairs_seed1"), _dispatch_note()


def test_many_stack_oracle_job_bytes_unchanged():
    assert _many_stack_digest() == _pin("many_stack"), _dispatch_note()


def test_roof_bounds_of_every_rank_unchanged():
    assert _roof_ranks_digest() == _pin("roof_ranks"), _dispatch_note()


#: One job of each command, without ``--out``.
COMMANDS = {
    "verify": ARGS["report_stream_readme.jsonl"],
    "oracle": ARGS["oracle_stream_mixture.jsonl"],
    **{f"figure{i}": ["figure", str(i)] for i in (1, 2, 3)},
    "gamebounds": ["gamebounds", "--n", "1,16", "--d", "2,4"],
}


@pytest.mark.parametrize("command", list(COMMANDS))
def test_same_bytes_to_file_and_stdout(tmp_path, capsys, command):
    # the one writer gives --out and stdout the same bytes: lines that each
    # end in "\n", none of them empty
    out = tmp_path / "out"
    assert main(COMMANDS[command] + ["--out", str(out)]) == 0
    assert main(COMMANDS[command]) == 0
    text = capsys.readouterr().out
    assert text.encode() == out.read_bytes()
    assert text.endswith("\n") and all(text.split("\n")[:-1])


def _written(lines, out: str) -> list[str]:
    lines = list(lines)
    _write_lines(iter(lines), out)
    return lines


def _verify_lines(name: str, fmt: str, out: str) -> list[str]:
    """The lines ``verify`` writes for a pinned stream's arguments in either
    format (no CSV header), the grid's, then the mixture suite's if any,
    written to ``out``."""
    args = _parse(ARGS[f"report_stream_{name}.jsonl"])
    weights, w, tighter, grid, checks = _verify_checks(args)
    mixture = _mixture_checks(weights, w, tighter) if w else []
    csv = fmt == "csv"
    middle = [grid[len(grid) // 2]]
    lines = [*_grid_lines(grid, checks, csv)[1], *_grid_lines(middle, mixture, csv)[1]]
    return _written(lines, out)


#: Each line producer, given the ``--out`` path, writes its lines there
#: through ``_write_lines`` and returns them.
PRODUCERS = {
    **{f"grid-{name}-{fmt}": functools.partial(_verify_lines, name, fmt)
       for name in ("readme", "mixture") for fmt in ("jsonl", "csv")},
    "oracle": lambda out: _written(oracle_lines(
        GWBlocks.of(gw_spec_from_json(MIXTURE_SPEC)), parse_partition("0|2,3|1|4", 5),
        [0.5, 0.9, 1.2], trials=100, seed=11), out),
    **{f"figure{i}": functools.partial(cmd_figure, i) for i in (1, 2, 3)},
    "gamebounds": functools.partial(cmd_gamebounds, [1, 16], [2, 4]),
}


@pytest.mark.parametrize("producer", list(PRODUCERS))
def test_writer_writes_the_joined_lines(tmp_path, producer):
    # every line is whole where it is made, newline and all, so the writer
    # adds nothing: the file is the lines joined
    out = tmp_path / "out"
    lines = PRODUCERS[producer](str(out))
    assert lines and all(line.endswith("\n") and line.count("\n") == 1 for line in lines)
    assert out.read_bytes() == "".join(lines).encode()


def _json_value_calls(monkeypatch, orders) -> tuple[int, list]:
    # the lines of the many-stack job at 65 trials, and every value the
    # column writer sent to the json encoder one row at a time
    seen = []

    def spy(value):
        seen.append(value)
        return _json_value(value)

    monkeypatch.setattr("gwlab.inequalities._json_value", spy)
    n = MANY_STACK_PARTIES
    lines = list(oracle_lines(GWBlocks.of(many_stack_spec()), Partition.singletons(n), orders,
                              trials=65, seed=9))
    assert len(lines) == n * (n - 1) // 2 + len(orders)
    return len(lines), seen


def test_oracle_bool_columns_skip_the_json_encoder(monkeypatch):
    # the converged and max_side_checked columns hold only bools; each is
    # printed through one lookup, never by a json encoding per row
    lines, seen = _json_value_calls(monkeypatch, ())
    assert len(seen) < lines
    assert not any(isinstance(value, bool) for value in seen)


def test_oracle_float_columns_skip_the_json_encoder(monkeypatch):
    # e_alpha_formula's float columns hold NaN only on the rows of orders
    # outside the window, which print none of them: the types are read from
    # the rows that print a column, so no float is encoded one row at a time
    lines, seen = _json_value_calls(monkeypatch, MANY_STACK_ORDERS)
    assert len(seen) < lines
    assert not any(isinstance(value, (bool, float)) for value in seen)


def test_column_types_come_from_the_rows_that_print_it():
    # the held row's sides are finite and the failed row's slack is NaN; the
    # out-of-window row holds NaN in every column and prints none of them
    columns = [[1.0, 2.0, math.nan], [0.5, 1.0, math.nan], [0.5, math.nan, math.nan],
               [0.1, 0.2, math.nan]]
    check = Prepared("x", lambda alpha: alpha < 1.2, {}, np.empty(0),
                     lambda block: [np.array(c) for c in columns], added=("middle",))
    _assert_grid_lines([0.9, 1.1, 1.3], [check])


def _doc_line(report: InequalityReport) -> str:
    doc = {"name": report.name, "lhs": report.lhs, "rhs": report.rhs,
           "slack": report.slack, "satisfied": report.satisfied,
           "applicability": report.applicability.value, "params": report.params}
    return json.dumps(doc, sort_keys=True)


def _assert_grid_lines(grid, checks) -> None:
    # the grid writer encodes each order's alpha and each check's constant
    # fields once, and builds no report; its lines must be those of the
    # reports at_orders builds from the same columns, in both formats, each
    # ended by its template's newline
    reports = at_orders(grid, checks)
    want = [_doc_line(r) for r in reports]
    assert [report_to_json_line(r) for r in reports] == want
    failed, lines = _grid_lines(grid, checks)
    assert list(lines) == [line + "\n" for line in want]
    failed_csv, rows = _grid_lines(grid, checks, csv=True)
    assert list(rows) == [",".join(report_to_csv_row(r)) + "\n" for r in reports]
    # the one verdict rule: out of the check's window, else unmet when it has
    # no evaluator, else satisfied by the slack
    for report, (order, check) in zip(reports, product(grid, checks)):
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
    weights, w, tighter, grid, checks = _verify_checks(_parse(ARGS[stream]))
    _assert_grid_lines(grid, checks)
    mixture = _mixture_checks(weights, w, tighter) if w else []
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
    # float columns (lhs, rhs, slack) that hold NaN, +-Infinity and -0.0, an
    # added key's column of such floats or of bools (as the oracle's
    # converged), or no evaluator at all, as for an unmet side condition;
    # constant in-window params; the window, if any, rejects the orders below
    # a cut
    added, in_window = draw(_added), draw(_in_window)
    floats = st.lists(_floats, min_size=n_orders, max_size=n_orders)
    flags = st.lists(st.booleans(), min_size=n_orders, max_size=n_orders)
    columns = draw(st.tuples(*[floats] * 3, *[st.one_of(floats, flags)] * len(added)))
    evaluate = draw(st.sampled_from([None, lambda block: [np.array(c) for c in columns]]))
    cut = draw(st.one_of(st.none(), st.sampled_from([0.0, 0.9, 1.2, 10.0])))
    window = None if cut is None else (lambda alpha: alpha >= cut)
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

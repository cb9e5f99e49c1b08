"""Command-line behavior: datasets, exit codes and byte determinism."""

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
import gwlab.measures
import gwlab.roof
import gwlab.tensor
from gwlab import (
    GWSpec,
    gw_spec_to_json,
    report_to_json_line,
    superpose_with_vacuum,
    verify_c_equals_ca,
    verify_e_alpha_formula,
)
from gwlab.cli import alpha_grid, cmd_figure, cmd_gamebounds, main, parse_partition
from gwlab.featured import FIG1_AMPLITUDES


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


def test_parse_partition():
    p = parse_partition("0|1,2|3")
    assert [sorted(b) for b in p.blocks] == [[0], [1, 2], [3]]
    with pytest.raises(ValueError):
        parse_partition("0||2")


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


def test_verify_inline_spec(tmp_path):
    spec = gw_spec_to_json(GWSpec.qubit([0.6, 0.8]))
    out = tmp_path / "r.jsonl"
    code = main(["verify", "--spec", spec, "--alpha", "1.1:1.1:1", "--out", str(out)])
    assert code == 0


def test_verify_malformed_spec_exit_two(tmp_path):
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


#: Each rejected order grid and the reason its error names.
BAD_GRIDS = {
    "0.9:inf:0.1": "non-finite",
    "0.9:1.3:nan": "non-finite",
    "nan:1.3:0.1": "non-finite",
    # 0.9 + k * 1e-300 == 0.9, so a grid built without a size check never ends
    "0.9:1.3:1e-300": "more than 100000 orders",
    "0.9:1.3:1e-9": "more than 100000 orders",
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


def test_verify_dense_work_independent_of_grid(monkeypatch, tmp_path):
    # verify runs on block weights, so neither grid compresses any local
    # support, whatever its number of orders
    calls = []
    compress = gwlab.measures.compress_local_support

    def counting(state):
        calls.append(state)
        return compress(state)

    monkeypatch.setattr(gwlab.measures, "compress_local_support", counting)
    spec = gw_spec_to_json(GWSpec.qubit([0.5, 0.5, 0.5, 0.5], vacuum_weight=0.2))
    counts = []
    for grid in ("1.1:1.1:1", "0.83:1.30:0.05"):
        calls.clear()
        args = ["verify", "--spec", spec, "--alpha", grid, "--c-pow", "2"]
        args += ["--b-pow", "1", "--k", "2", "--out", str(tmp_path / "r.jsonl")]
        assert main(args) == 0
        counts.append(len(calls))
    assert len(alpha_grid(0.83, 1.30, 0.05)) == 10
    assert counts == [0, 0]


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
    # one oracle_reports call gets the full state and every target; it
    # reduces each block pair itself, so the CLI makes no reduction of its own
    args = ["oracle", "--spec", spec_file, "--partition", "0|1,2|3"]
    args += ["--trials", "300", "--seed", "7", "--alpha", "0.9,1.1"]
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(args + ["--out", str(a)]) == 0

    def refuse(*args, **kwargs):
        raise AssertionError("cmd_oracle reduced the state itself")

    calls = []
    real = gwlab.cli.oracle_reports

    def spy(state, targets, **kwargs):
        calls.append((state, targets))
        return real(state, targets, **kwargs)

    monkeypatch.setattr(gwlab.cli, "reduce_to_parties", refuse)
    monkeypatch.setattr(gwlab.cli, "oracle_reports", spy)
    assert main(args + ["--out", str(b)]) == 0
    assert b.read_bytes() == a.read_bytes()
    assert len(b.read_text().splitlines()) == 5
    [(state, targets)] = calls
    assert state.layout.n_parties == 4
    assert [order and order.alpha for _, order in targets] == [None] * 3 + [0.9, 1.1]


def test_oracle_lockstep_lines_equal_solo_runs(tmp_path, monkeypatch):
    # party 1 carries no excitation, so the pair {0} | {2, 3} is pure: rank 1,
    # isometries of shape (3, 1) beside the (4, 2) of the two mixed pairs;
    # the orders run on the mixed pair {0} | {1}, and 0.5 is out of window
    spec = GWSpec.qubit(np.array([0.6, 0.0, 0.64, 0.48]))
    path = tmp_path / "spec.json"
    path.write_text(gw_spec_to_json(spec))
    shapes = set()
    real = gwlab.roof._generation_draws

    def record(seed, g, m, r):
        shapes.add((m, r))
        return real(seed, g, m, r)

    monkeypatch.setattr(gwlab.roof, "_generation_draws", record)
    out = tmp_path / "o.jsonl"
    args = ["oracle", "--spec", str(path), "--partition", "0|1|2,3", "--trials", "300"]
    assert main(args + ["--seed", "5", "--alpha", "1.1,0.5", "--out", str(out)]) == 0
    assert shapes == {(4, 2), (3, 1)}

    psi = superpose_with_vacuum(spec)
    a, b, c = {0}, {1}, {2, 3}
    solo = []
    for pair in ((a, b), (a, c), (b, c)):
        report = verify_c_equals_ca(psi, trials=300, seed=5, blocks=pair)
        report.params["pair"] = [sorted(pair[0]), sorted(pair[1])]
        solo.append(report)
    solo += [verify_e_alpha_formula(psi, x, trials=300, seed=5, blocks=(a, b))
             for x in (1.1, 0.5)]
    assert solo[1].params["roof_min"] == pytest.approx(solo[1].params["roof_max"])
    assert solo[4].applicability.value == "OUT_OF_WINDOW"
    assert out.read_text().splitlines() == [report_to_json_line(r) for r in solo]


def test_oracle_draws_each_generation_once_per_shape(spec_file, tmp_path, monkeypatch):
    # README spec: three blocks, so three pairs plus two orders share every
    # generation of the single isometry shape
    calls = []
    real = gwlab.roof._generation_draws

    def count(seed, g, m, r):
        draws = real(seed, g, m, r)
        haar, rest = draws
        assert not any(x.flags.writeable for x in (haar, *rest))
        calls.append((g, m, r))
        return draws

    monkeypatch.setattr(gwlab.roof, "_generation_draws", count)
    args = ["oracle", "--spec", spec_file, "--partition", "0|1,2|3", "--trials", "1000"]
    assert main(args + ["--seed", "7", "--alpha", "0.9,1.1",
                        "--out", str(tmp_path / "o.jsonl")]) == 0
    generations = -(-1000 // gwlab.roof.GENERATION)
    assert sorted(calls) == [(g, 4, 2) for g in range(generations)]


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
    out = tmp_path / "r.jsonl"
    main(["oracle", "--spec", spec_file, "--trials", "10", "--seed", "1", "--out", str(out)])
    reports = [json.loads(line) for line in out.read_text().splitlines()]
    assert all(not r["params"]["converged"] for r in reports)
    assert all(r["applicability"] == "CONDITION_UNMET" for r in reports)


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


def test_unknown_figure_id():
    with pytest.raises(ValueError):
        cmd_figure(7)


def test_oracle_checks_orders_before_any_roof(spec_file, monkeypatch, capsys):
    def roof(*args, **kwargs):
        raise AssertionError("a roof ran before the orders were checked")

    monkeypatch.setattr(gwlab.cli, "oracle_reports", roof)
    args = ["oracle", "--spec", spec_file, "--trials", "10", "--alpha", "0.9,-1"]
    assert main(args) == 2
    assert "Renyi order must be positive" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra, env_seed, message",
    [
        (["--trials", "0"], None, "--trials must be at least 1"),
        (["--seed", "-1"], None, "--seed must be non-negative"),
        ([], "seven", "GWLAB_SEED must be a non-negative integer"),
        ([], "-3", "GWLAB_SEED must be a non-negative integer"),
    ],
    ids=["trials-zero", "seed-negative", "env-seed-not-int", "env-seed-negative"],
)
def test_oracle_checks_trials_and_seed_before_any_roof(
    spec_file, monkeypatch, capsys, extra, env_seed, message
):
    calls = []
    monkeypatch.setattr(gwlab.cli, "oracle_reports", lambda *a, **k: calls.append(a))
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


#: 14 qubits split as one party against the other 13: the pair of the two
#: blocks is a dense 2^14 x 2^14 operator, 4 GiB of complex entries.
WIDE_SPEC = gw_spec_to_json(GWSpec.qubit(np.ones(14) / math.sqrt(14)))
WIDE_CUT = "0|" + ",".join(str(p) for p in range(1, 14))


def test_oracle_refuses_oversize_dense_array():
    proc = _run_capped(["oracle", "--spec", WIDE_SPEC, "--partition", WIDE_CUT,
                        "--trials", "10"])
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: a dense 16384x16384 array needs")
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
    assert len(reports[0]["params"]["partition"]) == 1000

"""Scale record of ``gwlab verify`` and ``gwlab oracle`` (ROADMAP item 1b).

    python3 perf/scale.py --out BENCH.json [--against DIR]

Cells, every one on singleton qubits with vacuum weight 0.2, at equal
weights and at distinct ones (amplitudes 0.1 + U(0, 1) from
``random.Random(5)``, normalised):

- ``verify-scale``: ``gwlab verify`` in CSV on the default order grid at
  n = 10^3, 10^4, 10^5 and 10^6, and in JSONL at n = 10^5 (distinct weights);
- ``oracle-scale``: ``gwlab oracle`` on 200 parties, 1000 trials, order 1.2,
  seed 3.

Each cell runs in fresh child processes under the benchmark's address-space
cap and BLAS thread settings (``bench/run.py``).  A verify cell's first
child times loading the spec and ``prepare_checks`` in process, and reads
with tracemalloc the peak above live memory of ``_grid_lines`` with its
lines consumed.  Its second child, like an oracle cell's only one, runs the
whole job through ``gwlab.cli.main`` and reports its peak RSS (VmHWM, so
Linux only); this process times it.  Every output is checked by the benchmark's ``check_job``, which
recomputes lhs and rhs from the spec (once per distinct output: an n = 10^6
check takes minutes).  With ``--against DIR`` every cell also runs on the
checkout DIR, the two sides alternating which runs first from round to
round, and each cell's outputs must be byte-identical across sides.

The record goes under the key ``scale`` of the JSON file ``--out``; other
keys of an existing file are kept.  It holds every round, the medians per
cell and side, the checks, the bench manifest's host fields, numpy's SIMD
extensions and whether each checkout had cached bytecode.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import numpy  # noqa: E402

from checks import check_job  # noqa: E402
from pass_runner import host_speed  # noqa: E402
from run import ADDRESS_SPACE_CAP, BLAS_THREADS, manifest  # noqa: E402
from workloads import Job  # noqa: E402

VERIFY_SIZES = (10**3, 10**4, 10**5, 10**6)
#: The default order grid of ``gwlab verify``, as ``check_job`` counts it.
DEFAULT_GRID = "0.8229:1.3027:0.005"
ORACLE_PARTIES = 200
#: Rounds per cell and side.
ROUNDS = 3
VACUUM_WEIGHT = 0.2

#: Runs in a verify cell's first child: argv[1] is the checkout's src, argv[2]
#: the job's argv as JSON; prints its stage record as JSON.
_STAGES = """
import json, sys, time, tracemalloc
sys.path.insert(0, sys.argv[1])
from gwlab import cli
from gwlab.inequalities import _grid_lines, prepare_checks
args = cli._parse(json.loads(sys.argv[2]))
start = time.perf_counter()
psi, partition = cli._load_blocks(args)
loaded = time.perf_counter()
checks = prepare_checks(psi, partition, args.mu, cli._tighter(args))
prepared = time.perf_counter()
tracemalloc.start()
live = tracemalloc.get_traced_memory()[0]
for line in _grid_lines(cli.alpha_grid(*cli.DEFAULT_ALPHA_GRID), checks, args.format == "csv")[1]:
    pass
peak = tracemalloc.get_traced_memory()[1] - live
print(json.dumps({"load_s": loaded - start, "prepare_s": prepared - loaded,
                  "grid_peak_mb": peak / 2**20}))
"""

#: Runs in a cell's whole-job child: argv[1] is the checkout's src, argv[2]
#: the job's argv as JSON; prints its peak RSS and exits with the job's exit
#: code.  The peak is this process's VmHWM: a forked child's ru_maxrss would
#: include the recorder's own pages from before the exec.
_WHOLE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from gwlab.cli import main
code = main(json.loads(sys.argv[2]))
with open("/proc/self/status") as status:
    peak = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
print(json.dumps({"peak_rss_mb": peak / 1024}))
sys.exit(code)
"""


def _spec(n: int, weights: str) -> dict:
    if weights == "equal":
        amplitudes = [1.0] * n
    else:
        rng = random.Random(5)
        amplitudes = [0.1 + rng.random() for _ in range(n)]
    norm = math.sqrt(math.fsum(a * a for a in amplitudes))
    return {"n": n, "d": 2, "amplitudes": [[a / norm, 0.0] for a in amplitudes],
            "vacuum_weight": VACUUM_WEIGHT}


def cells() -> list[tuple[str, str, int, str]]:
    """(name, command, n, weights) of every cell."""
    out = [(f"verify-csv-n{n}-{weights}", "verify", n, weights)
           for n in VERIFY_SIZES for weights in ("equal", "distinct")]
    out.append(("verify-jsonl-n100000-distinct", "verify", 10**5, "distinct"))
    out += [(f"oracle-n{ORACLE_PARTIES}-{weights}", "oracle", ORACLE_PARTIES, weights)
            for weights in ("equal", "distinct")]
    return out


def _job(name: str, command: str, n: int, spec_path: Path) -> Job:
    """The cell's job, its argv without ``--out``, as ``check_job`` reads it;
    the spec, which only the check needs, is rebuilt for it."""
    if command == "oracle":
        argv = ["oracle", "--spec", str(spec_path), "--trials", "1000", "--alpha", "1.2",
                "--seed", "3"]
        return Job(name, "oracle", argv, "jsonl", meta={"n_blocks": n, "n_alphas": 1})
    fmt = "jsonl" if "jsonl" in name else "csv"
    return Job(name, "verify", ["verify", "--spec", str(spec_path), "--format", fmt], fmt,
               grid=DEFAULT_GRID)


def _limit_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))


def _child(code: str, src: Path, argv: list[str]) -> tuple[int, float, str]:
    """Exit code, wall seconds and stdout of one child."""
    env = dict(os.environ, **BLAS_THREADS)
    start = time.perf_counter()
    child = subprocess.run([sys.executable, "-c", code, str(src), json.dumps(argv)],
                           stdout=subprocess.PIPE, env=env, preexec_fn=_limit_address_space)
    return child.returncode, time.perf_counter() - start, child.stdout.decode()


def run_cell(job: Job, src: Path, out: Path) -> dict:
    """The stage record (verify only) and the whole job's record of one cell
    on the checkout whose sources are ``src``; its output is left in ``out``."""
    record = {}
    if job.kind == "verify":
        rc, _, text = _child(_STAGES, src, job.argv)
        if rc != 0:
            raise RuntimeError(f"{job.job_id}: stage child exited with {rc}")
        record["stages"] = json.loads(text.splitlines()[-1])
    rc, wall, text = _child(_WHOLE, src, job.argv + ["--out", str(out)])
    digest = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None
    record["whole"] = {"rc": rc, "wall_s": wall, **json.loads(text.splitlines()[-1]),
                       "sha256": digest}
    return record


def _medians(rounds: list[dict]) -> dict:
    """Per cell and side, the median of every number of its rounds."""
    values: dict = {}
    for entry in rounds:
        side = values.setdefault(entry["cell"], {}).setdefault(entry["side"], {})
        for part in ("stages", "whole"):
            for key, value in entry.get(part, {}).items():
                if isinstance(value, float):
                    side.setdefault(key, []).append(value)
    return {cell: {side: {key: statistics.median(v) for key, v in metrics.items()}
                   for side, metrics in sides.items()} for cell, sides in values.items()}


def _host() -> dict:
    """The bench manifest's host fields (its job-list fields name a bench
    workload, so they are left out), numpy's SIMD extensions and the speed
    of the host by the bench's calibration slice."""
    records = [{"python": platform.python_version(), "numpy": numpy.__version__}]
    host = {key: value for key, value in manifest("verify-sweep", 0, 0, False, records).items()
            if key not in ("workload", "seed", "seconds", "trace", "jobs_sha256")}
    rng = numpy.random.default_rng(0)
    mats = [rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) for _ in range(8)]
    host["calibration_s"] = host_speed(mats)
    host["simd"] = numpy.show_config(mode="dicts").get("SIMD Extensions")
    return host


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--against", type=Path, help="a second checkout to run every cell on")
    args = parser.parse_args(argv)
    sides = {"change": ROOT / "src"}
    if args.against is not None:
        sides["parent"] = args.against.resolve() / "src"
    record = {"sides": {side: str(src.parent) for side, src in sides.items()},
              "host": _host(), "bytecode": {
                  "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
                  "cached": {side: any((src / "gwlab" / "__pycache__").glob("*.pyc"))
                             for side, src in sides.items()}},
              "rounds": [], "checks": {}, "identical": {}}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        jobs, specs = [], {}
        for name, command, n, weights in cells():
            path = tmp / f"{name}.json"
            path.write_text(json.dumps(_spec(n, weights)))
            jobs.append(_job(name, command, n, path))
            specs[name] = (n, weights)
        for r in range(ROUNDS):
            order = list(sides) if r % 2 == 0 else list(sides)[::-1]
            for job in jobs:
                for side in order:
                    out = tmp / f"{job.job_id}-{side}.{job.ext}"
                    entry = {"round": r + 1, "side": side, "cell": job.job_id,
                             **run_cell(job, sides[side], out)}
                    record["rounds"].append(entry)
                    print(json.dumps(entry), file=sys.stderr)
                    digest = entry["whole"]["sha256"]
                    if digest not in record["checks"]:
                        reason, stats = check_job(replace(job, spec=_spec(*specs[job.job_id])),
                                                  out.read_text() if digest else "",
                                                  entry["whole"]["rc"])
                        record["checks"][digest] = {"cell": job.job_id, "reason": reason,
                                                    "stats": stats}
                    out.unlink(missing_ok=True)
    for job in jobs:
        digests = {e["whole"]["sha256"] for e in record["rounds"] if e["cell"] == job.job_id}
        record["identical"][job.job_id] = len(digests) == 1
    record["medians"] = _medians(record["rounds"])
    record["correct"] = (all(record["identical"].values())
                         and all(c["reason"] is None for c in record["checks"].values()))
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc["scale"] = record
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print(json.dumps({"correct": record["correct"], "medians": record["medians"]}, indent=1))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

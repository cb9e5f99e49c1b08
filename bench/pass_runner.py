"""One benchmark pass: run a workload's jobs through ``gwlab.cli.main``.

Started by ``run.py`` as a fresh process per pass, so import time, peak RSS
and the address-space cap belong to this pass alone.  Usage:

    python3 bench/pass_runner.py --workload W --seed S --dir D --trace 0|1

Jobs run one after another in this process, each writing its output to a
file in ``D``.  A short calibration loop that uses nothing from gwlab is
timed after set-up and after every job, to measure how fast the host runs.  Outputs are checked after every job has been timed; the
record of the pass goes to ``D/pass.json`` (and the spans of a traced pass
to ``D/spans.tsv``).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402

import gwlab.cli  # noqa: E402
from checks import check_job  # noqa: E402
from tracer import Tracer, missing_names  # noqa: E402
from workloads import generate  # noqa: E402


def _calibration_slice(mats: list) -> float:
    """Seconds for a fixed mix of small numpy calls and interpreter work,
    the operation mix of the workloads, using nothing from gwlab."""
    start = time.perf_counter()
    for _ in range(20):
        for m in mats:
            numpy.linalg.eigvalsh(m @ m.conj().T)
        table = {}
        for i in range(200):
            table[i] = i * 0.5
    return time.perf_counter() - start


def host_speed(mats: list) -> float:
    """Fastest of three calibration slices: how fast the host runs now."""
    return min(_calibration_slice(mats) for _ in range(3))


def run_pass(workload: str, seed: int, out_dir: Path, traced: bool,
             setup_only: bool = False) -> dict:
    jobs = generate(workload, seed)
    if setup_only:
        jobs = []
    tracer = Tracer() if traced else None
    entry = tracer.wrap(gwlab.cli.main, "cli.main") if tracer else gwlab.cli.main
    records = []
    setup_done_at = time.monotonic()
    rng = numpy.random.default_rng(0)
    mats = [rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) for _ in range(8)]
    calibration = [host_speed(mats)]
    with tracer or contextlib.nullcontext():
        for i, job in enumerate(jobs):
            out = out_dir / f"{i:02d}-{job.job_id}.{job.ext}"
            if tracer is not None:
                tracer.job = i
            error = None
            start = time.perf_counter()
            try:
                rc = entry(job.argv + ["--out", str(out)])
            except Exception as exc:  # a failed job is counted, not fatal
                rc, error = None, f"{type(exc).__name__}: {exc}"[:300]
            seconds = time.perf_counter() - start
            records.append({"id": job.job_id, "kind": job.kind, "seconds": seconds,
                            "rc": rc, "error": error, "out": out})
            calibration.append(host_speed(mats))

    digest = hashlib.sha256()
    for job, rec in zip(jobs, records):
        out = rec.pop("out")
        text = out.read_text() if out.exists() else ""
        digest.update(f"{job.job_id}\0{text}\0".encode())
        if rec["error"] is None:
            rec["error"], rec["stats"] = check_job(job, text, rec["rc"])
        out.unlink(missing_ok=True)

    result = {
        "setup_done_at": setup_done_at,
        "calibration_s": calibration,
        "jobs": records,
        "output_sha256": digest.hexdigest(),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        result["trace"]["missing"] = missing_names()
        tracer.write_spans(out_dir / "spans.tsv")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after imports and job generation")
    args = parser.parse_args()
    if not Path(gwlab.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.stderr.write(f"gwlab imported from {gwlab.cli.__file__}, not this checkout\n")
        return 2
    out_dir = Path(args.dir)
    result = run_pass(args.workload, args.seed, out_dir, bool(args.trace),
                      args.setup_only)
    (out_dir / "pass.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

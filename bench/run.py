"""gwlab benchmark: run one workload, check every output, print every metric.

    python3 bench/run.py --workload verify-sweep --seed 1 --seconds 30 --trace 0

Workloads are ``verify-sweep``, ``verify-wide`` and ``oracle-pairs`` (or
``all``, which runs the three in turn).  A run is a fixed number of passes,
each a fresh child process (``pass_runner.py``) that imports numpy and
gwlab, generates the seed's jobs and runs them one after another through
``gwlab.cli.main``.  The number of passes follows from ``--seconds`` and the
pass length measured on the seed commit, so every run of a workload times
the same jobs the same number of times.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics from the
traced ones (see tracer.py).  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it holds the run manifest and the details.  The full record
is also written to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracer import LAYERS, METRIC_FUNCTIONS  # noqa: E402
from workloads import WORKLOADS, generate, jobs_sha256  # noqa: E402

#: Median pass length on the seed commit (2-core x86-64 VM, untraced).
NOMINAL_PASS_S = {"verify-sweep": 9.5, "verify-wide": 7.2, "oracle-pairs": 4.7}
MIN_PASSES = 3
#: Set-up is also timed in extra processes that stop before the first job,
#: so its median rests on at least this many starts.
SETUP_SAMPLES = 5
#: Address-space cap of every pass process; the largest seed job (the
#: n=11 vacuum mixture of verify-wide) peaks near 0.55 GiB of address space.
ADDRESS_SPACE_CAP = 2 * 1024**3
BLAS_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}
#: Time of one calibration measurement (``pass_runner.host_speed``) when
#: the 2-core x86-64 VM ran at full speed.  Host speed there drifts by up to
#: 1.8x within minutes, so end-to-end times are reported at this reference
#: speed: each time is scaled by this over the calibration measured around
#: it, in the same process.  Raw times are in the details.
REFERENCE_CALIBRATION_S = 2.0e-3
#: A run gives up (without a result) once this much time has passed.
RUN_DEADLINE_S = 170.0
OUT_ROOT = ROOT / ".bench_out"


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def tail_percentile(n: int) -> int | None:
    """Highest whole percentile with at least ten of ``n`` samples above it
    (nearest-rank definition); None when there is no such percentile."""
    for p in range(99, 0, -1):
        rank = -(-p * n // 100)
        if n - rank >= 10:
            return p
    return None


def nearest_rank(values: list[float], p: int) -> float:
    ordered = sorted(values)
    rank = max(1, -(-p * len(ordered) // 100))
    return ordered[rank - 1]


def plan_passes(workload: str, seconds: int, trace: bool) -> list[bool]:
    """Traced flag of each pass; a traced run pairs untraced and traced passes."""
    count = max(MIN_PASSES, round(seconds / NOMINAL_PASS_S[workload]))
    if not trace:
        return [False] * count
    return [False, True] * max(1, count // 2)


def _limit_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))


def spawn_pass(workload: str, seed: int, pass_dir: Path, traced: bool,
               deadline: float, setup_only: bool = False) -> dict:
    """Run one pass in a child process and return its record plus set-up time."""
    pass_dir.mkdir(parents=True)
    env = dict(os.environ, **BLAS_THREADS)
    cmd = [sys.executable, str(BENCH / "pass_runner.py"), "--workload", workload,
           "--seed", str(seed), "--dir", str(pass_dir), "--trace", str(int(traced))]
    if setup_only:
        cmd.append("--setup-only")
    with open(pass_dir / "stderr.txt", "w") as err:
        spawned_at = time.monotonic()
        child = subprocess.Popen(cmd, stdout=err, stderr=err, env=env, cwd=ROOT,
                                 preexec_fn=_limit_address_space)
        try:
            rc = child.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            raise BenchError(f"pass in {pass_dir} exceeded the run deadline")
    record_file = pass_dir / "pass.json"
    if rc != 0 or not record_file.exists():
        tail = (pass_dir / "stderr.txt").read_text()[-2000:]
        raise BenchError(f"pass process exited with {rc}:\n{tail}")
    record = json.loads(record_file.read_text())
    cal = record["calibration_s"]
    record["setup_s_raw"] = record["setup_done_at"] - spawned_at
    record["setup_s"] = record["setup_s_raw"] * REFERENCE_CALIBRATION_S / cal[0]
    for i, job in enumerate(record["jobs"]):
        job["scaled_seconds"] = job["seconds"] * REFERENCE_CALIBRATION_S / (
            (cal[i] + cal[i + 1]) / 2)
    record["traced"] = traced
    return record


def _wall(record: dict) -> float:
    return sum(job["seconds"] for job in record["jobs"])


def _job_times(passes: list[dict], key: str) -> list[tuple[float, ...]]:
    """Each job's times, one per pass."""
    return list(zip(*([job[key] for job in rec["jobs"]] for rec in passes)))


def best_wall(passes: list[dict], key: str = "seconds") -> float:
    """Pass time with every job at its fastest pass."""
    return sum(min(times) for times in _job_times(passes, key))


def _total(record: dict, key: str) -> int:
    return sum(job.get("stats", {}).get(key, 0) for job in record["jobs"])


def end_to_end(passes: list[dict], setups: list[dict]) -> tuple[dict, dict]:
    """End-to-end metrics over the untraced passes, plus details.

    Times are at the reference host speed.  Load from outside the run only
    ever slows a job down, and it comes in bursts, so a job's time is its
    fastest pass: ``wall_s`` sums those and ``job_p50_ms`` is their median.
    ``job_tail_ms`` keeps every (job, pass) sample, because the tail is
    where such bursts show.
    """
    per_job = _job_times(passes, "scaled_seconds")
    best = [min(times) for times in per_job]
    samples_ms = [t * 1e3 for times in per_job for t in times]
    tail_p = tail_percentile(len(samples_ms))
    wall = sum(best)
    reports = _total(passes[0], "reports")
    metrics = {
        "setup_s": statistics.median(rec["setup_s"] for rec in setups),
        "wall_s": wall,
        "job_p50_ms": statistics.median(best) * 1e3,
        "job_tail_ms": nearest_rank(samples_ms, tail_p) if tail_p else max(samples_ms),
        "reports_per_s": reports / wall,
        "peak_rss_mb": statistics.median(rec["maxrss_kb"] / 1024 for rec in passes),
    }
    details = {
        "passes": len(passes),
        "jobs_per_pass": len(best),
        "job_samples": len(samples_ms),
        "job_tail_percentile": tail_p,
        "reports_per_pass": reports,
        "trials_per_s": _total(passes[0], "trials") / wall,
        "wall_s_raw": best_wall(passes),
        "setup_s_raw": statistics.median(rec["setup_s_raw"] for rec in setups),
        "host_speed_factor": REFERENCE_CALIBRATION_S / statistics.median(
            c for rec in setups for c in rec["calibration_s"]),
        "wall_s_raw_per_pass": [_wall(rec) for rec in passes],
    }
    return metrics, details


def per_layer(traced: list[dict], untraced: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics: medians over the traced passes."""
    def med(values):
        return statistics.median(list(values))

    metrics: dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = med(
            rec["trace"]["layer_self_s"].get(layer, 0.0) for rec in traced)
    for layer, names in METRIC_FUNCTIONS.items():
        for name in names:
            entries = [rec["trace"]["functions"].get(f"{layer}.{name}",
                                                     {"calls": 0, "seconds": 0.0})
                       for rec in traced]
            metrics[f"{layer}.{name}.us_per_call"] = med(
                e["seconds"] / e["calls"] * 1e6 if e["calls"] else 0.0 for e in entries)
            metrics[f"{layer}.{name}.calls"] = entries[0]["calls"]  # same every pass
    metrics["roof.self_us_per_trial"] = med(
        rec["trace"]["layer_self_s"].get("roof", 0.0) / _total(rec, "trials") * 1e6
        if _total(rec, "trials") else 0.0 for rec in traced)
    metrics["tensor.dense_bytes_max"] = max(rec["trace"]["dense_bytes_max"] for rec in traced)
    reports = _total(traced[0], "reports")
    metrics["inequalities.applicable_ratio"] = (
        _total(traced[0], "applicable") / reports if reports else 0.0)
    estimates = _total(traced[0], "estimates")
    metrics["roof.converged_ratio"] = (
        _total(traced[0], "converged") / estimates if estimates else 0.0)
    metrics["trace.overhead_ratio"] = best_wall(traced) / best_wall(untraced) - 1.0
    details = {
        "featured.self_s": med(rec["trace"]["layer_self_s"].get("featured", 0.0)
                               for rec in traced),
        "tensor.dense_bytes_max": "largest amplitude vector or density matrix "
                                  "passed to or returned from a tensor-layer call",
        "spans_per_pass": traced[0]["trace"]["spans"],
        "missing_names": traced[0]["trace"]["missing"],
    }
    return metrics, details


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def manifest(workload: str, seed: int, seconds: int, trace: bool,
             records: list[dict]) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "jobs_sha256": jobs_sha256(generate(workload, seed)),
        "git_commit": git_commit(),
        "python": records[0]["python"],
        "numpy": records[0]["numpy"],
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "address_space_cap_bytes": ADDRESS_SPACE_CAP,
        "platform": platform.platform(),
    }


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    run_dir = OUT_ROOT / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    records = []
    for i, traced in enumerate(plan_passes(workload, seconds, trace)):
        if i >= 2 and time.monotonic() - started > 2 * seconds:
            break  # a much slower program still finishes in time
        records.append(spawn_pass(workload, seed, run_dir / f"pass{i}", traced, deadline))
    untraced = [rec for rec in records if not rec["traced"]]
    traced = [rec for rec in records if rec["traced"]]

    failures = [
        {"pass": i, "job": job["id"], "reason": job["error"]}
        for i, rec in enumerate(records) for job in rec["jobs"] if job["error"]
    ]
    digests = {rec["output_sha256"] for rec in records}
    attempted = sum(len(rec["jobs"]) for rec in records)
    if trace:
        metrics, details = per_layer(traced, untraced)
    else:
        setups = records + [
            spawn_pass(workload, seed, run_dir / f"setup{i}", False, deadline, True)
            for i in range(max(0, SETUP_SAMPLES - len(records)))
        ]
        metrics, details = end_to_end(untraced, setups)
    details["failed_ratio"] = len(failures) / attempted
    return {
        "correct": not failures and len(digests) == 1,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
        "details": details,
        "failures": failures[:20],
        "identical_outputs_across_passes": len(digests) == 1,
        "manifest": manifest(workload, seed, seconds, trace, records),
        "elapsed_s": time.monotonic() - started,
    }


def declared_units(trace: bool) -> dict[str, str]:
    """Metric names and units that BENCHMARK.json declares for this mode."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def print_result(result: dict, units: dict[str, str]) -> None:
    man = result["manifest"]
    print(f"# {man['workload']} seed={man['seed']} trace={int(man['trace'])} "
          f"correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']} jobs_sha256={man['jobs_sha256'][:16]}")
    for failure in result["failures"]:
        print(f"# FAILED pass {failure['pass']} job {failure['job']}: {failure['reason']}")
    for name, value in result["metrics"].items():
        print(f"{name:<52} {value:>16.6g} {units[name]}")
    for name, value in result["details"].items():
        print(f"# {name}: {value}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gwlab" / "cli.py").is_file():
        sys.stderr.write(f"no gwlab sources under {ROOT / 'src'}; run from a full checkout\n")
        return 2
    units = declared_units(bool(args.trace))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in workloads:
            result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
            if result["metrics"].keys() != units.keys():
                raise BenchError("measured metrics differ from BENCHMARK.json: "
                                 f"{sorted(result['metrics'].keys() ^ units.keys())}")
            name = f"result-{workload}-seed{args.seed}-trace{args.trace}.json"
            (OUT_ROOT / name).write_text(json.dumps(result, indent=1))
            print_result(result, units)
            results[workload] = result
    except BenchError as exc:
        sys.stderr.write(f"benchmark error: {exc}\n")
        return 1
    final = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {},
    }
    for workload, result in results.items():
        prefix = f"{workload}." if len(results) > 1 else ""
        for name, value in result["metrics"].items():
            final["metrics"][prefix + name] = {"value": value, "unit": units[name]}
        print(json.dumps({"manifest": result["manifest"], "details": result["details"]}))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

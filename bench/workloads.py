"""Job lists for the three benchmark workloads, generated from a seed.

A job is one ``gwlab`` CLI invocation.  Generation uses only the standard
library, so the orchestrator can hash a job list without importing numpy,
and the same (workload, seed) pair gives the same jobs on every Python.
Spec documents are written here, not through ``gwlab``'s own serializer, so
the inputs do not change when the program under test changes.

Block counts and sizes, vacuum weights, mu values and output formats are
assigned by a fixed table per workload; the seed draws the amplitudes,
which parties fall into which block and the oracle seeds.  That keeps the work per pass
nearly independent of the seed while every seed runs different states.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from typing import Optional

WORKLOADS = ("verify-sweep", "verify-wide", "oracle-pairs")

#: Order grids passed to ``gwlab verify --alpha``.
SWEEP_GRID = "0.83:1.30:0.01"
WIDE_GRID = "0.83:1.30:0.05"
#: Tightened-bound exponents passed to every verify job.
TIGHTER_FLAGS = ["--c-pow", "2", "--b-pow", "1", "--k", "2"]

#: verify-sweep cells: (local dimension, party count, block count, vacuum weight).
SWEEP_CELLS = (
    (2, 3, 3, 0.0),
    (2, 4, 4, 0.2),
    (2, 5, 5, 0.0),
    (2, 6, 3, 0.2),
    (2, 7, 4, 0.0),
    (3, 3, 3, 0.2),
    (3, 4, 4, 0.0),
    (3, 5, 5, 0.2),
)
SWEEP_MU = (2.0, 3.0, 0.5)
#: Fixed jobs of every verify-sweep pass; their bytes are checked against
#: output recorded from the seed commit.
FIXED_JOBS = (
    ("figure1", ["figure", "1"]),
    ("figure2", ["figure", "2"]),
    ("figure3", ["figure", "3"]),
    ("gamebounds", ["gamebounds", "--n", "1,2,4,8,16,32,64", "--d", "2,3,4,8"]),
)

#: verify-wide states: (name, party count, vacuum weight, partition or None
#: for singleton blocks).
WIDE_STATES = (
    ("pure-n14", 14, 0.0, None),
    ("pure-n16", 16, 0.0, None),
    ("multi-n11", 11, 0.0, "0|1,2|3|4,5,6,7,8,9,10"),
    ("mix-n10", 10, 0.3, None),
    ("mix-n11", 11, 0.3, None),
)

#: oracle-pairs cells: (local dimension, party count, block count, vacuum weight).
ORACLE_CELLS = tuple(
    (d, n, 3 if n == 3 else 3 + (i % 2), w)
    for i, (n, d, w) in enumerate(
        (n, d, w) for n in (3, 4, 5) for d in (2, 3) for w in (0.0, 0.2)
    )
)
ORACLE_TRIALS = 1000
ORACLE_ALPHAS = "0.9,1.2"


@dataclass
class Job:
    """One CLI invocation; ``argv`` lacks the ``--out`` pair the runner adds."""

    job_id: str
    kind: str  # "verify", "oracle" or "fixed"
    argv: list[str]
    ext: str
    spec: Optional[dict] = None
    partition: Optional[str] = None
    grid: Optional[str] = None
    mu: float = 2.0
    meta: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "id": self.job_id,
            "kind": self.kind,
            "argv": self.argv,
            "ext": self.ext,
        }


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"gwlab-bench/{workload}/{int(seed)}")


def random_spec(rng: random.Random, n: int, d: int, w: float) -> dict:
    """Unit-norm complex amplitude table in the ``gw_spec_from_json`` schema."""
    raw = [complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(n * (d - 1))]
    norm = math.sqrt(sum(abs(a) ** 2 for a in raw))
    pairs = [[a.real / norm, a.imag / norm] for a in raw]
    return {"n": n, "d": d, "amplitudes": pairs, "vacuum_weight": w}


def random_partition(rng: random.Random, n: int, n_blocks: int) -> str:
    """Parties 0..n-1 shuffled into ``n_blocks`` blocks of balanced sizes.

    Sizes differ by at most one, larger blocks first, so the cost of a job
    depends on the seed as little as possible.
    """
    parties = list(range(n))
    rng.shuffle(parties)
    sizes = [n // n_blocks + (i < n % n_blocks) for i in range(n_blocks)]
    blocks, start = [], 0
    for size in sizes:
        blocks.append(sorted(parties[start:start + size]))
        start += size
    return "|".join(",".join(str(p) for p in block) for block in blocks)


def _spec_text(spec: dict) -> str:
    return json.dumps(spec, sort_keys=True)


def _verify_job(job_id, spec, partition, grid, mu, fmt) -> Job:
    argv = ["verify", "--spec", _spec_text(spec), "--alpha", grid]
    if partition is not None:
        argv += ["--partition", partition]
    argv += TIGHTER_FLAGS + ["--mu", repr(mu), "--format", fmt]
    return Job(job_id, "verify", argv, fmt, spec=spec, partition=partition,
               grid=grid, mu=mu)


def verify_sweep_jobs(seed: int) -> list[Job]:
    rng = _rng("verify-sweep", seed)
    jobs = []
    for i, (d, n, k, w) in enumerate(SWEEP_CELLS):
        spec = random_spec(rng, n, d, w)
        partition = random_partition(rng, n, k)
        fmt = "csv" if i % 2 else "jsonl"
        jobs.append(_verify_job(f"sweep-{i}-d{d}n{n}", spec, partition, SWEEP_GRID,
                                SWEEP_MU[i % len(SWEEP_MU)], fmt))
    for name, argv in FIXED_JOBS:
        jobs.append(Job(name, "fixed", list(argv), "csv"))
    return jobs


def verify_wide_jobs(seed: int) -> list[Job]:
    rng = _rng("verify-wide", seed)
    jobs = []
    for name, n, w, partition in WIDE_STATES:
        spec = random_spec(rng, n, 2, w)
        jobs.append(_verify_job(name, spec, partition, WIDE_GRID, 2.0, "jsonl"))
    return jobs


def oracle_pairs_jobs(seed: int) -> list[Job]:
    rng = _rng("oracle-pairs", seed)
    jobs = []
    for i, (d, n, k, w) in enumerate(ORACLE_CELLS):
        spec = random_spec(rng, n, d, w)
        partition = random_partition(rng, n, k)
        job_seed = rng.randrange(2**31)
        argv = ["oracle", "--spec", _spec_text(spec), "--partition", partition,
                "--trials", str(ORACLE_TRIALS), "--seed", str(job_seed),
                "--alpha", ORACLE_ALPHAS]
        jobs.append(Job(f"oracle-{i}-d{d}n{n}", "oracle", argv, "jsonl",
                        spec=spec, partition=partition,
                        meta={"n_blocks": k, "n_alphas": len(ORACLE_ALPHAS.split(","))}))
    return jobs


_GENERATORS = {
    "verify-sweep": verify_sweep_jobs,
    "verify-wide": verify_wide_jobs,
    "oracle-pairs": oracle_pairs_jobs,
}


def generate(workload: str, seed: int) -> list[Job]:
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return _GENERATORS[workload](seed)


def jobs_sha256(jobs: list[Job]) -> str:
    """Digest of the job list: spec JSON, partition, grid and every flag."""
    text = json.dumps([job.to_json() for job in jobs], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()

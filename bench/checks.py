"""Output checks for benchmark jobs, independent of the program under test.

Verify reports are recomputed from the block weights ``s_B`` of the
generated spec (the squared amplitudes carried by the parties of ``B``) and
the vacuum weight ``w``.  On this family the pair and one-to-rest squared
concurrences are

    C^2(S, K) = 4 (1-w)^2 s_S s_K
    C^2(S | R) = 4 (1-w)^2 s_S s_R,

with ``R`` the union of the other blocks present in the (possibly reduced)
state.  Oracle lines must respect the convex-roof minimum: a sampled
average can never undercut the true roof.  Fixed jobs must reproduce the
bytes recorded from the seed commit.  Nothing here imports numpy or gwlab.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Optional

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

#: lhs and rhs must match the recomputation this closely.
RECOMPUTE_TOL = 1e-9
#: A sampled roof minimum may sit below the closed form by float noise only.
ROOF_FLOOR_TOL = 1e-9
#: The program's documented oracle agreement tolerance (gwlab.roof).
AGREEMENT_TOL = 5e-3
#: Orders this close to 1 use the von Neumann limit, as in gwlab.measures.
VON_NEUMANN_BAND = 1e-6

#: Verify reports whose values follow from the block weights alone.
CHECKED_REPORTS = (
    "monogamy_sq",
    "monogamy_power",
    "polygamy",
    "polygamy_power",
    "reoa_triangle",
)


def f_alpha(x: float, alpha: float) -> float:
    """Renyi-alpha entanglement of a Schmidt-rank-2 state with C^2 = x."""
    x = min(max(x, 0.0), 1.0)
    lo = (1.0 - math.sqrt(1.0 - x)) / 2.0
    hi = 1.0 - lo
    if abs(alpha - 1.0) < VON_NEUMANN_BAND:
        return -sum(p * math.log2(p) for p in (lo, hi) if p > 0.0)
    return math.log2(lo**alpha + hi**alpha) / (1.0 - alpha)


def grid_size(grid: str) -> int:
    """Number of orders ``gwlab verify --alpha start:stop:step`` sweeps."""
    start, stop, step = (float(v) for v in grid.split(":"))
    count, k = 0, 0
    while start + k * step <= stop + 1e-12:
        count += abs(start + k * step - 1.0) >= 1e-9
        k += 1
    return count


def block_weights(spec: dict, blocks: list[list[int]]) -> list[float]:
    rows = spec["amplitudes"]
    per_row = len(rows) // spec["n"]
    party = [
        sum(re * re + im * im for re, im in rows[p * per_row:(p + 1) * per_row])
        for p in range(spec["n"])
    ]
    total = sum(party)
    return [sum(party[p] for p in block) / total for block in blocks]


def parse_blocks(partition: Optional[str], n: int) -> list[list[int]]:
    if partition is None:
        return [[p] for p in range(n)]
    return [[int(m) for m in chunk.split(",")] for chunk in partition.split("|")]


def expected_report(name: str, alpha: float, mu: float, weights: list[float],
                    w: float) -> tuple[float, float]:
    """(lhs, rhs) of one checked report for the given block weights."""
    scale = 4.0 * (1.0 - w) ** 2
    if name == "reoa_triangle":
        first = weights[:3]
        values = [
            f_alpha(scale * s * (sum(first) - s), alpha) for s in first
        ]
        return values[0], values[1] + values[2]
    s_0, others = weights[0], weights[1:]
    total = f_alpha(scale * s_0 * sum(others), alpha)
    pairs = [f_alpha(scale * s_0 * s_k, alpha) for s_k in others]
    power = {"monogamy_sq": 2.0, "polygamy": 1.0}.get(name, mu)
    return total**power, sum(p**power for p in pairs)


def _verify_rows(text: str, fmt: str):
    """(name, applicable, alpha, lhs, rhs) per report line."""
    lines = text.splitlines()
    if fmt == "csv":
        header = lines[0].split(",")
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            applicable = row["lhs"] != ""
            yield (row["name"], applicable, float(row["alpha"] or "nan"),
                   float(row["lhs"]) if applicable else None,
                   float(row["rhs"]) if applicable else None)
    else:
        for line in lines:
            doc = json.loads(line)
            yield (doc["name"], doc["applicability"] == "APPLICABLE",
                   doc["params"].get("alpha"), doc["lhs"], doc["rhs"])


def check_verify(job, text: str, rc: int) -> tuple[Optional[str], dict]:
    """Exit code 0 and every checked main-sweep report matches its recomputation.

    The main sweep emits each checked report once per order before the
    mixture suite appends its own, so the first ``grid_size`` occurrences of
    a name are the main-sweep ones.
    """
    stats = {"reports": 0, "applicable": 0, "checked": 0}
    if rc != 0:
        return f"exit code {rc}", stats
    spec = job.spec
    blocks = parse_blocks(job.partition, spec["n"])
    weights = block_weights(spec, blocks)
    w = spec["vacuum_weight"]
    limit = grid_size(job.grid)
    seen: dict[str, int] = {}
    for name, applicable, alpha, lhs, rhs in _verify_rows(text, job.ext):
        stats["reports"] += 1
        stats["applicable"] += applicable
        if name not in CHECKED_REPORTS:
            continue
        seen[name] = seen.get(name, 0) + 1
        if not applicable or seen[name] > limit:
            continue
        want_lhs, want_rhs = expected_report(name, alpha, job.mu, weights, w)
        if abs(lhs - want_lhs) > RECOMPUTE_TOL or abs(rhs - want_rhs) > RECOMPUTE_TOL:
            return (f"{name} at alpha={alpha}: got ({lhs!r}, {rhs!r}), "
                    f"recomputed ({want_lhs!r}, {want_rhs!r})"), stats
        stats["checked"] += 1
    if stats["checked"] == 0:
        return "no checkable report in the output", stats
    return None, stats


def check_oracle(job, text: str, rc: int) -> tuple[Optional[str], dict]:
    """Every roof minimum lies at or above its closed form and agrees with it.

    The maximizing side is never gated: the assisted-value identity it
    tests is a documented finding against the paper.
    """
    stats = {"reports": 0, "applicable": 0, "estimates": 0, "trials": 0,
             "converged": 0}
    if rc != 0:
        return f"exit code {rc}", stats
    k = job.meta["n_blocks"]
    want_lines = k * (k - 1) // 2 + job.meta["n_alphas"]
    for line in text.splitlines():
        doc = json.loads(line)
        stats["reports"] += 1
        stats["applicable"] += doc["applicability"] == "APPLICABLE"
        params = doc["params"]
        if "roof_min" not in params:
            continue
        stats["estimates"] += 1
        stats["trials"] += int(params["trials"])
        stats["converged"] += bool(params["converged"])
        closed, roof_min = params["closed_form"], params["roof_min"]
        if roof_min < closed - ROOF_FLOOR_TOL:
            return (f"{doc['name']}: roof_min {roof_min!r} undercuts the closed "
                    f"form {closed!r}"), stats
        if abs(roof_min - closed) > AGREEMENT_TOL:
            return (f"{doc['name']}: roof_min {roof_min!r} disagrees with the "
                    f"closed form {closed!r}"), stats
    if stats["reports"] != want_lines:
        return f"{stats['reports']} lines, expected {want_lines}", stats
    if stats["estimates"] != want_lines:
        return f"{stats['estimates']} roof estimates, expected {want_lines}", stats
    return None, stats


def check_fixed(job, text: str, rc: int) -> tuple[Optional[str], dict]:
    """Byte equality with the output recorded from the seed commit."""
    if rc != 0:
        return f"exit code {rc}", {}
    golden = (GOLDEN_DIR / f"{job.job_id}.csv").read_text()
    if text != golden:
        return f"output differs from golden/{job.job_id}.csv", {}
    return None, {}


CHECKERS = {"verify": check_verify, "oracle": check_oracle, "fixed": check_fixed}


def check_job(job, text: str, rc: int) -> tuple[Optional[str], dict]:
    """Failure reason (None when the output is correct) and output counts."""
    return CHECKERS[job.kind](job, text, rc)

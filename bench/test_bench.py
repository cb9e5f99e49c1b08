"""Self-tests of the benchmark harness: python3 -m pytest bench -q"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import gwlab.cli  # noqa: E402
from checks import check_job  # noqa: E402
from run import nearest_rank, tail_percentile  # noqa: E402
from tracer import SEED_IMPORT_SITES, MODULES, Tracer, missing_names  # noqa: E402
from workloads import WORKLOADS, generate, jobs_sha256  # noqa: E402


def _run(job, tmp_path, entry=gwlab.cli.main) -> tuple[str, int]:
    out = tmp_path / f"{job.job_id}.{job.ext}"
    rc = entry(job.argv + ["--out", str(out)])
    return out.read_text(), rc


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    assert jobs_sha256(generate(workload, 5)) == jobs_sha256(generate(workload, 5))
    assert jobs_sha256(generate(workload, 5)) != jobs_sha256(generate(workload, 6))


@pytest.mark.parametrize("index", [0, 5])  # one jsonl and one csv job
def test_verify_checker_rejects_perturbed_lhs(tmp_path, index):
    job = generate("verify-sweep", 3)[index]
    text, rc = _run(job, tmp_path)
    assert check_job(job, text, rc)[0] is None

    lines = text.splitlines()
    if job.ext == "jsonl":
        doc = json.loads(lines[0])
        assert doc["name"] == "monogamy_sq" and doc["applicability"] == "APPLICABLE"
        doc["lhs"] += 1e-6
        lines[0] = json.dumps(doc, sort_keys=True)
    else:
        row = lines[1].split(",")
        assert row[0] == "monogamy_sq" and row[4] != ""
        row[4] = repr(float(row[4]) + 1e-6)
        lines[1] = ",".join(row)
    reason, _ = check_job(job, "\n".join(lines) + "\n", rc)
    assert reason is not None and "monogamy_sq" in reason


def test_oracle_checker_rejects_roof_min_below_closed_form(tmp_path):
    job = generate("oracle-pairs", 3)[0]
    text, rc = _run(job, tmp_path)
    assert check_job(job, text, rc)[0] is None

    docs = [json.loads(line) for line in text.splitlines()]
    docs[0]["params"]["roof_min"] = docs[0]["params"]["closed_form"] - 1e-6
    bad = "".join(json.dumps(d, sort_keys=True) + "\n" for d in docs)
    reason, _ = check_job(job, bad, rc)
    assert reason is not None and "undercuts" in reason


def _module_state() -> dict:
    modules = [sys.modules[f"gwlab.{m}"] for m in MODULES]
    return {m.__name__: dict(vars(m)) for m in modules}


def test_traced_run_restores_modules_and_keeps_output(tmp_path):
    job = generate("verify-sweep", 3)[0]
    plain, _ = _run(job, tmp_path)
    before = _module_state()
    tracer = Tracer()
    with tracer:
        for site in SEED_IMPORT_SITES:
            module, attr = site.split(".")
            assert getattr(sys.modules[f"gwlab.{module}"], attr) is not before[
                f"gwlab.{module}"][attr], site
        traced, _ = _run(job, tmp_path, tracer.wrap(gwlab.cli.main, "cli.main"))
    after = _module_state()
    assert before.keys() == after.keys()
    for name in before:
        assert before[name].keys() == after[name].keys()
        for attr, value in before[name].items():
            assert after[name][attr] is value, f"{name}.{attr}"
    assert traced == plain
    summary = tracer.summary()
    assert summary["layer_self_s"]["tensor"] > 0
    assert summary["functions"]["cli.main"]["calls"] == 1


def test_missing_names_are_listed_not_raised(monkeypatch):
    assert missing_names() == []
    monkeypatch.delattr(sys.modules["gwlab.cli"], "check_polygamy")
    assert missing_names() == ["cli.check_polygamy"]
    with Tracer():
        pass


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(100) == 90
    assert tail_percentile(36) == 72
    assert tail_percentile(20) == 50
    assert tail_percentile(10) is None
    for n in range(11, 400):
        p = tail_percentile(n)
        beyond = n - (-(-p * n // 100))
        assert beyond >= 10
        if p < 99:
            assert n - (-(-(p + 1) * n // 100)) < 10
    assert nearest_rank(list(range(1, 101)), 90) == 90

"""The benchmark's traced runs, checked the way `perfbench/run.py --trace 1`
checks them: one traced worker on each of two default workloads, its
outputs against the goldens and its spans against the workload's
expectations (coverage, nesting, S-pair counters and certify's own share).
A break here would otherwise first show as a benchmark run that cannot
measure."""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


def _job(workload):
    if workload == "sweep-matrix":
        return {"kind": "matrix", "argv": list(wl.MATRIX_ARGV)}, wl.golden_matrix()
    specs = wl.draw(workload, wl.DEFAULT_SEED, wl.load_pool()["costs"])
    return {"kind": "certify", "specs": specs}, wl.golden_reports()


@pytest.mark.parametrize("workload", ["certify-homology", "sweep-matrix"])
def test_a_traced_sample_passes_the_benchmark_checks(workload):
    job, golden = _job(workload)
    result, _ = run.spawn(dict(job, fields=list(wl.FIELDS), trace=True), 0, 120)
    attempted, failed, reasons = run.failed_ops(job["kind"], result["ops"], golden)
    assert attempted and not failed, reasons
    reports = {op["spec"]: op["stats"] for op in result["ops"] if "stats" in op}
    counters = tracing.check_spans(workload, result["spans"], reports)
    assert counters and all(set(c) == {"2", "32003"} for c in counters.values())

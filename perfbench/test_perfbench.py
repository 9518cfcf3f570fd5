"""Tests of the benchmark harness itself: the seeded draw, the golden gate,
the exact counters and the span coverage check."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

FIELDS = [2, 32003]


@pytest.fixture(scope="module")
def costs():
    return wl.load_pool()["costs"]


def sample(kind, hashseed, trace=False, **job):
    result, setup_s = run.spawn(dict(job, kind=kind, fields=FIELDS, trace=trace),
                                hashseed, 120)
    assert setup_s > 0
    return result


def test_default_seed_gives_the_default_lists(costs):
    assert wl.draw("certify-homology", wl.DEFAULT_SEED, costs) == [
        "cycle:13", "dumbbell:4,4,4", "bicyclic:5,8", "dumbbell:3,4,5"]
    assert wl.draw("certify-groebner", wl.DEFAULT_SEED, costs) == [
        "bicyclic:8,10", "bicyclic:9,11", "dumbbell:8,1,8", "cycle:40"]


@pytest.mark.parametrize("workload", sorted(wl.CERTIFY_SLOTS))
def test_seeded_draw_is_repeatable_and_cost_matched(workload, costs):
    slots = wl.CERTIFY_SLOTS[workload]
    target = sum(costs[s] for s in wl.draw(workload, wl.DEFAULT_SEED, costs))
    draws = set()
    for seed in (1, 2, 3, 1234):
        picked = wl.draw(workload, seed, costs)
        assert picked == wl.draw(workload, seed, costs)
        assert len(set(picked)) == len(slots)
        for spec, (family, vmin, vmax, _) in zip(picked, slots):
            assert spec.split(":")[0] == family
            assert vmin <= wl.nvertices(spec) <= vmax
        assert abs(sum(costs[s] for s in picked) - target) <= wl.COST_TOLERANCE * target
        draws.add(tuple(picked))
    assert len(draws) > 1


def test_every_pool_instance_has_a_golden_and_none_is_known_slow(costs):
    pool = wl.load_pool()
    assert set(wl.golden_reports()) == set(costs)
    assert not {entry["spec"] for entry in pool["known_slow"]} & set(costs)


def test_child_env_pins_threads_and_source(monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "8")
    monkeypatch.setenv("EDGEIDEAL_SPAIR_BUDGET", "5")
    monkeypatch.setenv("PYTHONPATH", "/elsewhere")
    env = run.child_env(7)
    assert all(env[var] == "1" for var in run.THREAD_VARS)
    assert "EDGEIDEAL_SPAIR_BUDGET" not in env
    assert env["PYTHONPATH"] == str(wl.ROOT / "src")
    assert env["PYTHONHASHSEED"] == "7"


def test_corrupted_certify_golden_is_an_error():
    result = sample("certify", 1, specs=["cycle:6"])
    (op,) = result["ops"]
    assert run.failed_ops("certify", result["ops"], {"cycle:6": op["output"]})[:2] == (1, 0)
    corrupted = op["output"].replace('"s_pairs": ', '"s_pairs": 1')
    assert corrupted != op["output"]
    assert run.failed_ops("certify", result["ops"], {"cycle:6": corrupted})[:2] == (1, 1)
    assert run.failed_ops("certify", result["ops"], {})[:2] == (1, 1)


def test_corrupted_matrix_golden_is_an_error():
    result = sample("matrix", 1, argv=["matrix", "--max-vertices", "4"])
    golden = result["ops"][0]["stdout"]
    rows = golden.splitlines(keepends=True)
    assert len(rows) > 2
    assert run.failed_ops("matrix", result["ops"], golden)[:2] == (len(rows), 0)
    flipped = golden.replace('"verdict": "pass"', '"verdict": "fail"', 1)
    assert run.failed_ops("matrix", result["ops"], flipped)[1] == 1
    assert run.failed_ops("matrix", result["ops"], golden + rows[0])[1] == 1


def test_counters_repeat_exactly_across_hash_seeds():
    seen = []
    for hashseed in (1, 4242):
        result = sample("certify", hashseed, trace=True, specs=["cycle:6", "bicyclic:3,4"],
                        probe=["cycle:6"])
        reports = {op["spec"]: op["stats"] for op in result["ops"]}
        counters = tracing.check_spans("certify-homology", result["spans"], reports)
        assert counters["cycle:6"]["2"]["spairs"] > 0
        assert counters["cycle:6"]["32003"]["betti_table_calls"] == 1
        probe = [(p["faces"], p["boundary_entries"], p["dims"]) for p in result["probe"]]
        seen.append((counters, probe, reports))
    assert seen[0] == seen[1]


def test_span_check_rejects_unexpected_or_missing_layers():
    result = sample("certify", 1, trace=True, specs=["cycle:6"])
    reports = {op["spec"]: op["stats"] for op in result["ops"]}
    tracing.check_spans("certify-homology", result["spans"], reports)
    with pytest.raises(tracing.HarnessError, match="unexpected"):
        tracing.check_spans("certify-groebner", result["spans"], reports)
    with pytest.raises(tracing.HarnessError, match="never fired"):
        tracing.check_spans("sweep-matrix", result["spans"], reports)
    wrong = {"cycle:6": dict(reports["cycle:6"], s_pairs=reports["cycle:6"]["s_pairs"] + 1)}
    with pytest.raises(tracing.HarnessError, match="disagree"):
        tracing.check_spans("certify-homology", result["spans"], wrong)


def test_emitted_metrics_match_benchmark_json():
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    result = sample("certify", 1, trace=True, specs=["cycle:6"], probe=["cycle:6"])
    result["failed"] = 0
    run_ = {"workload": "certify-homology", "setup": [0.1], "plain": [result],
            "traced": [result]}
    assert set(run.end_to_end(run_)) == {m["name"] for m in spec["end_to_end"]}
    metrics, _ = run.per_layer(run_)
    assert {name: unit for name, (_, unit) in metrics.items()} == \
        {m["name"]: m["unit"] for m in spec["per_layer"]}


def test_span_check_rejects_unaccounted_certify_time():
    children = sorted(tracing.ALWAYS - {"verify.certify"})
    spans = [{"id": 0, "name": "verify.certify", "parent": None, "spec": "cycle:6",
              "start": 0.0, "end": 1.0}]
    spans += [{"id": i, "name": name, "parent": 0, "start": i / 10, "end": i / 10 + 0.01}
              for i, name in enumerate(children, 1)]
    with pytest.raises(tracing.HarnessError, match="unaccounted"):
        tracing.check_spans("certify-groebner", spans, {})
    for i, span in enumerate(spans[1:]):  # back to back, the children cover the call
        span["start"], span["end"] = i / len(children), (i + 1) / len(children)
    tracing.check_spans("certify-groebner", spans, {})

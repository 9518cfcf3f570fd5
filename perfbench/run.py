"""Certification benchmark for edgeideal.

Usage (from the repository root):

    python3 perfbench/run.py --workload certify-homology --seed 0 --seconds 42 --trace 0

One client runs a closed loop: each sample is a fresh interpreter that
imports edgeideal from ./src and runs the workload's calls once, and the
next sample starts when it ends.  A fresh process per sample is what every
CLI call pays: the homology shape cache and the case-table cache are
process-global and start cold.  Another sample starts only while it would
end, judged by the median length of the samples so far, within --seconds.

--trace 0 reports the end-to-end metrics: setup_s, the median time from
starting the interpreter to `import edgeideal` done, over several import-only
processes and every sample; wall_s, the median time of the workload's calls;
and peak_rss_mb, the median peak resident memory of a sample.  --trace 1
alternates untraced and traced samples and reports the per-layer metrics
derived from the spans of the traced ones (see tracing.py).

Every operation (one certified instance, or one matrix row) is compared
byte for byte with the golden output in data/; a mismatch, an exception, a
nonzero exit or a verdict other than pass counts as failed.  The last line
of stdout is one JSON object with keys correct, attempted, failed and
metrics.  The exit code is 0 when a result was printed; a run that cannot
measure (no ./src, a broken worker, inconsistent spans or counters) prints
no result and exits 2.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import time

import tracing
import workloads as wl

SETUP_PROBES = 10
WORKER_TIMEOUT_S = 150
RUN_DEADLINE_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
LAYER_TIMES = (
    "homcomplex.projective_dimension.gf2.s", "homcomplex.projective_dimension.gf32003.s",
    "groebner.buchberger.s", "groebner.buchberger.self_s",
    "verify.verify_reverse.gf2.s", "verify.verify_reverse.gf32003.s",
    "verify.verify_forward.s", "verify.certify.s", "verify.certify.self_s",
    "sequences.sequence_for.s", "cli.matrix.self_s",
    "homcomplex.reduced_homology_dims.gf2.s", "homcomplex.reduced_homology_dims.gf32003.s",
)
LAYER_COUNTS = (
    "homcomplex.betti_table.calls", "groebner.radical_membership.calls",
    "groebner.spairs.gf2", "groebner.spairs.gf32003", "sequences.sequence_for.calls",
)


def child_env(hashseed: int) -> dict[str, str]:
    """Environment of a worker: edgeideal from ./src only, numpy and BLAS
    pinned to one thread so a small box measures the program rather than
    the scheduler, and a fixed hash seed."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PYTHON", "EDGEIDEAL_"))}
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    env["PYTHONPATH"] = str(wl.ROOT / "src")
    env["PYTHONHASHSEED"] = str(hashseed % 2**32)
    return env


def spawn(job: dict, hashseed: int, timeout: float) -> tuple[dict, float]:
    """Run one worker; return its result and its set-up time in seconds."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(wl.HERE / "worker.py"), json.dumps(job)],
        cwd=wl.ROOT, env=child_env(hashseed), capture_output=True, text=True,
        timeout=timeout)
    if proc.returncode != 0:
        raise tracing.HarnessError(
            f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    return result, result["t_ready"] - t0


# -- correctness --------------------------------------------------------------

def failed_ops(kind: str, ops: list[dict], golden) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons) for one sample's operations."""
    reasons = []
    if kind == "certify":
        for op in ops:
            want = golden.get(op["spec"])
            if "error" in op:
                reasons.append(f"{op['spec']}: {op['error']}")
            elif json.loads(op["output"])["verdict"] != "pass":
                reasons.append(f"{op['spec']}: verdict is not pass")
            elif op["output"] != want:
                reasons.append(f"{op['spec']}: report differs from golden")
        return len(ops), len(reasons), reasons
    (op,) = ops
    want = golden.splitlines(keepends=True)
    got = op["stdout"].splitlines(keepends=True)
    for i, row in enumerate(want):
        if i >= len(got):
            reasons.append(f"row {i}: missing")
        elif got[i] != row:
            reasons.append(f"row {i}: differs from golden")
        elif json.loads(row)["verdict"] != "pass":
            reasons.append(f"row {i}: verdict is not pass")
    if len(got) > len(want):
        reasons.append(f"{len(got) - len(want)} rows beyond the golden")
    if (op["error"] or op["rc"] != 0) and not reasons:
        reasons.append(f"matrix: exit {op['rc']} {op['error'] or ''}".strip())
    return len(want), len(reasons), reasons


# -- one run ----------------------------------------------------------------------

def summary(values: list[float]) -> str:
    return f"median {statistics.median(values):.4f}  max {max(values):.4f}  (n={len(values)})"


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    pool = wl.load_pool()
    probe_specs = wl.draw("certify-homology", seed, pool["costs"])
    if workload == "sweep-matrix":
        kind, golden = "matrix", wl.golden_matrix()
        job = {"kind": kind, "argv": list(wl.MATRIX_ARGV), "fields": list(wl.FIELDS)}
    else:
        kind, golden = "certify", wl.golden_reports()
        job = {"kind": kind, "specs": wl.draw(workload, seed, pool["costs"]),
               "fields": list(wl.FIELDS)}
    started = time.monotonic()
    hashseeds = itertools.count(seed * 1000)

    # The first import may compile bytecode; it is not a sample.
    spawn({"kind": "import"}, next(hashseeds), WORKER_TIMEOUT_S)
    setup = [spawn({"kind": "import"}, next(hashseeds), WORKER_TIMEOUT_S)[1]
             for _ in range(SETUP_PROBES)]

    plain, traced, attempted, failed, reasons, lengths = [], [], 0, 0, [], []
    measure_end = time.monotonic() + seconds
    while not plain or (trace and not traced) or \
            time.monotonic() + statistics.median(lengths) <= measure_end:
        use_trace = trace and len(traced) < len(plain)
        sample_start = time.monotonic()
        sample_job = dict(job, trace=use_trace, probe=probe_specs)
        left = RUN_DEADLINE_S - (time.monotonic() - started)
        result, setup_s = spawn(sample_job, next(hashseeds), min(WORKER_TIMEOUT_S, left))
        setup.append(setup_s)
        n, bad, why = failed_ops(kind, result["ops"], golden)
        attempted, failed = attempted + n, failed + bad
        reasons += why
        result["failed"] = bad
        (traced if use_trace else plain).append(result)
        lengths.append(time.monotonic() - sample_start)

    return {"workload": workload, "seed": seed, "job": job, "setup": setup,
            "plain": plain, "traced": traced,
            "attempted": attempted, "failed": failed, "reasons": reasons}


def end_to_end(run: dict) -> dict:
    walls = [r["wall_s"] for r in run["plain"]]
    rss = [r["peak_rss_mb"] for r in run["plain"]]
    return {"setup_s": (statistics.median(run["setup"]), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "peak_rss_mb": (statistics.median(rss), "MB")}


def per_layer(run: dict) -> tuple[dict, dict]:
    """Per-layer metrics (medians over the traced samples) and the exact
    counters, which must be identical in every traced sample."""
    per_sample, counters = [], []
    for r in run["traced"]:
        m = tracing.layer_metrics(r["spans"])
        for p in r["probe"]:
            for f, s in p["s"].items():
                key = f"homcomplex.reduced_homology_dims.gf{f}.s"
                m[key] = m.get(key, 0) + s
        m["wall_s"] = r["wall_s"]
        per_sample.append(m)
        if r["failed"]:
            continue  # a failed call leaves spans missing; the failure is reported
        reports = {op["spec"]: op["stats"] for op in r["ops"] if "stats" in op}
        counters.append({
            "instances": tracing.check_spans(run["workload"], r["spans"], reports),
            "layers": {k: m.get(k, 0) for k in LAYER_COUNTS},
            "probe": {p["spec"]: {k: p[k] for k in ("faces", "boundary_entries", "dims")}
                      for p in r["probe"]},
        })
    if any(c != counters[0] for c in counters[1:]):
        raise tracing.HarnessError("exact counters differ between traced samples")

    out = {}
    for name in LAYER_TIMES:
        out[name] = (statistics.median(m.get(name, 0.0) for m in per_sample), "s")
    for name in LAYER_COUNTS:
        out[name] = (per_sample[0].get(name, 0), "count")
    probe = run["traced"][0]["probe"]
    out["homcomplex.probe.faces"] = (sum(p["faces"] for p in probe), "count")
    out["homcomplex.probe.boundary_entries"] = (
        sum(p["boundary_entries"] for p in probe), "count")
    out["groebner.spairs_per_s"] = (statistics.median(
        (m["groebner.spairs.gf2"] + m["groebner.spairs.gf32003"]) / m["groebner.buchberger.s"]
        for m in per_sample), "1/s")
    out["trace.overhead_s"] = (
        statistics.median(m["wall_s"] for m in per_sample)
        - statistics.median(r["wall_s"] for r in run["plain"]), "s")
    return out, counters[0] if counters else {}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=42)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (wl.ROOT / "src" / "edgeideal" / "__init__.py").is_file():
        print(f"error: no edgeideal sources under {wl.ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        if args.trace:
            metrics, counters = per_layer(run)
        else:
            metrics = end_to_end(run)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    specs = run["job"].get("specs") or [" ".join(run["job"]["argv"])]
    print(f"workload {run['workload']}  seed {run['seed']}  instances {' '.join(specs)}")
    print(f"  setup_s      {summary(run['setup'])} s")
    print(f"  wall_s       {summary([r['wall_s'] for r in run['plain']])} s")
    print(f"  peak_rss_mb  {summary([r['peak_rss_mb'] for r in run['plain']])} MB")
    print(f"  error_rate   {run['failed']}/{run['attempted']} = "
          f"{run['failed'] / run['attempted']:.4f}")
    for why in run["reasons"][:20]:
        print(f"  failed: {why}")
    if args.trace:
        for name, (value, unit) in metrics.items():
            print(f"  {name:45s} {value} {unit}")
        print(f"  counters {json.dumps(counters, sort_keys=True)}")
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

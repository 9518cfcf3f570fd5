"""Capture the benchmark's committed data from the current commit.

Usage (from the repository root): python3 perfbench/capture.py

Writes, under perfbench/data/:
  pool.json              reference cost (seconds, fastest of PASSES fresh-process
                         runs) of every candidate instance, and the instances
                         kept out of the pools because they run too long
  golden_certify.jsonl   certify report per candidate, `stats.wall_time_s` removed
  golden_matrix10.jsonl  exact stdout of `edgeideal matrix --max-vertices 10`

Each pass runs the worker under another PYTHONHASHSEED, and the outputs of
all passes must be byte-identical.
"""

from __future__ import annotations

import json
import platform
import subprocess
import sys

import run
import workloads as wl

PASSES = 3
SLOW_S = 9.0

KNOWN_SLOW = [
    {"spec": "cycle:47", "why": "GF(2): over a 40k-per-run S-pair budget after 289 s"},
    {"spec": "bicyclic:4,14", "why": "GF(2): 83.5 s, 110,276 S-pairs"},
    {"spec": "bicyclic:8,8", "why": "GF(32003): 152 s, homology projective dimension"},
    {"spec": "bicyclic:10,11", "why": "18 s over GF(2) and GF(32003)"},
]


def certify_once(spec: str, hashseed: int, timeout: float):
    job = {"kind": "certify", "specs": [spec], "fields": list(wl.FIELDS)}
    result, _ = run.spawn(job, hashseed, timeout)
    (op,) = result["ops"]
    if "error" in op:
        raise RuntimeError(f"{spec}: {op['error']}")
    return result["wall_s"], op["output"]


def main() -> int:
    known = {entry["spec"] for entry in KNOWN_SLOW}
    slow = list(KNOWN_SLOW)
    costs, golden = {}, {}
    for spec in wl.candidate_specs():
        if spec in known:
            continue
        walls = []
        try:
            for k in range(PASSES):
                wall, text = certify_once(spec, k, SLOW_S)
                if golden.setdefault(spec, text) != text:
                    raise RuntimeError(f"{spec}: report differs between hash seeds")
                walls.append(wall)
        except subprocess.TimeoutExpired:
            slow.append({"spec": spec, "why": f"over {SLOW_S:g} s in capture"})
            golden.pop(spec, None)
            print(f"{spec:18s} slow", flush=True)
            continue
        costs[spec] = min(walls)
        print(f"{spec:18s} {costs[spec]:.3f} s", flush=True)

    stdouts = set()
    for k in range(PASSES):
        job = {"kind": "matrix", "argv": list(wl.MATRIX_ARGV), "fields": list(wl.FIELDS)}
        result, _ = run.spawn(job, k, run.WORKER_TIMEOUT_S)
        (op,) = result["ops"]
        if op["rc"] != 0 or op["error"]:
            raise RuntimeError(f"matrix failed: exit {op['rc']} {op['error']}")
        stdouts.add(op["stdout"])
    if len(stdouts) != 1:
        raise RuntimeError("matrix stdout differs between hash seeds")

    wl.DATA.mkdir(exist_ok=True)
    with open(wl.POOL_FILE, "w", encoding="utf-8") as fh:
        json.dump({"measured_on": f"{platform.machine()}, {platform.python_version()}, "
                                  f"fastest of {PASSES} fresh-process runs",
                   "slow_s": SLOW_S, "costs": costs, "known_slow": slow},
                  fh, indent=1, ensure_ascii=False)
        fh.write("\n")
    with open(wl.GOLDEN_CERTIFY, "w", encoding="utf-8") as fh:
        fh.writelines(golden[spec] + "\n" for spec in costs)
    with open(wl.GOLDEN_MATRIX, "w", encoding="utf-8") as fh:
        fh.write(stdouts.pop())
    return 0


if __name__ == "__main__":
    sys.exit(main())

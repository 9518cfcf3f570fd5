"""Workloads of the certification benchmark: instance pools, the seeded
draw, and the committed golden outputs.

Two workloads call `edgeideal.certify` on four instances each; the third
calls `edgeideal.cli.main(["matrix", "--max-vertices", "10"])`.  Seed 0
gives the default instance lists below.  Any other seed draws, for every
slot of the default list, one instance of the same family and vertex range
from the slot's pool, and accepts the draw only when the summed reference
cost of the instances is within COST_TOLERANCE of the default list's.  Cost
varies about 100x between instances of one size, so without that rule a
seed would change how long a sample runs, and run-to-run spread would be
set by the draw rather than by the program.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DATA = HERE / "data"
POOL_FILE = DATA / "pool.json"
GOLDEN_CERTIFY = DATA / "golden_certify.jsonl"
GOLDEN_MATRIX = DATA / "golden_matrix10.jsonl"

FIELDS = (2, 32003)
DEFAULT_SEED = 0
COST_TOLERANCE = 0.015
MAX_DRAWS = 200_000
MATRIX_ARGV = ("matrix", "--max-vertices", "10")

# Each slot is (family, min vertices, max vertices, default instance).
CERTIFY_SLOTS = {
    # 12-13 vertices: under the default homology limit of 16, so both the
    # homology and the Groebner stage run; homology dominates.  The 13-cycle
    # sets the peak memory (its dense boundary matrices are the largest), so
    # every draw keeps it and peak_rss_mb stays comparable across seeds.
    "certify-homology": (
        ("cycle", 13, 13, "cycle:13"),
        ("dumbbell", 12, 13, "dumbbell:4,4,4"),
        ("bicyclic", 12, 13, "bicyclic:5,8"),
        ("dumbbell", 12, 13, "dumbbell:3,4,5"),
    ),
    # 17-40 vertices: over the homology limit, so certification is
    # formula-only and Groebner takes all the time.
    "certify-groebner": (
        ("bicyclic", 17, 19, "bicyclic:8,10"),
        ("bicyclic", 17, 19, "bicyclic:9,11"),
        ("dumbbell", 17, 17, "dumbbell:8,1,8"),
        ("cycle", 30, 40, "cycle:40"),
    ),
}
WORKLOADS = (*CERTIFY_SLOTS, "sweep-matrix")


def nvertices(spec: str) -> int:
    family, _, params = spec.partition(":")
    values = [int(tok) for tok in params.split(",")]
    if family == "bicyclic":
        return values[0] + values[1] - 1
    return sum(values)


def family_specs(family: str, vmin: int, vmax: int) -> list[str]:
    """Every instance of `family` with vmin..vmax vertices, cycle lengths
    in nondecreasing order."""
    out = []
    for v in range(vmin, vmax + 1):
        if family == "cycle":
            out.append(f"cycle:{v}")
        elif family == "bicyclic":
            out += [f"bicyclic:{m},{v + 1 - m}" for m in range(3, (v + 1) // 2 + 1)]
        elif family == "dumbbell":
            out += [f"dumbbell:{m},{v - m - n},{n}"
                    for m in range(3, v // 2 + 1)
                    for n in range(m, v - m + 1)]
        else:
            raise ValueError(f"unknown family {family!r}")
    return out


def candidate_specs() -> list[str]:
    """Every instance some slot may draw, before the run-length screen."""
    seen: dict[str, None] = {}
    for slots in CERTIFY_SLOTS.values():
        for family, vmin, vmax, _ in slots:
            seen.update(dict.fromkeys(family_specs(family, vmin, vmax)))
    return list(seen)


def load_pool() -> dict:
    """Reference costs and the known-slow list written by capture.py."""
    with open(POOL_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def slot_pool(slot, costs: dict[str, float]) -> list[str]:
    family, vmin, vmax, _ = slot
    return [s for s in family_specs(family, vmin, vmax) if s in costs]


def draw(workload: str, seed: int, costs: dict[str, float]) -> list[str]:
    """The instance list of a certify workload for `seed`."""
    slots = CERTIFY_SLOTS[workload]
    default = [slot[3] for slot in slots]
    if seed == DEFAULT_SEED:
        return default
    target = sum(costs[s] for s in default)
    pools = [slot_pool(slot, costs) for slot in slots]
    rng = random.Random(f"{workload}/{seed}")
    for _ in range(MAX_DRAWS):
        picked = [rng.choice(pool) for pool in pools]
        if len(set(picked)) == len(picked) and \
                abs(sum(costs[s] for s in picked) - target) <= COST_TOLERANCE * target:
            return picked
    raise RuntimeError(f"no cost-matched draw for {workload} seed {seed}")


def golden_reports() -> dict[str, str]:
    """Golden certify report per instance: the exact JSON text of
    `to_json_dict()` with `stats.wall_time_s` removed."""
    out = {}
    with open(GOLDEN_CERTIFY, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            out[json.loads(line)["graph"]] = line
    return out


def golden_matrix() -> str:
    """Exact stdout of `edgeideal matrix --max-vertices 10`."""
    with open(GOLDEN_MATRIX, encoding="utf-8") as fh:
        return fh.read()

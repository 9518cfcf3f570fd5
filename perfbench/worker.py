"""One benchmark sample in a fresh interpreter.

Usage: python3 perfbench/worker.py '<job JSON>'

Imports edgeideal first, so that the time to `import edgeideal` (numpy
included) can be read off against the parent's clock (`time.monotonic` is
CLOCK_MONOTONIC on Linux, one clock for every process), then runs the job's
calls and prints one JSON line with timings, outputs and, for a traced job,
the spans.  Job keys: "kind" ("import", "certify" or "matrix"), "specs",
"fields", "argv", "trace" and "probe" (graphs for the homology probe).
"""

import time

import edgeideal

T_READY = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from edgeideal.cli import main as cli_main  # noqa: E402
from tracing import Tracer  # noqa: E402


def report_text(report) -> str:
    """The report as JSON text without its only run-dependent field."""
    doc = report.to_json_dict()
    del doc["stats"]["wall_time_s"]
    return json.dumps(doc, ensure_ascii=False)


def run_certify(job, tracer):
    certify = edgeideal.certify
    if tracer is not None:
        certify = tracer.wrap(certify, "verify.certify", lambda a, k: {"spec": a[0]})
    ops = []
    started = time.perf_counter()
    for spec in job["specs"]:
        try:
            report = certify(spec, tuple(job["fields"]))
        except Exception as exc:  # recorded as a failed operation
            ops.append({"spec": spec, "error": f"{type(exc).__name__}: {exc}"})
            continue
        ops.append({"spec": spec, "output": report_text(report),
                    "stats": {k: report.stats[k] for k in ("s_pairs", "groebner_runs")}})
    return ops, time.perf_counter() - started


def run_matrix(job, tracer):
    buf = io.StringIO()
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            if tracer is None:
                rc = cli_main(list(job["argv"]))
            else:
                rc = tracer.call("cli.matrix", {}, cli_main, list(job["argv"]))
        error = None
    except Exception as exc:  # recorded as a failed operation
        rc, error = None, f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - started
    return [{"argv": job["argv"], "stdout": buf.getvalue(), "rc": rc, "error": error}], wall


def run_probe(specs, fields):
    """reduced_homology_dims(epsilon_complex(G), p) per graph and field, with
    the face and boundary-entry counts of each complex computed here from its
    facet masks."""
    out = []
    for spec in specs:
        cx = edgeideal.epsilon_complex(edgeideal.build_from_string(spec))
        masks, _ = cx.facet_masks()
        faces = set()
        for fm in masks:
            sub = fm
            while True:
                faces.add(sub)
                if sub == 0:
                    break
                sub = (sub - 1) & fm
        entry = {"spec": spec, "faces": len(faces),
                 "boundary_entries": sum(f.bit_count() for f in faces),
                 "dims": {}, "s": {}}
        for p in fields:
            started = time.perf_counter()
            dims = edgeideal.reduced_homology_dims(cx, p)
            entry["s"][str(p)] = time.perf_counter() - started
            entry["dims"][str(p)] = {str(k): v for k, v in sorted(dims.items())}
        out.append(entry)
    return out


def main() -> int:
    job = json.loads(sys.argv[1])
    src = Path(__file__).resolve().parent.parent / "src"
    if Path(edgeideal.__file__).resolve().parent.parent != src:
        print(f"edgeideal imported from {edgeideal.__file__}, not from {src}", file=sys.stderr)
        return 2
    result = {"t_ready": T_READY}
    if job["kind"] != "import":
        tracer = Tracer() if job.get("trace") else None
        if tracer is not None:
            tracer.install()
        run = run_certify if job["kind"] == "certify" else run_matrix
        result["ops"], result["wall_s"] = run(job, tracer)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            result["spans"] = tracer.spans
            result["probe"] = run_probe(job.get("probe", ()), job["fields"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

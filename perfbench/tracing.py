"""Spans around the public functions of each edgeideal layer, recorded from
the benchmark's own files.

Each name is patched where its caller looks it up, so `certify` calling
`projective_dimension` is seen through `edgeideal.verify.projective_dimension`,
not through `edgeideal.homcomplex`.  A wrapper patched at a module its caller
does not read would never fire; `check_spans` catches that.  `polyalg` gets
no span: its millions of fine-grained calls would distort the result, and
its cost shows up in the self time of `groebner.buchberger`.
"""

from __future__ import annotations

import functools
import importlib
import time


class HarnessError(RuntimeError):
    """The benchmark measured something inconsistent; its numbers are void."""


def _field(fld) -> int:
    return getattr(fld, "p", fld)


def _verify_reverse_field(args, kwargs):
    return {"field": args[2] if len(args) > 2 else kwargs.get("modulus", 2)}


# (module the caller reads the name from, name, span name, attributes of the call)
TARGETS = (
    ("edgeideal.cli", "certify", "verify.certify", lambda a, k: {"spec": str(a[0])}),
    ("edgeideal.verify", "sequence_for", "sequences.sequence_for",
     lambda a, k: {"spec": str(a[0])}),
    ("edgeideal.verify", "verify_forward", "verify.verify_forward", lambda a, k: {}),
    ("edgeideal.verify", "verify_reverse", "verify.verify_reverse", _verify_reverse_field),
    ("edgeideal.verify", "radical_membership", "groebner.radical_membership",
     lambda a, k: {"field": a[0].ring.modulus}),
    ("edgeideal.verify", "projective_dimension", "homcomplex.projective_dimension",
     lambda a, k: {"field": _field(a[1])}),
    # `matrix` rows of the line family call projective_dimension directly.
    ("edgeideal.cli", "projective_dimension", "homcomplex.projective_dimension",
     lambda a, k: {"field": _field(a[1])}),
    ("edgeideal.homcomplex", "betti_table", "homcomplex.betti_table",
     lambda a, k: {"field": _field(a[1])}),
    ("edgeideal.groebner", "buchberger", "groebner.buchberger",
     lambda a, k: {"field": a[0][0].ring.modulus}),
)


class Tracer:
    """In-memory span recorder: each span has an id, a name, start and end
    (perf_counter seconds), the id of the span open when it began, and
    call attributes."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    def call(self, name: str, attrs: dict, fn, *args, **kwargs):
        span = {"id": len(self.spans), "name": name,
                "parent": self._open[-1] if self._open else None, **attrs}
        self.spans.append(span)
        self._open.append(span["id"])
        stats = kwargs.get("stats") if name == "verify.verify_reverse" else None
        before = stats.spairs if stats is not None else 0
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._open.pop()
        if stats is not None:
            span["spairs"] = stats.spairs - before  # from GroebnerStats
        if name == "groebner.buchberger":
            span["spairs"] = result.spairs_processed
        return result

    def wrap(self, fn, name: str, attrs_of=lambda a, k: {}):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, attrs_of(args, kwargs), fn, *args, **kwargs)
        return traced

    def install(self):
        """Patch every target; the process is a throwaway benchmark worker,
        so the patches are never undone."""
        for module, attr, name, attrs_of in TARGETS:
            mod = importlib.import_module(module)
            setattr(mod, attr, self.wrap(getattr(mod, attr), name, attrs_of))


# -- checks and per-layer numbers over the spans of one sample ------------------

EXPECTED = {
    "certify-homology": {"present": {"homcomplex.projective_dimension",
                                     "homcomplex.betti_table"},
                         "absent": {"cli.matrix"}},
    "certify-groebner": {"present": set(),
                         "absent": {"cli.matrix", "homcomplex.projective_dimension",
                                    "homcomplex.betti_table"}},
    "sweep-matrix": {"present": {"cli.matrix", "homcomplex.projective_dimension",
                                 "homcomplex.betti_table"},
                     "absent": set()},
}
MAX_CERTIFY_SELF_SHARE = 0.05
ALWAYS = {"verify.certify", "sequences.sequence_for", "verify.verify_forward",
          "verify.verify_reverse", "groebner.radical_membership", "groebner.buchberger"}


def self_times(spans: list[dict]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def _subtree(spans, root_id):
    ids = {root_id}
    for s in spans[root_id + 1:]:
        if s["parent"] in ids:
            ids.add(s["id"])
    return [spans[i] for i in sorted(ids)]


def check_spans(workload: str, spans: list[dict], reports: dict[str, dict]) -> dict:
    """Raise HarnessError unless the spans are complete and consistent;
    return the exact counters per instance and field.

    `reports` maps each certified instance to its report's `stats`; an
    instance missing from it (`matrix` rows carry no stats) is not compared.
    """
    fired = {s["name"] for s in spans}
    exp = EXPECTED[workload]
    missing = (ALWAYS | exp["present"]) - fired
    if missing:
        raise HarnessError(f"{workload}: spans never fired: {sorted(missing)}")
    stray = exp["absent"] & fired
    if stray:
        raise HarnessError(f"{workload}: unexpected spans fired: {sorted(stray)}")
    for s in spans:
        if s["parent"] is not None:
            p = spans[s["parent"]]
            if not p["start"] <= s["start"] <= s["end"] <= p["end"]:
                raise HarnessError(f"span {s['name']} escapes its parent {p['name']}")

    # Time certify spends outside every wrapped child is its self time; a
    # layer whose wrapper never fired would show up here as a large share.
    own = self_times(spans)
    roots = [s for s in spans if s["name"] == "verify.certify"]
    certify_s = sum(s["end"] - s["start"] for s in roots)
    if sum(own[s["id"]] for s in roots) > MAX_CERTIFY_SELF_SHARE * certify_s:
        raise HarnessError("child spans leave more than "
                           f"{MAX_CERTIFY_SELF_SHARE:.0%} of verify.certify unaccounted")
    counters = {}
    for root in roots:
        tree = _subtree(spans, root["id"])
        per_field = {}
        for s in tree:
            if "field" in s:
                c = per_field.setdefault(str(s["field"]), {
                    "spairs": 0, "groebner_runs": 0, "betti_table_calls": 0,
                    "reverse_spairs": 0})
                if s["name"] == "groebner.buchberger":
                    c["spairs"] += s["spairs"]
                    c["groebner_runs"] += 1
                elif s["name"] == "homcomplex.betti_table":
                    c["betti_table_calls"] += 1
                elif s["name"] == "verify.verify_reverse":
                    c["reverse_spairs"] += s["spairs"]
        for f, c in per_field.items():
            if c.pop("reverse_spairs") != c["spairs"]:
                raise HarnessError(f"{root['spec']} GF({f}): GroebnerStats and "
                                   f"buchberger disagree on S-pairs")
        stats = reports.get(root["spec"])
        if stats is not None and (
                sum(c["spairs"] for c in per_field.values()) != stats["s_pairs"]
                or sum(c["groebner_runs"] for c in per_field.values())
                != stats["groebner_runs"]):
            raise HarnessError(f"{root['spec']}: span counters disagree with report.stats")
        counters[root["spec"]] = per_field
    return counters


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer totals of one traced sample."""
    own = self_times(spans)
    out: dict[str, float] = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    for s, self_s in zip(spans, own):
        dur = s["end"] - s["start"]
        name = s["name"]
        gf = f".gf{s['field']}" if "field" in s else ""
        if name in ("homcomplex.projective_dimension", "verify.verify_reverse"):
            add(f"{name}{gf}.s", dur)
        elif name in ("verify.verify_forward", "sequences.sequence_for",
                      "verify.certify", "groebner.buchberger"):
            add(f"{name}.s", dur)
        if name in ("verify.certify", "groebner.buchberger", "cli.matrix"):
            add(f"{name}.self_s", self_s)
        if name in ("homcomplex.betti_table", "groebner.radical_membership",
                    "sequences.sequence_for"):
            add(f"{name}.calls", 1)
        if name == "groebner.buchberger":
            add(f"groebner.spairs{gf}", s["spairs"])
    return out

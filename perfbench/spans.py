"""Spans at quivercalc's layer boundaries, recorded from outside the package.

The layers reach each other through names imported into a module's
namespace (cli imports everything it calls; emm imports from fincat,
hochschild and quiver; check_closed_sheaf finds enumerate_reps in fincat's
namespace).  Replacing those names with timing wrappers for the length of a
pass records one span per boundary crossing, without touching src/.
"""
from __future__ import annotations

import contextlib
import importlib
import json
import statistics
from collections import Counter, defaultdict
from time import perf_counter

# namespace -> names looked up there when one layer calls into another
BOUNDARIES = {
    "quivercalc.cli": (
        "classify_digraph", "make_closed_cover", "enumerate_paths",
        "hom_is_finite", "enumerate_reps", "check_closed_sheaf",
        "validate_fincat", "compute_hh", "psi", "trace_obj", "power_endo",
        "parse_para", "compose_para", "dualize_para", "para_phi",
        "project_para_to_epi", "parse_epi", "compose_epi", "cartesian_factor",
        "enumerate_directed_cycles", "hom_m", "fact_homology",
        "make_excision_site", "verify_excision"),
    "quivercalc.emm": (
        "classify_digraph", "components", "enumerate_quiver_mors",
        "enumerate_reps", "pullback_rep", "compute_hh", "psi",
        "enumerate_directed_cycles", "fact_homology", "fact_map"),
    "quivercalc.fincat": ("enumerate_reps",),
}
# JSON loaders, called as class attributes
CLASSMETHODS = (("quivercalc.digraph", "Digraph"), ("quivercalc.fincat", "FinCat"),
                ("quivercalc.emm", "MObject"))


def _add(key, size):
    def count(outputs, result):
        outputs[key] += size(result)
    return count


def _sheaf(outputs, v):
    outputs["fincat.sheaf.pairs"] += v.left * v.right
    outputs["fincat.sheaf.fiber"] += v.fiber_product


def _excision(outputs, v):
    outputs["emm.stage0_out"] += v.stage0
    outputs["emm.stage1_out"] += v.stage1
    outputs["emm.coequalizer_out"] += v.coequalizer


# span name -> work counter fed from the returned value
OUTPUTS = {
    "fincat.enumerate_reps": _add("fincat.reps_out", len),
    "fincat.check_closed_sheaf": _sheaf,
    "hochschild.compute_hh": _add("hochschild.classes_out", len),
    "emm.verify_excision": _excision,
    "quiver.enumerate_paths": _add("quiver.paths_out", len),
    "quiver.enumerate_quiver_mors": _add("quiver.mors_out", lambda r: len(r[0])),
    "emm.enumerate_directed_cycles": _add("emm.cycles_out", len),
    "emm.hom_m": _add("emm.hom_m_out", lambda r: len(r[0])),
}

ROOT = "cli.main"


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, job]."""

    def __init__(self):
        self.spans: list[list] = []
        self.outputs: Counter = Counter()
        self.job = -1
        self._stack = [-1]

    def reset(self):
        self.spans, self.outputs = [], Counter()

    def wrap(self, name: str, fn):
        stack = self._stack
        count = OUTPUTS.get(name)

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1], self.job]
            stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if name == "emm.fact_map":
                result = self.wrap("emm.fact_map.apply", result)
            if count:
                count(self.outputs, result)
            return result
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every boundary name for the duration of the block."""
        undo = []
        try:
            for modname, names in BOUNDARIES.items():
                mod = importlib.import_module(modname)
                for attr in names:
                    fn = getattr(mod, attr)
                    undo.append((mod, attr, fn))
                    setattr(mod, attr, self.wrap(_span_name(fn), fn))
            for modname, clsname in CLASSMETHODS:
                cls = getattr(importlib.import_module(modname), clsname)
                orig = cls.__dict__["from_json"]
                undo.append((cls, "from_json", orig))
                layer = modname.rpartition(".")[2]
                name = f"{layer}.from_json" if layer != "emm" else "emm.MObject.from_json"
                cls.from_json = classmethod(self.wrap(name, orig.__func__))
            yield self
        finally:
            for owner, attr, orig in reversed(undo):
                setattr(owner, attr, orig)

    def job_span(self, job: int, main):
        """The root span of one CLI job."""
        self.job = job
        return self.wrap(ROOT, main)

    def dump(self, path):
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def _span_name(fn) -> str:
    return f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"


def self_times(spans) -> tuple[dict, Counter]:
    """Per span name: total self time (duration minus direct children) and
    number of calls."""
    child = [0.0] * len(spans)
    for _, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    own: dict = defaultdict(float)
    calls: Counter = Counter()
    for i, (name, t0, t1, _, _) in enumerate(spans):
        own[name] += t1 - t0 - child[i]
        calls[name] += 1
    return own, calls


def layer_metrics(spans, outputs: Counter, stdout_bytes: int) -> dict:
    """The per-layer metrics of one traced pass, by name."""
    own, calls = self_times(spans)
    m = {}
    for name in ("fincat.from_json", "fincat.validate_fincat",
                 "hochschild.compute_hh", "hochschild.psi", "hochschild.power_endo",
                 "fincat.enumerate_reps", "fincat.pullback_rep",
                 "fincat.check_closed_sheaf", "emm.verify_excision",
                 "emm.fact_homology", "quiver.enumerate_paths",
                 "quiver.hom_is_finite", "quiver.enumerate_quiver_mors",
                 "digraph.classify_digraph", "digraph.from_json",
                 "emm.enumerate_directed_cycles", "emm.hom_m"):
        m[f"{name}.self_s"] = own[name]
    for name in ("fincat.validate_fincat", "fincat.pullback_rep",
                 "quiver.enumerate_paths"):
        m[f"{name}.calls"] = calls[name]
    for key in ("hochschild.classes_out", "fincat.reps_out", "fincat.sheaf.pairs",
                "emm.stage0_out", "emm.stage1_out", "emm.coequalizer_out",
                "quiver.paths_out", "quiver.mors_out", "emm.cycles_out",
                "emm.hom_m_out"):
        m[key] = outputs[key]
    pairs = outputs["fincat.sheaf.pairs"]
    m["fincat.sheaf.match_ratio"] = outputs["fincat.sheaf.fiber"] / pairs if pairs else 0.0
    m["emm.fact_map.apply_s"] = own["emm.fact_map.apply"]
    m["emm.fact_map.apply_calls"] = calls["emm.fact_map.apply"]
    m["cyccat.arith.self_s"] = sum((t for n, t in own.items() if n.startswith("cyccat.")), 0.0)
    m["cyccat.arith.calls"] = sum(c for n, c in calls.items() if n.startswith("cyccat."))
    m["cli.self_s"] = own[ROOT]
    m["cli.stdout_bytes"] = stdout_bytes
    m["trace.spans"] = len(spans)
    return m


def median_metrics(per_pass: list[dict]) -> dict:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}

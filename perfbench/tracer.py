"""Outside-in tracer: wraps public isocert functions from the benchmark's side.

Each wrapped call pushes a frame; on return its duration is charged to the
enclosing frame, so every function's self time is its duration minus the
time spent in wrapped callees.  Per function the tracer keeps call count,
inclusive and self seconds.  Calls of coarse functions (``SPAN`` below) are
also kept as spans: id, name, parent span, start, end and a few attributes;
the document written at exit carries the run id the spans share.  Hot
kernel calls (polynomial products, interval operations, Sturm counts) are
folded into the per-function totals instead, which keeps memory bounded
while their time still reaches their parents.  The source tree is not
modified; wrappers replace module and class attributes in the traced
process only.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time

_now = time.perf_counter

SPAN = "span"
HOT = "hot"

# Which workloads must exercise each wrapper; None means no assertion.
ALL = ("identities", "sweep")
PIPE = ("identities",)
SWEEP = ("sweep",)


class Tracer:
    """In-memory spans, per-function totals and named counters for one run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []          # [id, name, parent, start, end, attrs]
        self.stats: dict[str, list] = {}     # name -> [calls, inclusive_s, self_s]
        self.counters: dict[str, float] = {}
        self.expect: dict[str, bool | None] = {}
        self.absent: list[str] = []
        self._stack: list[list] = [[0.0, 0]]  # frames: [child_s, span id]; 0 = root
        self._next_id = 1

    def add(self, counter: str, value: float = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + value

    def peak(self, counter: str, value: float) -> None:
        if value > self.counters.get(counter, 0):
            self.counters[counter] = value

    def wrap(self, name: str, fn, kind: str, before=None, after=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        spans = self.spans
        keep = kind == SPAN

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(self, args)
            parent = stack[-1]
            if keep:
                span_id = self._next_id
                self._next_id += 1
            else:
                span_id = parent[1]
            frame = [0.0, span_id]
            stack.append(frame)
            start = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _now()
                stack.pop()
                dur = end - start
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[0]
                parent[0] += dur
            attrs = after(self, args, result) if after is not None else None
            if keep:
                spans.append([span_id, name, parent[1], start, end, attrs])
            return result

        return traced

    def write(self, path: str) -> None:
        doc = {"run_id": self.run_id, "spans": self.spans, "stats": self.stats,
               "counters": self.counters, "expect": self.expect, "absent": self.absent}
        with open(path, "w") as fh:
            json.dump(doc, fh)


# -- hooks: counters measured where the work happens ---------------------------------

def _mul_pairs(t: Tracer, args) -> None:
    a, b = args[0], args[1]
    terms = getattr(b, "terms", None)
    pairs = len(a.terms) * (len(terms) if isinstance(terms, dict) else 1)
    t.add("exactalg.mul_term_pairs", pairs)


def _divexact_after(t: Tracer, args, result):
    if result is not None:
        t.add("exactalg.divexact_quotients")


def _factor_power_before(t: Tracer, args) -> None:
    cache = getattr(args[0], "_power_cache", None)
    if cache is not None and args[1] in cache:
        t.add("exactalg.factor_power_reused")


def _numerator_terms(t: Tracer, args, result):
    t.peak("exactalg.max_numerator_terms", len(result.num.terms))


def _cert_after(prefix: str):
    def after(t: Tracer, args, cert):
        t.add(f"{prefix}.cells", cert.cells_processed)
        t.peak(f"{prefix}.depth_max", cert.max_depth_reached)
        t.add("certify.certificates")
        t.add("certify.open_cells", len(cert.open_cells))
        if cert.status in ("proved", "trivial"):
            t.add("certify.decided")
        return {"status": cert.status, "cells": cert.cells_processed}
    return after


def _xcheck_after(t: Tracer, args, result):
    t.add("xcheck.samples", result["samples"])
    t.add("xcheck.violations", len(result["violations"]))


def _verify_after(t: Tracer, args, rep):
    t.add("identities.residual_terms", rep.residual_term_count)
    return {"identity": rep.name, "mode": rep.mode}


def _solve_after(t: Tracer, args, cfgs):
    t.add("configsolve.configs", len(cfgs))


def _report_samples(t: Tracer, args, rep):
    t.add("mollify.samples", rep["samples"])


def _render_after(t: Tracer, args, text):
    t.add("reports.bytes", len(text.encode()))


def _vi_op(arrays: int):
    """Count one interval batch operation touching `arrays` float64 arrays."""
    def before(t: Tracer, args) -> None:
        n = args[0].lo.size
        t.add("vinterval.ops")
        t.add("vinterval.elems", n)
        t.add("vinterval.bytes_computed", 8 * arrays * n)
    return before


# (module, attribute path, kind, expected workloads, before hook, after hook)
TARGETS: list[tuple] = [
    ("isocert.cli", "run_pipeline", SPAN, PIPE, None, None),
    ("isocert.cli", "run_certify", SPAN, SWEEP, None, None),
    ("isocert.cli", "run_solve", SPAN, SWEEP, None, None),
    ("isocert.cli", "run_mollifier", SPAN, SWEEP, None, None),
    ("isocert.cli", "run_cutoff", SPAN, SWEEP, None, None),
    ("isocert.cli", "_identity_record", SPAN, PIPE, None, None),
    ("isocert.reports", "render", SPAN, ALL, None, _render_after),
    ("isocert.identities", "verify_identity", SPAN, PIPE, None, _verify_after),
    ("isocert.identities", "dtheta_target", SPAN, PIPE, None, None),
    ("isocert.identities", "dphi_target", SPAN, PIPE, None, None),
    ("isocert.identities", "contraction_bracket", HOT, ALL, None, None),
    ("isocert.identities", "gap_slope", HOT, ALL, None, None),
    ("isocert.identities", "gap_band_quantities", SPAN, ALL, None, None),
    ("isocert.frameforms", "exterior_derivative", SPAN, PIPE, None, None),
    ("isocert.frameforms", "substitute_connections", HOT, PIPE, None, None),
    ("isocert.frameforms", "reduce_diagonal", HOT, PIPE, None, None),
    ("isocert.frameforms", "scalar_differential", HOT, PIPE, None, None),
    ("isocert.frameforms", "Form.vol_coefficient_raw", HOT, PIPE, None, None),
    ("isocert.frameforms", "Form.vol_coefficient", HOT, None, None, None),
    ("isocert.exactalg", "MultiPoly.__mul__", HOT, ALL, _mul_pairs, None),
    ("isocert.exactalg", "MultiPoly.__rmul__", HOT, None, _mul_pairs, None),
    ("isocert.exactalg", "divexact", HOT, ALL, None, _divexact_after),
    ("isocert.exactalg", "FactoredFn.__add__", HOT, ALL, None, _numerator_terms),
    ("isocert.exactalg", "FactoredFn.normalize", HOT, ALL, None, _numerator_terms),
    ("isocert.exactalg", "FactorBase.factor_power", HOT, ALL, _factor_power_before, None),
    ("isocert.exactalg", "MultiPoly.__str__", HOT, None, None, None),
    ("isocert.exactalg", "RatFn.__str__", HOT, None, None, None),
    ("isocert.certify", "certify_Li_negative", SPAN, ALL, None, _cert_after("certify.li")),
    ("isocert.certify", "sample_Li_cross_check", SPAN, ALL, None, _xcheck_after),
    ("isocert.certify", "certify_okumura", SPAN, ALL, None, _cert_after("certify.okumura")),
    ("isocert.certify", "okumura_equality_case_exact", SPAN, ALL, None, None),
    ("isocert.certify", "certify_band_bounds", SPAN, ALL, None, _cert_after("certify.band")),
    ("isocert.vinterval", "VI.__add__", HOT, ALL, _vi_op(6), None),
    ("isocert.vinterval", "VI.__sub__", HOT, ALL, _vi_op(6), None),
    ("isocert.vinterval", "VI.__neg__", HOT, ALL, _vi_op(4), None),
    ("isocert.vinterval", "VI.__mul__", HOT, ALL, _vi_op(6), None),
    ("isocert.vinterval", "VI.divide_by_positive", HOT, ALL, _vi_op(6), None),
    ("isocert.vinterval", "VI.scale", HOT, ALL, _vi_op(4), None),
    ("isocert.vinterval", "VI.sq", HOT, ALL, _vi_op(4), None),
    ("isocert.vinterval", "VI.sqrt_clamped", HOT, ALL, _vi_op(4), None),
    ("isocert.vinterval", "VI.floor_at", HOT, ALL, _vi_op(4), None),
    ("isocert.vinterval", "VI.mag", HOT, ALL, _vi_op(3), None),
    ("isocert.configsolve", "solve_system", SPAN, ALL, None, _solve_after),
    ("isocert.configsolve", "CurvatureConfig.verify_constraints", HOT, ALL, None, None),
    ("isocert.configsolve", "case_branch_identities", SPAN, ALL, None, None),
    ("isocert.upoly", "sturm_count", HOT, ALL, None, None),
    ("isocert.upoly", "isolate_squarefree", HOT, ALL, None, None),
    ("isocert.upoly", "isolate_with_multiplicity", HOT, ALL, None, None),
    ("isocert.upoly", "refine", HOT, ALL, None, None),
    ("isocert.algebraic", "AlgebraicNumber.refine", HOT, ALL, None, None),
    ("isocert.mollify", "mollifier_property_report", SPAN, ALL, None, _report_samples),
    ("isocert.mollify", "gap_value_property_report", SPAN, ALL, None, _report_samples),
    ("isocert.mollify", "cutoff_property_report", SPAN, ALL, None, _report_samples),
    ("isocert.geomex", "get_model", SPAN, PIPE, None, None),
]


def _name(module: str, path: str) -> str:
    return module.split(".")[-1] + "." + path


def install(tracer: Tracer, workload: str) -> None:
    """Wrap every target; a target missing from the source is listed as absent.

    Besides the defining attribute, every module global and the CLI's runner
    table that still refer to the original function are pointed at the
    wrapper, so calls through ``from x import f`` bindings are seen too.
    """
    for module_name, path, kind, on, before, after in TARGETS:
        name = _name(module_name, path)
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            tracer.absent.append(name)
            continue
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        raw = vars(owner).get(attr) if owner is not None else None
        if raw is None or not callable(raw):
            tracer.absent.append(name)
            continue
        wrapped = tracer.wrap(name, raw, kind, before, after)
        setattr(owner, attr, wrapped)
        tracer.expect[name] = (workload in on) if on is not None else None
        if not outer:
            _rebind(raw, wrapped)


def _rebind(original, wrapped) -> None:
    for mod_name, mod in list(sys.modules.items()):
        if not mod_name.startswith("isocert") or mod is None:
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapped)
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is original:
                        value[k] = wrapped


# -- per-layer metrics from a trace document ----------------------------------------

STAGES = (
    ("identities", "cli._identity_record"),
    ("li", "certify.certify_Li_negative"),
    ("xcheck", "certify.sample_Li_cross_check"),
    ("okumura", "certify.certify_okumura"),
    ("band", "certify.certify_band_bounds"),
    ("configs", "configsolve.case_branch_identities"),
    ("smooth", "mollify.mollifier_property_report"),
    ("catalog", "geomex.get_model"),
)

IDENTITY_FAMILIES = (("dtheta", ("dtheta_",)), ("dphi", ("dphi",)), ("contraction", ("w",)),
                     ("gap", ("dg_", "df_")))


def _pct(values: list[float], q: int) -> float:
    """Nearest-rank percentile; 0.0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def derive(doc: dict) -> dict[str, float]:
    """Per-layer metrics (name -> value) from one traced process's document."""
    stats, counters, spans = doc["stats"], doc["counters"], doc["spans"]

    def calls(*names):
        return sum(stats.get(n, (0, 0, 0))[0] for n in names)

    def incl(*names):
        return sum(stats.get(n, (0, 0, 0))[1] for n in names)

    def self_s(*names):
        return sum(stats.get(n, (0, 0, 0))[2] for n in names)

    def durations(name):
        return [s[4] - s[3] for s in spans if s[1] == name]

    count = counters.get
    out: dict[str, float] = {}

    # cli: pipeline stages, by the first span of each stage's entry function.
    pipeline = [s for s in spans if s[1] == "cli.run_pipeline"]
    stage_time = {stage: 0.0 for stage, _ in STAGES}
    for run in pipeline:
        children = sorted((s for s in spans if s[2] == run[0]), key=lambda s: s[3])
        starts = []
        for stage, marker in STAGES:
            first = next((s[3] for s in children if s[1] == marker), None)
            if first is not None:
                starts.append((first, stage))
        starts.sort()
        for (start, stage), nxt in zip(starts, starts[1:] + [(run[4], None)]):
            stage_time[stage] += nxt[0] - start
    for stage, _ in STAGES:
        out[f"cli.stage.{stage}_s"] = stage_time[stage]
    out["cli.critical_group_s"] = max(durations("cli._identity_record"), default=0.0)
    out["cli.critical_check_s"] = max(durations("identities.verify_identity"), default=0.0)

    # identities / frameforms
    verify = [s for s in spans if s[1] == "identities.verify_identity"]
    for family, prefixes in IDENTITY_FAMILIES:
        out[f"identities.verify_s.{family}"] = sum(
            (s[4] - s[3] for s in verify if s[5]["identity"].startswith(prefixes)), 0.0)
    out["identities.target_s"] = self_s("identities.dtheta_target", "identities.dphi_target",
                                        "identities.contraction_bracket", "identities.gap_slope")
    out["identities.gap_band_quantities_s"] = self_s("identities.gap_band_quantities")
    out["identities.residual_terms"] = count("identities.residual_terms", 0)
    for fn in ("exterior_derivative", "substitute_connections", "reduce_diagonal",
               "scalar_differential"):
        out[f"frameforms.{fn}_s"] = self_s(f"frameforms.{fn}")
    out["frameforms.vol_coefficient_s"] = self_s("frameforms.Form.vol_coefficient_raw",
                                                 "frameforms.Form.vol_coefficient")

    # exactalg kernel
    mul = ("exactalg.MultiPoly.__mul__", "exactalg.MultiPoly.__rmul__")
    out["exactalg.mul_calls"] = calls(*mul)
    out["exactalg.mul_term_pairs"] = count("exactalg.mul_term_pairs", 0)
    out["exactalg.mul_s"] = self_s(*mul)
    out["exactalg.divexact_calls"] = calls("exactalg.divexact")
    out["exactalg.divexact_s"] = self_s("exactalg.divexact")
    out["exactalg.divexact_useful_ratio"] = _ratio(count("exactalg.divexact_quotients", 0),
                                                   calls("exactalg.divexact"))
    out["exactalg.factored_add_calls"] = calls("exactalg.FactoredFn.__add__")
    out["exactalg.normalize_s"] = self_s("exactalg.FactoredFn.normalize")
    out["exactalg.factor_power_calls"] = calls("exactalg.FactorBase.factor_power")
    out["exactalg.factor_power_reuse_ratio"] = _ratio(
        count("exactalg.factor_power_reused", 0), calls("exactalg.FactorBase.factor_power"))
    out["exactalg.str_s"] = self_s("exactalg.MultiPoly.__str__", "exactalg.RatFn.__str__")
    out["exactalg.max_numerator_terms"] = count("exactalg.max_numerator_terms", 0)

    # certify / vinterval
    band = durations("certify.certify_band_bounds")
    out["certify.band_s"] = self_s("certify.certify_band_bounds")
    out["certify.band_s_p50"] = _pct(band, 50)
    out["certify.band_s_p90"] = _pct(band, 90)
    out["certify.band_cells"] = count("certify.band.cells", 0)
    out["certify.band_cells_per_s"] = _ratio(count("certify.band.cells", 0),
                                             incl("certify.certify_band_bounds"))
    out["certify.band_depth_max"] = count("certify.band.depth_max", 0)
    out["certify.okumura_s"] = self_s("certify.certify_okumura")
    out["certify.okumura_cells"] = count("certify.okumura.cells", 0)
    out["certify.okumura_depth"] = count("certify.okumura.depth_max", 0)
    out["certify.okumura_cells_per_s"] = _ratio(count("certify.okumura.cells", 0),
                                                incl("certify.certify_okumura"))
    out["certify.open_cells"] = count("certify.open_cells", 0)
    out["certify.proved_ratio"] = _ratio(count("certify.decided", 0),
                                         count("certify.certificates", 0))
    out["vinterval.ops"] = count("vinterval.ops", 0)
    out["vinterval.elems"] = count("vinterval.elems", 0)
    out["vinterval.mean_batch"] = _ratio(count("vinterval.elems", 0), count("vinterval.ops", 0))
    out["vinterval.bytes_computed"] = count("vinterval.bytes_computed", 0)

    # configsolve / upoly / algebraic
    out["configsolve.solve_s"] = self_s("configsolve.solve_system")
    out["configsolve.verify_s"] = self_s("configsolve.CurvatureConfig.verify_constraints")
    out["configsolve.configs"] = count("configsolve.configs", 0)
    out["upoly.sturm_count_calls"] = calls("upoly.sturm_count")
    out["upoly.isolate_s"] = self_s("upoly.isolate_squarefree", "upoly.isolate_with_multiplicity")
    out["upoly.refine_calls"] = calls("upoly.refine")
    out["algebraic.refine_calls"] = calls("algebraic.AlgebraicNumber.refine")

    # cross-check sampler, mollify, catalog, reports
    out["xcheck.samples_per_s"] = _ratio(count("xcheck.samples", 0),
                                         incl("certify.sample_Li_cross_check"))
    out["xcheck.violations"] = count("xcheck.violations", 0)
    reports_fns = ("mollifier_property_report", "gap_value_property_report",
                   "cutoff_property_report")
    for fn in reports_fns:
        out[f"mollify.{fn.replace('_property', '')}_s"] = self_s(f"mollify.{fn}")
    out["mollify.samples_per_s"] = _ratio(count("mollify.samples", 0),
                                          incl(*(f"mollify.{fn}" for fn in reports_fns)))
    out["geomex.catalog_s"] = self_s("geomex.get_model")
    out["reports.render_s"] = self_s("reports.render")
    out["reports.bytes"] = count("reports.bytes", 0)
    return out


def unexercised(doc: dict) -> list[str]:
    """Wrappers that the workload should exercise but that saw no call."""
    return sorted(name for name, want in doc["expect"].items()
                  if want and doc["stats"][name][0] == 0)

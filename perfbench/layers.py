"""Per-layer metrics: which public entry points the traced run wraps, and what it derives from them.

Each metric is measured by timing or counting calls into the named public
function, made inside one of the workload's setup, fit, request or write
operations.  ``*_s`` metrics are inclusive time in the group's outermost
spans (nested calls within one group are counted once) unless named a self
time.
"""

from __future__ import annotations

from typing import Any

from repro.core.bottom_clause import BottomClauseBuilder
from repro.core.coverage import CoverageEngine
from repro.core.fanout import ProcessFanout, SaturationFanout
from repro.core.generalization import Generalizer
from repro.core.saturation import DatabaseProbeCache, FrontierChase, SaturationCache
from repro.core.session import DatabasePreparation
from repro.db.overlay import OverlayInstance
from repro.logic.compiled import ClauseCompiler
from repro.logic.subsumption import SubsumptionChecker
from repro.similarity.composite import CompositeSimilarity

from spans import Tracer, inclusive_time, self_time, span_count

PROBES = {f"DatabaseProbeCache.{name}" for name in ("any_rows_table", "prefetch_equal", "rows_equal", "rows_any")}
COMPILE = {"ClauseCompiler.compile_specific", "ClauseCompiler.compile_general", "SubsumptionChecker.prepare"}
COVERAGE = {f"CoverageEngine.{name}" for name in ("batch_covers", "covered_counts", "batch_predicts_positive")}
SEARCH_STATS = ("certificates", "retries", "retry_exhausted")

#: name → unit of every per-layer metric, in report order.
LAYER_UNITS: dict[str, str] = {
    "similarity.index_s": "s",
    "similarity.pairs_scored": "count",
    "similarity.pairs_kept_ratio": "ratio",
    "db.probe_calls": "count",
    "db.probe_s": "s",
    "db.overlay_insert_s": "s",
    "db.rows_inserted": "count",
    "saturation.chase_s": "s",
    "saturation.examples_chased": "count",
    "saturation.relevant_tuples": "count",
    "saturation.cache_hit_ratio": "ratio",
    "saturation.invalidations": "count",
    "bottom_clause.builds": "count",
    "bottom_clause.build_s": "s",
    "bottom_clause.body_literals_mean": "count",
    "subsumption.checks": "count",
    "subsumption.check_s": "s",
    "subsumption.check_ms_max": "ms",
    "subsumption.certificates": "count",
    "subsumption.retries": "count",
    "subsumption.retry_exhausted": "count",
    "subsumption.compile_s": "s",
    "coverage.pairs": "count",
    "coverage.s": "s",
    "coverage.proved_ratio": "ratio",
    "generalization.armg_calls": "count",
    "generalization.armg_s": "s",
    "generalization.reduce_s": "s",
    "generalization.learn_clause_s": "s",
    "fanout.dispatches": "count",
    "fanout.dispatch_s": "s",
    "fanout.scatters": "count",
    "fanout.scatter_s": "s",
    "fanout.faults": "count",
    "fanout.recoveries": "count",
    "fanout.demotions": "count",
    "trace.overhead_s": "s",
    "trace.overhead_pct": "%",
}


def _after_index(tracer: Tracer, args: tuple, result: dict) -> None:
    # Static MD indexes are returned again on every call: count each index's kept pairs once.
    for index in result.values():
        tracer.keep("indexes", index)


def _after_insert(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("db.rows_inserted")


def _after_chase(tracer: Tracer, args: tuple, result: list) -> None:
    tracer.count("saturation.examples_chased", len(args[1]))
    tracer.count("saturation.relevant_tuples", sum(len(relevant) for relevant in result))


def _after_cache_get(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("saturation.cache_gets")
    if result is not None:
        tracer.count("saturation.cache_hits")


def _after_invalidate(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("saturation.invalidations")


def _after_build(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("bottom_clause.body_literals", len(result.body))


def _after_checker(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.keep("checkers", args[0])


def _search_stat(tracer: Tracer, key: str):
    # SearchStats are cumulative per checker, and a checker can serve both an
    # operation and an output check: count only what grows inside operations.
    return lambda: sum(getattr(checker.stats, key) for checker in tracer.objects["checkers"].values())


def _after_batch_covers(tracer: Tracer, args: tuple, result: list) -> None:
    tracer.count("coverage.pairs", len(result))


def _after_batch_predicts(tracer: Tracer, args: tuple, result: list) -> None:
    tracer.count("coverage.pairs", len(args[1]) * len(result))


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point of the program (the traced run only)."""
    wrap = tracer.wrap
    wrap(DatabasePreparation, "similarity_indexes_for", after=_after_index)
    wrap(CompositeSimilarity, "similarity")
    for name in PROBES:
        wrap(DatabaseProbeCache, name.split(".")[1])
    wrap(OverlayInstance, "insert", after=_after_insert)
    wrap(FrontierChase, "relevant_many", after=_after_chase)
    wrap(FrontierChase, "invalidate", after=_after_invalidate)
    wrap(SaturationCache, "get", after=_after_cache_get, span=False)
    wrap(BottomClauseBuilder, "build", after=_after_build)
    tracer.watch(SubsumptionChecker, "__init__", _after_checker)
    for key in SEARCH_STATS:
        tracer.gauge(f"subsumption.{key}", _search_stat(tracer, key))
    wrap(SubsumptionChecker, "subsumes")
    wrap(SubsumptionChecker, "prepare")
    wrap(ClauseCompiler, "compile_specific")
    wrap(ClauseCompiler, "compile_general")
    wrap(CoverageEngine, "batch_covers", after=_after_batch_covers)
    wrap(CoverageEngine, "covered_counts")
    wrap(CoverageEngine, "batch_predicts_positive", after=_after_batch_predicts)
    wrap(Generalizer, "armg")
    wrap(Generalizer, "reduce_clause")
    wrap(Generalizer, "learn_clause")
    wrap(ProcessFanout, "dispatch")
    wrap(SaturationFanout, "depth_tables")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, faults: dict[str, int], overhead_s: float, overhead_pct: float) -> dict[str, float]:
    """Every per-layer metric from the spans and counters of one traced workload run.

    *faults* sums ``LearningSession.fault_stats()`` over the run's pools;
    *overhead_s* and *overhead_pct* are the tracing overhead the run measured.
    """
    spans = tracer.spans
    counts = tracer.counts
    pairs_scored = span_count(spans, {"CompositeSimilarity.similarity"})
    pairs_kept = sum(index.pair_count() for index in tracer.objects["indexes"].values())
    builds = span_count(spans, {"BottomClauseBuilder.build"})
    checks = [span for span in spans if span.name == "SubsumptionChecker.subsumes"]
    metrics = {
        "similarity.index_s": inclusive_time(spans, {"DatabasePreparation.similarity_indexes_for"}),
        "similarity.pairs_scored": pairs_scored,
        "similarity.pairs_kept_ratio": _ratio(pairs_kept, pairs_scored),
        "db.probe_calls": span_count(spans, PROBES),
        "db.probe_s": inclusive_time(spans, PROBES),
        "db.overlay_insert_s": inclusive_time(spans, {"OverlayInstance.insert"}),
        "db.rows_inserted": counts["db.rows_inserted"],
        "saturation.chase_s": self_time(spans, "FrontierChase.relevant_many"),
        "saturation.examples_chased": counts["saturation.examples_chased"],
        "saturation.relevant_tuples": counts["saturation.relevant_tuples"],
        "saturation.cache_hit_ratio": _ratio(counts["saturation.cache_hits"], counts["saturation.cache_gets"]),
        "saturation.invalidations": counts["saturation.invalidations"],
        "bottom_clause.builds": builds,
        "bottom_clause.build_s": inclusive_time(spans, {"BottomClauseBuilder.build"}),
        "bottom_clause.body_literals_mean": _ratio(counts["bottom_clause.body_literals"], builds),
        "subsumption.checks": len(checks),
        "subsumption.check_s": inclusive_time(spans, {"SubsumptionChecker.subsumes"}),
        "subsumption.check_ms_max": max((span.duration for span in checks), default=0.0) * 1000.0,
        "subsumption.certificates": counts["subsumption.certificates"],
        "subsumption.retries": counts["subsumption.retries"],
        "subsumption.retry_exhausted": counts["subsumption.retry_exhausted"],
        "subsumption.compile_s": inclusive_time(spans, COMPILE),
        "coverage.pairs": counts["coverage.pairs"],
        "coverage.s": inclusive_time(spans, COVERAGE),
        "coverage.proved_ratio": _ratio(len(checks), counts["coverage.pairs"]),
        "generalization.armg_calls": span_count(spans, {"Generalizer.armg"}),
        "generalization.armg_s": inclusive_time(spans, {"Generalizer.armg"}),
        "generalization.reduce_s": inclusive_time(spans, {"Generalizer.reduce_clause"}),
        "generalization.learn_clause_s": inclusive_time(spans, {"Generalizer.learn_clause"}),
        "fanout.dispatches": span_count(spans, {"ProcessFanout.dispatch"}),
        "fanout.dispatch_s": inclusive_time(spans, {"ProcessFanout.dispatch"}),
        "fanout.scatters": span_count(spans, {"SaturationFanout.depth_tables"}),
        "fanout.scatter_s": inclusive_time(spans, {"SaturationFanout.depth_tables"}),
        "fanout.faults": faults.get("total_faults", 0),
        "fanout.recoveries": faults.get("recoveries", 0),
        "fanout.demotions": faults.get("demotions", 0),
        "trace.overhead_s": overhead_s,
        "trace.overhead_pct": overhead_pct,
    }
    if list(metrics) != list(LAYER_UNITS):
        raise RuntimeError("per-layer metrics out of step with LAYER_UNITS")
    return metrics

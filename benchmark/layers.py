"""Per-layer metrics of a traced run and what each one should move.

Each entry names the metric, its unit and direction, the end-to-end
metric a change to that layer should move, and the workloads where it
should move.  ``BENCHMARK.json``'s ``per_layer`` list is this table
without the last two columns; the benchmark's tests keep them equal.

Per-call times are reported only for functions that every workload
calls.  A function that some workload never calls (the learner banks on
``reference_wide``, ``member_values`` on the linear class, persistence
and the CLI on the in-memory workloads) is reported by its exact call
count and through its layer's share of the job; its per-call time is in
the run's result file.  A time that reads exactly zero on every run of a
workload would carry no measurement.
"""

from __future__ import annotations

from dataclasses import dataclass

import swapcal.experts
import swapcal.harness
from tracing import Spans

ALL = "online_finite, reference_wide, persisted_pipeline"


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    moves: str  # end-to-end metric(s) a change here should move
    on: str     # workload(s) where it should move


def _per_call(name, moves, on):
    return LayerMetric(f"{name}.us_per_call", "us", "lower", moves, on)


def _total(name, moves, on):
    return LayerMetric(f"{name}.s", "s", "lower", moves, on)


def _calls(name, moves, on):
    return LayerMetric(f"{name}.calls", "count", "lower", moves, on)


LAYERS = ("engine", "experts", "learners", "hypotheses", "properties", "adversaries", "metrics", "harness", "cli")

CATALOG = (
    _per_call("engine.step", "round_p50_us, rounds_per_s", ALL),
    LayerMetric("engine.self_us_per_round", "us", "lower", "round_p50_us, rounds_per_s", ALL),
    _per_call("engine.solve_distribution", "rounds_per_s", "online_finite"),
    _per_call("engine.phi", "rounds_per_s", "online_finite, reference_wide"),
    _per_call("engine.gains", "rounds_per_s", "online_finite, reference_wide"),
    _per_call("engine.sample_and_round", "rounds_per_s", "online_finite"),
    _per_call("experts.expert_update", "rounds_per_s", "reference_wide, online_finite"),
    _per_call("experts.expert_weights", "rounds_per_s", "reference_wide, online_finite"),
    LayerMetric("experts.cells_per_round", "count", "lower", "rounds_per_s", "reference_wide"),
    LayerMetric("experts.bytes_per_update.computed", "bytes", "lower", "rounds_per_s", "reference_wide"),
    _calls("learners.observe_pair", "rounds_per_s", "online_finite, persisted_pipeline (0 on reference_wide)"),
    _calls("learners.predict_all", "rounds_per_s", "online_finite, persisted_pipeline (0 on reference_wide)"),
    LayerMetric("learners.cells", "count", "lower", "rounds_per_s", "online_finite, persisted_pipeline"),
    _calls("hypotheses.member_values", "rounds_per_s", "online_finite, reference_wide"),
    _total("hypotheses.member_table", "job_s", "online_finite, reference_wide"),
    _calls("properties.eval_identification", "rounds_per_s", ALL),
    _per_call("properties.eval_identification", "rounds_per_s", ALL),
    _calls("properties.marginal_identification", "audit_rounds_per_s", "persisted_pipeline"),
    _per_call("properties.marginal_identification", "audit_rounds_per_s", "persisted_pipeline"),
    _per_call("properties.law_sample", "rounds_per_s", "persisted_pipeline"),
    _per_call("adversaries.next_context", "round_p50_us", ALL),
    _per_call("adversaries.next_label_law", "round_p50_us", ALL),
    _per_call("adversaries.observe", "round_p50_us", ALL),
    _total("metrics.from_records", "job_s", "online_finite"),
    _total("metrics.aggregate", "job_s", "online_finite, persisted_pipeline"),
    _total("metrics.smcal", "job_s", "online_finite, persisted_pipeline"),
    _total("metrics.mcal", "job_s", "persisted_pipeline"),
    _total("metrics.cal", "job_s", "online_finite, persisted_pipeline"),
    _total("harness.audit", "audit_rounds_per_s, job_s", ALL),
    _total("harness.build_components", "setup_s, job_s", "persisted_pipeline"),
    _calls("harness.build_components", "setup_s, job_s", "persisted_pipeline"),
    LayerMetric("harness.self_s", "s", "lower", "job_s, audit_rounds_per_s", "persisted_pipeline"),
    LayerMetric("harness.bytes_written", "bytes", "lower", "job_s, peak_rss_mb", "persisted_pipeline (0 elsewhere)"),
    *(
        LayerMetric(f"{layer}.job_share", "%", "lower", "job_s", on)
        for layer, on in (
            ("engine", ALL),
            ("experts", "reference_wide, online_finite"),
            ("learners", "online_finite, persisted_pipeline (0 on reference_wide)"),
            ("hypotheses", "online_finite, reference_wide"),
            ("properties", ALL),
            ("adversaries", ALL),
            ("metrics", "online_finite, persisted_pipeline"),
            ("harness", "persisted_pipeline"),
            ("cli", "persisted_pipeline (0 elsewhere)"),
            ("bench", "none: the benchmark's own code"),
        )
    ),
    LayerMetric("trace.loop_self_us_per_round", "us", "lower", "round_p50_us", ALL),
    LayerMetric("trace.layer_share", "%", "higher", "none: tracing check, fails the run below LAYER_SHARE_MIN", ALL),
    LayerMetric("trace.overhead_share", "%", "lower", "none: traced vs untraced rounds_per_s", ALL),
)

# Least share of the traced round time that the layers' self times must
# account for; the caller's loop accounts for the rest.  On a 2-vCPU VM the
# share reads 97-99% on every workload (the loop costs 2.5-3.5 us a round)
# and falls to 90% or below when engine.step or next_context goes untraced.
# The margin leaves room for rounds up to about four times faster.
LAYER_SHARE_MIN = 93.0


def static_counts(workload, T: int) -> dict[str, float]:
    """Work per round fixed by the configuration, computed from array sizes."""
    cfg = swapcal.harness.ExperimentConfig.from_dict(workload.raw_config(T, 0))
    _, cls_obj, _ = cfg.build_components()
    N = cfg.bin_count
    J = swapcal.experts.rate_grid_for_horizon(T).size
    if cfg.engine == "efficient":
        K = 2 * N
        width = cls_obj.size if cls_obj.variant == "finite" else cls_obj.dim
        learner_cells = 2 * N * width
    else:
        K = 2 * N * cls_obj.size
        learner_cells = 0
    return {
        "experts.cells_per_round": J * K,
        # one float64 read and write of the (J, K) log-weight table and the
        # J master entries, plus the K gains read
        "experts.bytes_per_update.computed": 8 * (2 * J * K + 2 * J + K),
        "learners.cells": learner_cells,
    }


def job_values(job) -> dict[str, float]:
    """Every per-layer value of one traced job except the overhead share."""
    spans: Spans = job.spans
    dur = spans.duration
    self_ns = spans.self_time()
    layer = spans.layer()
    out: dict[str, float] = {}
    for metric in CATALOG:
        base, _, kind = metric.name.rpartition(".")
        if kind == "us_per_call":
            mask = spans.mask(base)
            out[metric.name] = float(dur[mask].sum()) / max(1, int(mask.sum())) / 1e3
        elif kind == "calls":
            out[metric.name] = int(spans.mask(base).sum())
        elif kind == "s":
            out[metric.name] = float(dur[spans.mask(base)].sum()) / 1e9
    job_ns = job.job_end - job.job_start
    for name in LAYERS:
        out[f"{name}.job_share"] = 100.0 * float(self_ns[layer == name].sum()) / job_ns
    out["bench.job_share"] = 100.0 * (job_ns - float(self_ns.sum())) / job_ns
    out["engine.self_us_per_round"] = float(self_ns[layer == "engine"].sum()) / job.T / 1e3
    out["harness.self_s"] = float(self_ns[layer == "harness"].sum()) / 1e9
    out["harness.bytes_written"] = job.bytes_written

    # Summed over a span tree, self times add up to the top spans' durations,
    # so this is the share of round time spent inside traced calls; the rest
    # is the caller's own loop, and it grows when a layer goes untraced.
    in_round = spans.round_of(job.round_start, job.round_end) >= 0
    layers_ns = float(self_ns[in_round].sum())
    round_ns = float((job.round_end - job.round_start).sum())
    out["trace.loop_self_us_per_round"] = (round_ns - layers_ns) / job.T / 1e3
    out["trace.layer_share"] = 100.0 * layers_ns / round_ns
    return out


def function_table(spans: Spans) -> dict[str, dict]:
    """Calls, total and self time of every traced function of one job."""
    dur = spans.duration
    self_ns = spans.self_time()
    table = {}
    for name in spans.names:
        mask = spans.mask(name)
        calls = int(mask.sum())
        if calls:
            table[name] = {
                "calls": calls,
                "total_s": float(dur[mask].sum()) / 1e9,
                "self_s": float(self_ns[mask].sum()) / 1e9,
                "us_per_call": float(dur[mask].sum()) / calls / 1e3,
            }
    return table

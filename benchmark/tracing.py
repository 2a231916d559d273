"""Span tracing of swapcal from outside the package.

The library modules import their collaborators by name, so a function is
wrapped where it is looked up (``swapcal.engine.expert_update``, not only
``swapcal.experts.expert_update``).  Methods are wrapped on their classes.
Every call into a wrapped function records one span: name, start, end and
parent span.  Spans stay in memory as flat lists while a job runs and are
turned into arrays afterwards; round ids are assigned after the fact from
the round boundaries, which keeps the round loop itself untouched.

A layer's self time is its spans' durations minus the time covered by
their direct child spans.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

import swapcal.adversaries
import swapcal.cli
import swapcal.engine
import swapcal.harness
import swapcal.hypotheses
import swapcal.learners
import swapcal.metrics
import swapcal.properties

_adv = swapcal.adversaries
_eng = swapcal.engine
_hyp = swapcal.hypotheses
_lrn = swapcal.learners
_met = swapcal.metrics
_har = swapcal.harness

# (owner, attribute, span name).  The span name's prefix before the first
# dot is the layer (module) that owns the code.
TARGETS = (
    (_eng.EfficientForecaster, "step", "engine.step"),
    (_eng.InefficientForecaster, "step", "engine.step"),
    (_eng, "phi_from_learners", "engine.phi"),
    (_eng, "phi_from_class", "engine.phi"),
    (_eng, "solve_distribution", "engine.solve_distribution"),
    (_eng, "sample_and_round", "engine.sample_and_round"),
    (_eng, "gains_efficient", "engine.gains"),
    (_eng, "gains_inefficient", "engine.gains"),
    (_eng, "expert_weights", "experts.expert_weights"),
    (_eng, "expert_update", "experts.expert_update"),
    (_lrn.FiniteLearnerBank, "predict_all", "learners.predict_all"),
    (_lrn.LinearLearnerBank, "predict_all", "learners.predict_all"),
    (_lrn.FiniteLearnerBank, "observe_pair", "learners.observe_pair"),
    (_lrn.LinearLearnerBank, "observe_pair", "learners.observe_pair"),
    (_hyp.HypothesisClass, "member_values", "hypotheses.member_values"),
    (_hyp.HypothesisClass, "member_table", "hypotheses.member_table"),
    (_met, "sup_correlation", "hypotheses.sup_correlation"),
    (_hyp, "sup_correlation", "hypotheses.sup_correlation"),
    (_eng, "eval_identification", "properties.eval_identification"),
    (_adv, "eval_identification", "properties.eval_identification"),
    (_met, "identification_values", "properties.identification_values"),
    (_har, "marginal_identification", "properties.marginal_identification"),
    (swapcal.properties.LabelLaw, "sample", "properties.law_sample"),
    (_adv.LogisticAdversary, "next_context", "adversaries.next_context"),
    (_adv.BetaAdversary, "next_context", "adversaries.next_context"),
    (_adv.DeficitAdversary, "next_context", "adversaries.next_context"),
    (_adv.LogisticAdversary, "next_label_law", "adversaries.next_label_law"),
    (_adv.BetaAdversary, "next_label_law", "adversaries.next_label_law"),
    (_adv.DeficitAdversary, "next_label_law", "adversaries.next_label_law"),
    (_adv.LogisticAdversary, "observe", "adversaries.observe"),
    (_adv.BetaAdversary, "observe", "adversaries.observe"),
    (_adv.DeficitAdversary, "observe", "adversaries.observe"),
    (_met.Transcript, "from_records", "metrics.from_records"),
    (_met, "aggregate", "metrics.aggregate"),
    (_har, "aggregate", "metrics.aggregate"),
    (_met, "smcal", "metrics.smcal"),
    (_har, "smcal", "metrics.smcal"),
    (_met, "mcal", "metrics.mcal"),
    (_har, "mcal", "metrics.mcal"),
    (_met, "cal", "metrics.cal"),
    (_har, "cal", "metrics.cal"),
    (_har.ExperimentConfig, "build_components", "harness.build_components"),
    (_har, "run", "harness.run"),
    (swapcal.cli, "run", "harness.run"),
    (_har, "persist_run", "harness.persist_run"),
    (_har, "audit_result", "harness.audit"),
    (_har, "audit_run_dir", "harness.audit"),
    (swapcal.cli, "audit_run_dir", "harness.audit"),
    (_har, "compute_metrics_for_run_dir", "harness.compute_metrics"),
    (swapcal.cli, "compute_metrics_for_run_dir", "harness.compute_metrics"),
    (swapcal.cli, "main", "cli.main"),
)

NO_PARENT = -1


class Tracer:
    """Records spans of wrapped calls; install with ``patched(tracer.wrap)``."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._reset_lists()

    def _reset_lists(self) -> None:
        self._name: list[int] = []
        self._parent: list[int] = []
        self._start: list[int] = []
        self._end: list[int] = []
        self._stack: list[int] = [NO_PARENT]

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            self._start.append(clock())  # the bookkeeping below counts as the call's own time
            idx = len(self._name)
            self._name.append(nid)
            self._parent.append(self._stack[-1])
            self._end.append(0)
            self._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self._end[idx] = clock()
                self._stack.pop()

        traced.__wrapped__ = fn
        return traced

    def take(self) -> "Spans":
        """Hand over the spans recorded so far and start a fresh list."""
        spans = Spans(
            names=list(self.names),
            name=np.asarray(self._name, dtype=np.int32),
            parent=np.asarray(self._parent, dtype=np.int64),
            start=np.asarray(self._start, dtype=np.int64),
            end=np.asarray(self._end, dtype=np.int64),
        )
        self._reset_lists()
        return spans


class patched:
    """Context manager that replaces every target by ``wrap(name, fn)``.

    The originals are restored on exit.  With ``wrap=None`` nothing is
    patched, so the same job code runs traced and untraced.
    """

    def __init__(self, wrap, targets=TARGETS) -> None:
        self.wrap = wrap
        self.targets = targets
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        if self.wrap is None:
            return self
        try:
            for owner, attr, name in self.targets:
                raw = vars(owner)[attr]
                self._saved.append((owner, attr, raw))
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self.wrap(name, raw.__func__)))
                else:
                    setattr(owner, attr, self.wrap(name, raw))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


@dataclass
class Spans:
    """One job's spans as parallel arrays (times in perf_counter ns)."""

    names: list[str]
    name: np.ndarray
    parent: np.ndarray
    start: np.ndarray
    end: np.ndarray

    @property
    def duration(self) -> np.ndarray:
        return self.end - self.start

    def self_time(self) -> np.ndarray:
        """Per-span duration minus the durations of its direct children."""
        dur = self.duration
        child = self.parent >= 0
        covered = np.bincount(self.parent[child], weights=dur[child], minlength=dur.size)
        return dur - covered.astype(np.int64)

    def layer(self) -> np.ndarray:
        """Layer name of each span."""
        layers = np.array([n.split(".", 1)[0] for n in self.names] + [""], dtype=object)
        return layers[self.name]

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(self.name.size, dtype=bool)
        return self.name == self.names.index(name)

    def round_of(self, round_start: np.ndarray, round_end: np.ndarray) -> np.ndarray:
        """Index of the round each span ran in, or -1 outside every round."""
        rid = np.searchsorted(round_start, self.start, side="right") - 1
        inside = (rid >= 0) & (self.start < round_end[np.maximum(rid, 0)])
        return np.where(inside, rid, -1)

"""A deterministic guard on the round's constant: Python-level calls per ``step``.

The benchmark's three workload configs (copied in ``test_pinned_digests``)
run through ``harness.run`` at T = 1024 and seed 1, with a profiler that is
on only inside the engines' ``step``.  cProfile counts every call of a
Python function and of a builtin or numpy method; for a fixed seed that
count is fixed by the code, so the guard needs no timing.  The bounds are
the counts of the column round, rounded up to one decimal, after
``eval_identification`` checked its two values with one comparison chain
and the linear bank's ``observe_pair`` stepped its rows in place.  The
round that built and checked a profile, a law and a record object every
round made 104.5, 74.9 and 82.8 calls; the column round before those two
cuts made 54.6, 41.9 and 51.4.  A change that adds calls to the round
must raise a bound here and say why.

The persisted_pipeline config draws Beta labels inside ``step``; the
adversary loads scipy.special when it is built, so the import is never
inside the profiler, and once loaded a draw reaches it with no call.
"""

import cProfile
import pstats

import pytest

import swapcal.engine as engine_mod
from swapcal.harness import ExperimentConfig, run
from test_pinned_digests import WORKLOADS

T = 1024
CALLS_PER_STEP = {"online_finite": 42.9, "reference_wide": 34.0, "persisted_pipeline": 39.6}


def calls_per_step(workload, monkeypatch):
    profiler = cProfile.Profile()

    def profiled(step):
        def wrapper(self, *args):
            profiler.enable()
            try:
                return step(self, *args)
            finally:
                profiler.disable()

        return wrapper

    for engine_cls in (engine_mod.EfficientForecaster, engine_mod.InefficientForecaster):
        monkeypatch.setattr(engine_cls, "step", profiled(engine_cls.step))
    config, _ = WORKLOADS[workload]
    run(ExperimentConfig.from_dict({**config, "T": T, "seed": 1}))
    return pstats.Stats(profiler).total_calls / T


@pytest.mark.parametrize("workload", list(CALLS_PER_STEP))
def test_calls_per_step_stay_at_the_column_round(workload, monkeypatch):
    count = calls_per_step(workload, monkeypatch)
    assert count <= CALLS_PER_STEP[workload], f"{workload}: {count} Python-level calls per step"

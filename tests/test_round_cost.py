"""A deterministic guard on the round's constant: Python-level calls per ``step``.

The benchmark's three workload configs (copied in ``test_pinned_digests``)
run through ``harness.run`` at T = 1024 and seed 1, with a profiler that is
on only inside the engines' ``step``.  cProfile counts every call of a
Python function and of a builtin or numpy method; for a fixed seed that
count is fixed by the code, so the guard needs no timing.  The bounds are
the counts of the column round, rounded up to one decimal; the round
before it, which built and checked a profile, a law and a record object
every round, made 104.5, 74.9 and 82.8 calls.  A change that adds calls
to the round must raise a bound here and say why.
"""

import cProfile
import pstats

import pytest

import swapcal.engine as engine_mod
from swapcal.harness import ExperimentConfig, run
from test_pinned_digests import WORKLOADS

T = 1024
CALLS_PER_STEP = {"online_finite": 54.6, "reference_wide": 41.9, "persisted_pipeline": 51.4}


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

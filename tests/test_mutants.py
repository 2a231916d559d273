"""Engine-mutant gate: faults in learning must push smcal_2 out of its envelope.

The per-round audit holds for every phi, so it cannot see a fault in how
the experts learn.  Each mutant below is a named fault patched into
``swapcal.engine``; the gate runs it on fixed seeds and checks that the
swap error leaves the envelope the correct program stays in.
"""

import numpy as np
import pytest

import swapcal.engine as engine_mod
from swapcal.harness import ExperimentConfig, audit_result, run

SEEDS = (3, 4, 5)
# Correct program at T = 2048 (mean, finite:groups=8,dim=4, logistic, seeds
# 3-5): smcal_2 7.16-9.36 on both engines.  Every mutant scored 29.7 or more
# (lowest: no expert update, efficient engine).  The envelope sits about 1.6x
# above the largest correct value and 2x below the smallest mutant.
SMCAL_ENVELOPE = 15.0


def config(engine, seed):
    return ExperimentConfig.from_dict(
        {
            "engine": engine,
            "property": "mean",
            "hypothesis_class": "finite:groups=8,dim=4",
            "adversary": {"kind": "logistic", "dim": 4},
            "T": 2048,
            "r": 2.0,
            "seed": seed,
            "log_phi": False,
        }
    )


def no_expert_update(state, gains, start=None):
    return state


def negated(gains_fn):
    return lambda *args, **kwargs: -gains_fn(*args, **kwargs)


def phi_reading_member_major(weights, cls, x, fvals=None):
    """Phi of experts numbered (member, bin, sign), while gains write (bin, sign, member)."""
    table = np.asarray(weights).reshape(cls.size, -1, 2)
    if fvals is None:
        fvals = cls.member_values(x)
    return engine_mod.PhiProfile(fvals @ (table[:, :, 0] - table[:, :, 1]))


MUTANTS = {
    "no_expert_update": {"expert_update": no_expert_update},
    "gains_negated": {
        "gains_efficient": negated(engine_mod.gains_efficient),
        "gains_inefficient": negated(engine_mod.gains_inefficient),
    },
    "phi_reads_member_major": {"phi_from_class": phi_reading_member_major},
}
CASES = [
    ("no_expert_update", "efficient"),
    ("no_expert_update", "inefficient"),
    ("gains_negated", "efficient"),
    ("gains_negated", "inefficient"),
    ("phi_reads_member_major", "inefficient"),
]


def smcal_by_seed(engine):
    out = []
    for seed in SEEDS:
        res = run(config(engine, seed))
        assert audit_result(res).passed  # learning faults leave the hedging intact
        out.append(res.metrics["smcal"])
    return out


@pytest.mark.parametrize("engine", ["efficient", "inefficient"])
def test_correct_program_stays_in_envelope(engine):
    assert max(smcal_by_seed(engine)) <= SMCAL_ENVELOPE


@pytest.mark.parametrize("mutant,engine", CASES)
def test_mutant_leaves_envelope(mutant, engine, monkeypatch):
    for name, fault in MUTANTS[mutant].items():
        monkeypatch.setattr(engine_mod, name, fault)
    scores = smcal_by_seed(engine)
    assert min(scores) > SMCAL_ENVELOPE, f"{mutant} on the {engine} engine scored {scores}"

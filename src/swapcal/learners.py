"""Online agnostic learners, packed as banks of independent rows: exponential
weights over a finite class (rate sqrt(log|F| / n) applied to the full
cumulative correlations) and projected gradient on the linear unit ball
(theta_1 = 0, step 2 / sqrt(n)).  An engine reads every row with one
product per round (``predict_all``, which is pure) and feeds one row pair
its outcomes (kappa, -kappa) (``observe_pair``, the only call that
advances a row), so an unfed row keeps returning its most recent
predictor.  The tests keep one standalone learner per rule as the slow
reference that each row must match bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from .hypotheses import HypothesisClass

_KAPPA_TOL = 1e-12


def _check_outcome(kappa: float) -> float:
    kappa = float(kappa)
    if not (math.isfinite(kappa) and abs(kappa) <= 1.0 + _KAPPA_TOL):
        raise ValueError(f"outcome must lie in [-1, 1], got {kappa}")
    return kappa


class FiniteLearnerBank:
    """Independent finite-class learners sharing one member set.

    Row r keeps its own cumulative correlations and round count; feeding
    a row pair leaves every other row untouched.  ``predict_all`` consumes
    the member values f(x) computed once for the round.
    """

    def __init__(self, cls: HypothesisClass, rows: int) -> None:
        if cls.variant != "finite":
            raise ValueError("FiniteLearnerBank needs a finite class")
        self.cls = cls
        self.rows = rows
        self.log_size = math.log(cls.size)
        self.cum = np.zeros((rows, cls.size))
        self.weights = np.full((rows, cls.size), 1.0 / cls.size)
        self.rounds = np.zeros(rows, dtype=np.int64)

    def predict_all(self, member_values: np.ndarray) -> np.ndarray:
        return self.weights @ member_values

    def observe_pair(self, row: int, member_values: np.ndarray, kappa: float) -> None:
        """Feed rows (row, row + 1) with outcomes (kappa, -kappa), as one (2, |F|) block.

        Each row's weights are exp(eta_n * cum) / Z with eta_n =
        sqrt(log|F| / n) over its own n rounds, shifted by the row's maximum
        before the exponential; the block computes for each row the same
        products, maximum and sum that row would get alone.
        """
        kappa = _check_outcome(kappa)
        if not 0 <= row < self.rows - 1:
            raise IndexError(f"row pair ({row}, {row + 1}) outside the {self.rows} rows")
        pair = slice(row, row + 2)
        cum = self.cum[pair]
        cum += np.multiply.outer((kappa, -kappa), member_values)
        rounds = self.rounds[pair]
        rounds += 1
        z = np.sqrt(self.log_size / rounds)[:, None] * cum
        z -= np.maximum.reduce(z, axis=1, keepdims=True)
        w = np.exp(z)
        self.weights[pair] = w / np.add.reduce(w, axis=1, keepdims=True)


class LinearLearnerBank:
    """Independent unit-ball learners stored as rows of one theta matrix."""

    def __init__(self, dim: int, rows: int) -> None:
        self.dim = dim
        self.rows = rows
        self.thetas = np.zeros((rows, dim))
        self.rounds = np.zeros(rows, dtype=np.int64)

    def predict_all(self, features: np.ndarray) -> np.ndarray:
        return self.thetas @ features

    def observe_pair(self, row: int, features: np.ndarray, kappa: float) -> None:
        """Feed rows (row, row + 1) with outcomes (kappa, -kappa), each row updated in place.

        Each row steps theta + (2 / sqrt(n)) * s * x over its own n rounds,
        then projects back onto the unit ball when it left it.
        """
        kappa = _check_outcome(kappa)
        if not 0 <= row < self.rows - 1:
            raise IndexError(f"row pair ({row}, {row + 1}) outside the {self.rows} rows")
        for r, s in ((row, kappa), (row + 1, -kappa)):
            n = int(self.rounds[r]) + 1
            self.rounds[r] = n
            v = self.thetas[r]
            v += (2.0 / math.sqrt(n)) * s * features
            sq = float(v @ v)
            if sq > 1.0:
                v /= math.sqrt(sq)

"""Online agnostic learners: exponential weights over a finite class
(rate sqrt(log|F| / n) applied to the full cumulative correlations) and
projected gradient on the linear unit ball (theta_1 = 0, step 2 / sqrt(n)).
predict is pure; only observe advances a learner, so an unfed learner
keeps returning its most recent predictor.  Bank variants pack many
independent copies into one matrix so an engine can read all of them with
a single product per round; a bank row evolves exactly like a standalone
learner fed the same subsequence.
"""

from __future__ import annotations

import math

import numpy as np

from .hypotheses import Context, HypothesisClass

_KAPPA_TOL = 1e-12


def _check_outcome(kappa: float) -> float:
    kappa = float(kappa)
    if not (math.isfinite(kappa) and abs(kappa) <= 1.0 + _KAPPA_TOL):
        raise ValueError(f"outcome must lie in [-1, 1], got {kappa}")
    return kappa


def _mwu_row(cum: np.ndarray, n: int, log_size: float) -> np.ndarray:
    """Exponential weights exp(eta_n * cum) / Z with eta_n = sqrt(log|F| / n)."""
    if n == 0 or log_size == 0.0:
        return np.full(cum.shape, 1.0 / cum.shape[0])
    z = math.sqrt(log_size / n) * cum
    z = z - z.max()
    w = np.exp(z)
    return w / w.sum()


def _ogd_step(theta: np.ndarray, x: np.ndarray, kappa: float, n: int) -> np.ndarray:
    v = theta + (2.0 / math.sqrt(n)) * kappa * x
    sq = float(v @ v)
    return v / math.sqrt(sq) if sq > 1.0 else v


class FiniteClassLearner:
    """Exponential-weights learner over a finite hypothesis class."""

    def __init__(self, cls: HypothesisClass) -> None:
        if cls.variant != "finite":
            raise ValueError("FiniteClassLearner needs a finite class")
        self.cls = cls
        self.size = cls.size
        self.log_size = math.log(self.size)
        self.cum = np.zeros(self.size)
        self.weights = np.full(self.size, 1.0 / self.size)
        self.rounds = 0

    def predict(self, x: Context) -> float:
        return float(self.weights @ self.cls.member_values(x))

    def observe(self, x: Context, kappa: float) -> None:
        kappa = _check_outcome(kappa)
        self.cum += self.cls.member_values(x) * kappa
        self.rounds += 1
        self.weights = _mwu_row(self.cum, self.rounds, self.log_size)


class UnitBallLearner:
    """Projected-gradient learner over the linear unit-ball class."""

    def __init__(self, dim: int) -> None:
        if dim < 1:
            raise ValueError("dimension must be positive")
        self.dim = dim
        self.theta = np.zeros(dim)
        self.rounds = 0

    def predict(self, x: Context) -> float:
        return float(self.theta @ x.features)

    def observe(self, x: Context, kappa: float) -> None:
        kappa = _check_outcome(kappa)
        self.rounds += 1
        self.theta = _ogd_step(self.theta, x.features, kappa, self.rounds)


class FiniteLearnerBank:
    """Independent finite-class learners sharing one member set.

    Row r keeps its own cumulative correlations and round count; feeding
    row r leaves every other row untouched.  ``predict_all`` consumes the
    member values f(x) computed once for the round.
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

    def observe(self, row: int, member_values: np.ndarray, kappa: float) -> None:
        kappa = _check_outcome(kappa)
        self.cum[row] += member_values * kappa
        self.rounds[row] += 1
        self.weights[row] = _mwu_row(self.cum[row], int(self.rounds[row]), self.log_size)

    def observe_pair(self, row: int, member_values: np.ndarray, kappa: float) -> None:
        """Feed rows (row, row + 1) with outcomes (kappa, -kappa), as one (2, |F|) block.

        Each row gets the same products, maximum and sum as ``observe``
        computes for it alone, so the result is bit for bit that of two
        ``observe`` calls.
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

    def observe(self, row: int, features: np.ndarray, kappa: float) -> None:
        kappa = _check_outcome(kappa)
        self.rounds[row] += 1
        self.thetas[row] = _ogd_step(self.thetas[row], features, kappa, int(self.rounds[row]))

    def observe_pair(self, row: int, features: np.ndarray, kappa: float) -> None:
        """Feed rows (row, row + 1) with outcomes (kappa, -kappa), each row updated in place.

        Each row takes ``_ogd_step``'s step and projection in the same
        order, so the result is bit for bit that of two ``observe`` calls.
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

"""Shared test helpers: test functions that only the tests build, the standalone learners that are the
slow reference for the learner banks, a regret oracle for a bank row, logs of the gains fed to the experts
and of the profiles the laws are solved from, and plain round values read off an engine's columns."""

import math
from typing import NamedTuple

import numpy as np

import swapcal.engine as engine_mod
from swapcal.hypotheses import NORM_TOL, Context, TestFunction
from swapcal.learners import FiniteLearnerBank


class LinearFixed(TestFunction):
    """x -> <theta, x> for a fixed unit-norm direction."""

    def __init__(self, theta) -> None:
        t = np.asarray(theta, dtype=np.float64)
        if float(t @ t) > 1.0 + NORM_TOL:
            raise ValueError("linear test direction must have norm at most 1")
        self.theta = t

    def __call__(self, x: Context) -> float:
        if x.dim != self.theta.shape[0]:
            raise ValueError("dimension mismatch")
        return float(self.theta @ x.features)

    def batch(self, features: np.ndarray) -> np.ndarray:
        return features @ self.theta

    def __repr__(self) -> str:
        return f"LinearFixed({self.theta.tolist()})"


class Negation(TestFunction):
    def __init__(self, inner: TestFunction) -> None:
        self.inner = inner

    def __call__(self, x: Context) -> float:
        return -self.inner(x)

    def batch(self, features: np.ndarray) -> np.ndarray:
        return -self.inner.batch(features)

    def __repr__(self) -> str:
        return f"Negation({self.inner!r})"


def _mwu_row(cum, n, log_size):
    """Exponential weights exp(eta_n * cum) / Z with eta_n = sqrt(log|F| / n)."""
    if n == 0 or log_size == 0.0:
        return np.full(cum.shape, 1.0 / cum.shape[0])
    z = math.sqrt(log_size / n) * cum
    z = z - z.max()
    w = np.exp(z)
    return w / w.sum()


def _ogd_step(theta, x, kappa, n):
    v = theta + (2.0 / math.sqrt(n)) * kappa * x
    sq = float(v @ v)
    return v / math.sqrt(sq) if sq > 1.0 else v


class FiniteClassLearner:
    """Exponential-weights learner over |F| members, fed the member values f(x): one ``FiniteLearnerBank`` row."""

    def __init__(self, size):
        self.log_size = math.log(size)
        self.cum = np.zeros(size)
        self.weights = np.full(size, 1.0 / size)
        self.rounds = 0

    @property
    def row(self):
        return self.weights

    def predict(self, member_values):
        return float(self.weights @ member_values)

    def observe(self, member_values, kappa):
        self.cum += member_values * kappa
        self.rounds += 1
        self.weights = _mwu_row(self.cum, self.rounds, self.log_size)


class UnitBallLearner:
    """Projected-gradient learner over the linear unit ball, fed the features: one ``LinearLearnerBank`` row."""

    def __init__(self, dim):
        self.theta = np.zeros(dim)
        self.rounds = 0

    @property
    def row(self):
        return self.theta

    def predict(self, features):
        return float(self.theta @ features)

    def observe(self, features, kappa):
        self.rounds += 1
        self.theta = _ogd_step(self.theta, features, kappa, self.rounds)


class ReferenceBank(list):
    """Standalone learners read as one bank, row r being learner r; each is fed by its own ``observe``."""

    def predict_all(self, values):
        """Every learner's prediction from one product of their stacked rows, as a bank computes it."""
        return self.stacked("row") @ values

    def stacked(self, name):
        return np.stack([getattr(learner, name) for learner in self])


def row_regret(bank, n, stream_fn, seed, dim):
    """Correlation regret of row 0 of a two-row learner bank fed each round's outcomes (kappa, -kappa).

    Round t draws a context uniform on [-1, 1]^dim, scaled into the unit
    ball; a finite bank reads its member values f(x), a linear one its
    features v = x, and ``stream_fn(t, q, rng)`` picks the outcome kappa
    against row 0's prediction q.  The regret is the best fixed
    comparator's summed correlation minus the row's sum of q * kappa: the
    largest member sum of f(x) * kappa for a finite class, the norm of the
    summed x * kappa for the unit ball.
    """
    finite = isinstance(bank, FiniteLearnerBank)
    rng = np.random.default_rng(seed)
    total, cum_row = 0.0, 0.0
    for t in range(n):
        raw = rng.uniform(-1, 1, dim)
        raw /= max(1.0, float(np.linalg.norm(raw)))
        v = bank.cls.member_values(Context(raw)) if finite else raw
        q = float(bank.predict_all(v)[0])
        kappa = stream_fn(t, q, rng)
        total = total + v * kappa
        cum_row += q * kappa
        bank.observe_pair(0, v, kappa)
    best = total.max() if finite else np.linalg.norm(total)
    return float(best - cum_row)


def dense_gains(gains, K):
    """The full length-K gain vector of a (first expert, window) pair: the window, zero elsewhere."""
    start, window = gains
    full = np.zeros(K)
    full[start : start + window.size] = window
    return full


def record_fed_gains(monkeypatch):
    """Wrap the engine's gains function and expert update; return the per-round log they fill.

    Entry t holds the arguments of round t's gains call and the gains the
    experts were fed as a full vector: the window passed to
    ``expert_update``, zero elsewhere.
    """
    log = []

    def recording(*args):
        h, grid = args[2], args[4]
        log.append({"args": args, "fed": np.zeros(grid.N * 2 * h.shape[-1])})
        return real_gains(*args)

    def update(state, gains, start):
        log[-1]["fed"][start : start + gains.size] = gains
        return real_update(state, gains, start)

    real_gains, real_update = engine_mod.gains_efficient, engine_mod.expert_update
    monkeypatch.setattr(engine_mod, "gains_efficient", recording)
    monkeypatch.setattr(engine_mod, "expert_update", update)
    return log


def record_profiles(monkeypatch):
    """Wrap the engine's ``solve_distribution``; return the list it fills with each round's full profile phi."""
    profiles = []

    def recording(phi, grid):
        profiles.append(phi.copy())
        return real_solve(phi, grid)

    real_solve = engine_mod.solve_distribution
    monkeypatch.setattr(engine_mod, "solve_distribution", recording)
    return profiles


class Round(NamedTuple):
    """One round's values; ``law`` is (j_lo, j_hi, p_lo, p_hi) as ``solve_distribution`` returns it."""

    t: int
    x: Context
    p_tilde: float
    bin: int
    p: float
    y: float
    law: tuple[int, int, float, float]
    phi_lo: float
    phi_hi: float


def support_points(law):
    """The (grid index, probability) pairs of a law (j_lo, j_hi, p_lo, p_hi): one for a point mass, else two."""
    lo, hi, p_lo, p_hi = law
    return [(lo, p_lo)] if hi == lo else [(lo, p_lo), (hi, p_hi)]


def round_record(engine, t):
    """Round t of an engine (negative t counts from the last round) as plain values.

    Read off the engine's columns; the upper support point's probability
    is taken as 1 - prob_lo, as the audit takes it, and as 0 on a
    one-point support.
    """
    rec = engine.records
    t %= rec.count
    lo, hi, prob_lo = int(rec.j_lo[t]), int(rec.j_hi[t]), float(rec.prob_lo[t])
    return Round(
        t + 1,
        Context(rec.features[t]),
        float(rec.p_tilde[t]),
        int(rec.bins[t]),
        float(rec.p[t]),
        float(rec.y[t]),
        (lo, hi, prob_lo, 1.0 - prob_lo if hi != lo else 0.0),
        float(rec.phi_lo[t]),
        float(rec.phi_hi[t]),
    )


def round_records(engine):
    return [round_record(engine, t) for t in range(engine.round)]

"""Shared test helpers: test functions that only the tests build, a log of the gains fed to the experts, and
checked round records read off an engine's columns."""

import numpy as np

import swapcal.engine as engine_mod
from swapcal.engine import RoundRecord, TwoPointDistribution
from swapcal.hypotheses import NORM_TOL, Context, TestFunction


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


def round_record(engine, t):
    """Round t of an engine (negative t counts from the last round) as a checked ``RoundRecord``.

    Built from the engine's columns; the upper support point's probability
    is taken as 1 - prob_lo, as the audit takes it.
    """
    rec = engine.records
    t %= rec.count
    lo, hi, prob_lo = int(rec.j_lo[t]), int(rec.j_hi[t]), float(rec.prob_lo[t])
    return RoundRecord(
        t + 1,
        Context(rec.features[t]),
        float(rec.p_tilde[t]),
        int(rec.bins[t]),
        float(rec.p[t]),
        float(rec.y[t]),
        TwoPointDistribution.from_law((lo, hi, prob_lo, 1.0 - prob_lo), rec.horizon),
        float(rec.phi_lo[t]),
        float(rec.phi_hi[t]),
    )


def round_records(engine):
    return [round_record(engine, t) for t in range(engine.round)]

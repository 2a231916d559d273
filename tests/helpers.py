"""Shared test helpers: test functions that only the tests build, and a log of the gains fed to the experts."""

import numpy as np

import swapcal.engine as engine_mod
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
        log.append({"args": args, "fed": np.zeros(grid.N * h.shape[1])})
        return real_gains(*args)

    def update(state, gains, start):
        log[-1]["fed"][start : start + gains.size] = gains
        return real_update(state, gains, start)

    real_gains, real_update = engine_mod.gains_efficient, engine_mod.expert_update
    monkeypatch.setattr(engine_mod, "gains_efficient", recording)
    monkeypatch.setattr(engine_mod, "expert_update", update)
    return log

"""Shared test helpers: test functions that only the tests build, logs of the gains fed to the experts and
of the profiles the laws are solved from, and plain round values read off an engine's columns."""

from typing import NamedTuple

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

"""Expert subroutine with a per-expert second-order regret guarantee.

Gains live in [-1, 1].  The construction is a two-layer multiplicative
weights scheme with a correction term:

  * a geometric grid of learning rates eta_j = min(1/4, 2**-j) for
    j = 1 .. ceil(log2 T),
  * one weight vector over the K experts per rate, updated as
    w'(k) ~ w(k) * exp(eta * g_k - eta**2 * g_k**2),
  * a master distribution over the rate instances with prior
    proportional to eta_j**2, updated by the same rule on each
    instance's expected gain this round.

The played distribution is the master-weighted mixture of the per-rate
weight vectors.  The cap eta <= 1/4 keeps every exponent bounded by 1/4
in magnitude, so exp(x - x**2) <= 1 + x holds along the whole update.

Each expert's update depends only on its own gain, so a round need only
touch the experts whose gain is nonzero.  An update therefore takes a
window: the gains of experts [start, start + width), every other expert
having gained 0.  A length-K vector with no start is the full window.
The engines number their experts so that a round's support bins are one
such range.

Weights are stored in log space and left unnormalized between
re-anchors.  Beside them the state caches the table exp(log_weights) and
each rate's row mass, the sum of its row.  An update adds
g * (eta - eta**2 * g) to the window's log weights, re-exponentiates
those cells only and corrects each row mass by the change in its cells.
Reads divide by the row mass.

Every 256 updates the state re-anchors: it renormalizes each row of log
weights and recomputes the table and the exact row masses.  Log space
matters here, because a weight may drift tens of thousands of log-units
behind the leader over a long horizon, far past floating-point underflow
in probability space.  Between re-anchors a touched cell moves by a
factor in [e^(-5/16), e^(3/16)] per update.  So every cell stays below
e^48 and a row's mass above e^-80 / K, and neither can overflow or
underflow.  The mass corrections subtract nearly equal numbers, though,
and their rounding error is relative to the largest mass since the last
re-anchor.  A row mass that leaves [2^-8, 2^8] therefore re-anchors at
once.

The target contract, checked empirically by the test suite: against every
expert k, cumulative regret is at most
c1 * sqrt(V_k * log(K * T)) + c2 * log(K * T) with V_k the sum of squared
gains of expert k, for fixed frozen constants c1, c2.
"""

from __future__ import annotations

import math

import numpy as np

MAX_RATE = 0.25
_GAIN_TOL = 1e-12
_ANCHOR_EVERY = 256
_MASS_BAND = (2.0**-8, 2.0**8)


class ExpertState:
    """Mutable state; one owner, never updated concurrently.

    Built from any finite (J, K) log weights, J being the size of the
    horizon's rate grid; each row is normalized on construction.  The
    master distribution starts at the prior proportional to eta**2.
    """

    def __init__(self, horizon: int, log_weights) -> None:
        rates = rate_grid_for_horizon(horizon)
        lw = np.array(log_weights, dtype=np.float64)
        if lw.ndim != 2 or lw.shape[0] != rates.size or lw.shape[1] < 1:
            raise ValueError(f"need ({rates.size}, K) log weights for horizon {horizon}, got shape {lw.shape}")
        if not np.isfinite(lw).all():
            raise ValueError("log weights must be finite")
        prior = rates**2
        self.expert_count = lw.shape[1]
        self.horizon = horizon
        self.rate_grid = rates
        self.log_master = np.log(prior / prior.sum())  # (J,) normalized
        self.round = 0
        self._master = np.exp(self.log_master)
        self._rate_pair = np.column_stack((rates, -(rates**2)))  # (J, 2)
        self._log = lw - lw.max(axis=1, keepdims=True)  # (J, K), unnormalized
        self._table = np.empty_like(lw)                 # exp(self._log)
        self._mass = np.empty(rates.size)               # row sums of the table
        self._anchor()

    def _anchor(self) -> None:
        """Renormalize the log weights; recompute the table and row masses."""
        table = np.exp(self._log, out=self._table)
        z = table.sum(axis=1, keepdims=True)
        self._log -= np.log(z)
        table /= z
        self._mass = table.sum(axis=1)

    @property
    def log_weights(self) -> np.ndarray:
        """Normalized (J, K) log-distributions, one row per rate (a copy)."""
        return self._log - np.log(self._mass)[:, None]

    def master_weights(self) -> np.ndarray:
        """Normalized (J,) master distribution."""
        return self._master


def rate_grid_for_horizon(T: int) -> np.ndarray:
    count = max(1, math.ceil(math.log2(T))) if T > 1 else 1
    return np.minimum(MAX_RATE, 2.0 ** -np.arange(1, count + 1))


def expert_init(K: int, T: int) -> ExpertState:
    """Uniform weights within each rate; master prior proportional to eta**2."""
    if K < 1 or T < 1:
        raise ValueError("expert count and horizon must be positive")
    return ExpertState(T, np.full((rate_grid_for_horizon(T).size, K), -math.log(K)))


def expert_weights(state: ExpertState) -> np.ndarray:
    """Marginal probability over experts: sum_j master(j) * weights_j."""
    return (state._master / state._mass) @ state._table


def expert_update(state: ExpertState, gains: np.ndarray, start: int | None = None) -> ExpertState:
    """Apply one round of gains, each in [-1, 1]; experts outside the window gain 0.

    ``gains`` holds one entry per expert when ``start`` is None, else the
    gains of experts [start, start + len(gains)).
    """
    g = np.asarray(gains, dtype=np.float64)
    K = state.expert_count
    if start is None:
        if g.shape != (K,):
            raise ValueError(f"expected {K} gains, got shape {g.shape}")
        start = 0
    elif g.ndim != 1 or not 0 <= start <= start + g.size <= K:
        raise ValueError(f"gain window of shape {g.shape} at {start} lies outside the {K} experts")
    if g.size:
        if not np.maximum.reduce(np.abs(g)) <= 1.0 + _GAIN_TOL:  # NaN fails the comparison too
            raise ValueError("gains must be finite and lie in [-1, 1]")
        cols = slice(start, start + g.size)
        lw = state._log[:, cols]
        cells = state._table[:, cols]
        before = np.add.reduce(cells, axis=1)
        instance_gain = (cells @ g) / state._mass  # played (pre-update) expectations
        lw += state._rate_pair @ np.array((g, g * g))  # eta * g - eta**2 * g**2
        np.exp(lw, out=cells)
        state._mass += np.add.reduce(cells, axis=1) - before
    else:
        instance_gain = np.zeros(state.rate_grid.size)
    scaled = state.rate_grid * instance_gain
    lm = state.log_master
    lm += scaled - scaled * scaled
    master = np.exp(lm)
    m_z = float(np.add.reduce(master))
    lm -= math.log(m_z)
    master /= m_z
    state._master = master
    state.round += 1
    low, high = _MASS_BAND
    mass = state._mass.tolist()
    if state.round % _ANCHOR_EVERY == 0 or min(mass) < low or max(mass) > high:
        state._anchor()
    return state

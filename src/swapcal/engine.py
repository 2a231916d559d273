"""The two forecasting engines and their per-round machinery.

Protocol per round: receive a context, build a piecewise-constant profile
phi over the N prediction bins from the current expert weights, pick a
randomization law supported on at most two adjacent points of the 1/T
grid that makes the weighted audit phi * residual unprofitable for every
outcome law, sample a raw prediction, snap it to the bin's grid point,
observe the label, then feed expected gains back to the expert subroutine
(and, in the oracle-efficient engine, outcomes to the two learners of the
hit bin).

Each round appends a ``RoundRecord`` holding, besides the prediction and
label, the randomization law and phi at the bins of its support points:
all of phi that the round's audit reads.  The engine keeps only the latest
full profile (``phi``), no history.

Bins are I_i = [(i-1)/N, i/N) for i < N and I_N = [(N-1)/N, 1]; the
prediction point of bin i is z_i = i/N.  Raw predictions live on the grid
{0, 1/T, ..., 1} and are tracked as integer indices so bin membership is
exact.

Expert indexing is frozen as: member innermost, then sign (+1 first,
then -1), then bin.  Expert (bin i, sign s, member m) is
k = (2 * (i - 1) + s) * |F| + m with s = 0 for +1 and s = 1 for -1; the
oracle-efficient engine is the case |F| = 1, one expert per (bin, sign).
So the experts of bins lo..hi are the one range
[2 * (lo - 1) * |F|, 2 * hi * |F|) in both engines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .experts import expert_init, expert_update, expert_weights
from .hypotheses import Context, HypothesisClass
from .learners import FiniteLearnerBank, LinearLearnerBank
from .properties import Property, eval_identification

_PROB_TOL = 1e-12
_PHI_TOL = 1e-9


@dataclass(frozen=True)
class GridConfig:
    """Prediction grid: N bins over [0, 1], raw samples on the 1/T grid.

    N <= T guarantees that adjacent 1/T points never skip a whole bin, so
    the sign-change search below is total.
    """

    N: int
    T: int

    def __post_init__(self) -> None:
        if self.N < 1 or self.T < 1:
            raise ValueError("N and T must be positive")
        if self.N > self.T:
            raise ValueError(f"need N <= T, got N={self.N}, T={self.T}")

    def bin_of_index(self, j: int) -> int:
        """1-based bin of the grid point j/T (exact integer arithmetic)."""
        if not 0 <= j <= self.T:
            raise ValueError(f"grid index {j} outside 0..{self.T}")
        if j >= self.T:
            return self.N
        return (j * self.N) // self.T + 1


def default_bin_count(T: int, r: float) -> int:
    """Default N = ceil(T ** (1 / (r + 1))), the rate-optimal tuning."""
    if T < 1 or r < 1:
        raise ValueError("need T >= 1 and r >= 1")
    return max(1, math.ceil(T ** (1.0 / (r + 1.0)) - 1e-9))


@dataclass(frozen=True)
class PhiProfile:
    """Per-bin values of the piecewise-constant hedging profile."""

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1 or v.size < 1:
            raise ValueError("phi profile must be a nonempty vector")
        top = float(np.max(np.abs(v)))
        if not top <= 1.0 + _PHI_TOL:  # NaN fails the comparison too
            raise ValueError("phi values must lie in [-1, 1]")
        object.__setattr__(self, "values", v)

    def at_index(self, j: int, grid: GridConfig) -> float:
        return float(self.values[grid.bin_of_index(j) - 1])


@dataclass(frozen=True)
class TwoPointDistribution:
    """Randomization law over one or two adjacent 1/T-grid points."""

    support_idx: tuple[int, ...]
    probs: tuple[float, ...]
    horizon: int

    def __post_init__(self) -> None:
        if len(self.support_idx) not in (1, 2) or len(self.probs) != len(self.support_idx):
            raise ValueError("support must hold one or two points with matching probabilities")
        if any(p <= 0.0 for p in self.probs):
            raise ValueError("support probabilities must be positive")
        if abs(sum(self.probs) - 1.0) > _PROB_TOL:
            raise ValueError("probabilities must sum to 1")
        for j in self.support_idx:
            if not 0 <= j <= self.horizon:
                raise ValueError("support point outside the grid")
        if len(self.support_idx) == 2 and self.support_idx[1] - self.support_idx[0] != 1:
            raise ValueError("two-point support must use consecutive grid points")

    @property
    def points(self) -> tuple[float, ...]:
        return tuple(j / self.horizon for j in self.support_idx)


def phi_from_class(weights: np.ndarray, cls: HypothesisClass, x: Context, fvals=None) -> PhiProfile:
    """Profile of the enumerating engine: v_i = sum_{s,f} w_{i,s,f} s f(x).

    ``fvals``, when given, are the member values f(x) already computed.
    """
    if cls.variant != "finite":
        raise ValueError("the enumerating engine needs a finite class")
    member_count = cls.size
    w = np.asarray(weights, dtype=np.float64)
    if w.size % (2 * member_count) != 0:
        raise ValueError("weight vector length must be 2 * N * |F|")
    table = w.reshape(-1, 2, member_count)  # (bin, sign, member)
    if fvals is None:
        fvals = cls.member_values(x)
    # a C-ordered (|F|, N) operand: an (N, |F|) one switches the BLAS kernel and moves phi in the last ulp
    return PhiProfile(fvals @ np.subtract(table[:, 0].T, table[:, 1].T, order="C"))


def phi_from_learners(weights: np.ndarray, q_values: np.ndarray) -> PhiProfile:
    """Profile of the oracle-efficient engine: v_i = w_{i,+} q_{i,+} - w_{i,-} q_{i,-}."""
    w = np.asarray(weights, dtype=np.float64)
    q = np.asarray(q_values, dtype=np.float64)
    if w.shape != q.shape or w.ndim != 1 or w.size % 2 != 0:
        raise ValueError("need matching weight and q vectors of length 2N")
    prod = (w * q).reshape(-1, 2)
    return PhiProfile(prod[:, 0] - prod[:, 1])


def solve_distribution(phi: PhiProfile, grid: GridConfig) -> TwoPointDistribution:
    """Construct the per-round randomization law from the profile.

    If phi(0) > 0 the law is the point mass at 0; else if phi(1) <= 0 it
    is the point mass at 1; otherwise a sign change phi(lo) <= 0 < phi(hi)
    across adjacent grid points is located by bisection (the invariant
    phi(lo) <= 0 < phi(hi) is preserved by either half, so the search is
    correct for non-monotone profiles) and the law randomizes between the
    two points with inverse-magnitude weights
    P(lo) = |phi(hi)| / (|phi(lo)| + |phi(hi)|).  A vanishing endpoint
    collapses the support to a single point; both endpoints vanishing
    (unreachable through the bisection invariant) falls back to (1/2, 1/2).
    """
    v = phi.values
    if v.shape[0] != grid.N:
        raise ValueError(f"profile has {v.shape[0]} bins, grid expects {grid.N}")
    T = grid.T
    values = v.tolist()  # python floats; the bisection loop stays scalar
    if values[0] > 0.0:
        return TwoPointDistribution((0,), (1.0,), T)
    if values[-1] <= 0.0:
        return TwoPointDistribution((T,), (1.0,), T)
    lo, hi = 0, T
    N = grid.N
    phi_lo = values[0]
    phi_hi = values[-1]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        val = values[(mid * N) // T] if mid < T else values[N - 1]
        if val <= 0.0:
            lo, phi_lo = mid, val
        else:
            hi, phi_hi = mid, val
    a, b = abs(phi_lo), abs(phi_hi)
    denom = a + b
    if denom == 0.0:
        return TwoPointDistribution((lo, hi), (0.5, 0.5), T)
    p_lo = b / denom
    p_hi = a / denom
    if p_hi == 0.0:
        return TwoPointDistribution((lo,), (1.0,), T)
    if p_lo == 0.0:
        return TwoPointDistribution((hi,), (1.0,), T)
    return TwoPointDistribution((lo, hi), (p_lo, p_hi), T)


def sample_and_round(dist: TwoPointDistribution, grid: GridConfig, rng) -> tuple[float, int, float]:
    """Draw the raw prediction and snap it to its bin's grid point.

    Exactly one uniform variate is consumed per call, point masses
    included, so transcripts stay seed-stable across branch changes.
    Returns (p_tilde, bin, p).
    """
    u = rng.random()
    support = dist.support_idx
    j = support[1] if len(support) == 2 and u >= dist.probs[0] else support[0]
    b = grid.bin_of_index(j)
    return j / grid.T, b, b / grid.N


def _expected_bin_mass(dist: TwoPointDistribution, prop: Property, grid: GridConfig, y: float) -> tuple[int, list[float]]:
    """Expected residual mass e_i = E_{p ~ dist}[1[p in I_i] ident(p, y)] on the support bins.

    Returns the first support bin lo and e over bins lo..hi; e is zero on
    every other bin.
    """
    bins = [grid.bin_of_index(j) for j in dist.support_idx]
    lo = bins[0]
    e = [0.0] * (bins[-1] - lo + 1)
    for b, j, pr in zip(bins, dist.support_idx, dist.probs):
        e[b - lo] += pr * eval_identification(prop, j / grid.T, y)
    return lo, e


def gains_inefficient(
    dist: TwoPointDistribution,
    prop: Property,
    cls: HypothesisClass,
    x: Context,
    y: float,
    grid: GridConfig,
    fvals=None,
) -> np.ndarray:
    """Expected gains over (bin, sign, member): s * f(x) * e_bin.

    ``fvals``, when given, are the member values f(x) already computed.
    """
    if cls.variant != "finite":
        raise ValueError("the enumerating engine needs a finite class")
    lo, e = _expected_bin_mass(dist, prop, grid, y)
    if fvals is None:
        fvals = cls.member_values(x)
    g = np.zeros((grid.N, 2, cls.size))
    g[lo - 1 : lo - 1 + len(e)] = np.multiply.outer([(m, -m) for m in e], fvals)
    return g.reshape(-1)


def gains_efficient(
    dist: TwoPointDistribution,
    prop: Property,
    q_values: np.ndarray,
    y: float,
    grid: GridConfig,
) -> np.ndarray:
    """Expected gains over (bin, sign): s * q_{bin,s}(x) * e_bin."""
    q = np.asarray(q_values, dtype=np.float64)
    if q.size != 2 * grid.N:
        raise ValueError("need 2N learner values")
    lo, e = _expected_bin_mass(dist, prop, grid, y)
    g = np.zeros(2 * grid.N)
    for i, mass in enumerate(e, start=lo - 1):
        g[2 * i] = q[2 * i] * mass
        g[2 * i + 1] = -(q[2 * i + 1] * mass)
    return g


@dataclass
class RoundRecord:
    """Full record of one executed round.

    ``phi_lo`` and ``phi_hi`` are the profile at the bins of the lowest
    and highest support points: all of phi that the round's audit reads.
    """

    t: int
    x: Context
    p_tilde: float
    bin: int
    p: float
    y: float
    distribution: TwoPointDistribution
    phi_lo: float
    phi_hi: float


class _ForecasterBase:
    """Shared round bookkeeping; concrete engines fill in the expert layout.

    ``phi`` holds the latest round's profile values; no history is kept.
    """

    def __init__(self, grid: GridConfig, prop: Property, rng) -> None:
        self.grid = grid
        self.prop = prop
        self.rng = rng
        self.records: list[RoundRecord] = []
        self.phi: np.ndarray | None = None

    @property
    def round(self) -> int:
        return len(self.records)

    def _check_capacity(self) -> None:
        if self.round >= self.grid.T:
            raise RuntimeError(f"horizon of {self.grid.T} rounds already exhausted")

    def _finish_round(self, x: Context, phi: PhiProfile, dist: TwoPointDistribution, y: float):
        """Record the round; returns it with the 1-based bins of its lowest and highest support points."""
        p_tilde, b, p = self._pending
        y = float(y)
        if not 0.0 <= y <= 1.0:
            raise ValueError(f"label must lie in [0, 1], got {y}")
        grid = self.grid
        lo, hi = grid.bin_of_index(dist.support_idx[0]), grid.bin_of_index(dist.support_idx[-1])
        values = self.phi = phi.values
        rec = RoundRecord(self.round + 1, x, p_tilde, b, p, y, dist, values[lo - 1], values[hi - 1])
        self.records.append(rec)
        return rec, lo, hi

    def _feed_experts(self, gains: np.ndarray, lo: int, hi: int) -> None:
        """Update only the experts of the support bins lo..hi, the rest having gained 0."""
        per_bin = gains.size // self.grid.N  # 2 |F| experts per bin
        expert_update(self.experts, gains[per_bin * (lo - 1) : per_bin * hi], per_bin * (lo - 1))


class EfficientForecaster(_ForecasterBase):
    """Oracle-efficient engine: 2N experts, one agnostic learner per (bin, sign).

    Each round the learners' current predictors are read without advancing
    them; after the label arrives, only the two learners of the hit bin
    observe (with outcomes +ident(p, y) and -ident(p, y) respectively).
    """

    def __init__(self, grid: GridConfig, prop: Property, cls: HypothesisClass, rng) -> None:
        super().__init__(grid, prop, rng)
        self.cls = cls
        rows = 2 * grid.N
        if cls.variant == "finite":
            self.bank = FiniteLearnerBank(cls, rows)
        else:
            self.bank = LinearLearnerBank(cls.dim, rows)
        self.experts = expert_init(rows, grid.T)

    def step(self, x: Context, outcome_fn) -> RoundRecord:
        """Run one round; ``outcome_fn()`` reveals the label after sampling."""
        self._check_capacity()
        grid = self.grid
        weights = expert_weights(self.experts)
        h = self.cls.member_values(x) if self.cls.variant == "finite" else x.features
        q = self.bank.predict_all(h)
        phi = phi_from_learners(weights, q)
        dist = solve_distribution(phi, grid)
        self._pending = sample_and_round(dist, grid, self.rng)
        y = outcome_fn()
        rec, lo, hi = self._finish_round(x, phi, dist, y)
        self._feed_experts(gains_efficient(dist, self.prop, q, rec.y, grid), lo, hi)
        outcome = eval_identification(self.prop, rec.p, rec.y)
        self.bank.observe_pair(2 * (rec.bin - 1), h, outcome)
        return rec


class InefficientForecaster(_ForecasterBase):
    """Reference engine that enumerates a finite class: 2N|F| experts."""

    def __init__(self, grid: GridConfig, prop: Property, cls: HypothesisClass, rng) -> None:
        if cls.variant != "finite":
            raise ValueError("the enumerating engine needs a finite class")
        super().__init__(grid, prop, rng)
        self.cls = cls
        self.experts = expert_init(2 * grid.N * cls.size, grid.T)

    def step(self, x: Context, outcome_fn) -> RoundRecord:
        """Run one round; ``outcome_fn()`` reveals the label after sampling."""
        self._check_capacity()
        grid = self.grid
        weights = expert_weights(self.experts)
        fvals = self.cls.member_values(x)
        phi = phi_from_class(weights, self.cls, x, fvals)
        dist = solve_distribution(phi, grid)
        self._pending = sample_and_round(dist, grid, self.rng)
        y = outcome_fn()
        rec, lo, hi = self._finish_round(x, phi, dist, y)
        self._feed_experts(gains_inefficient(dist, self.prop, self.cls, x, rec.y, grid, fvals), lo, hi)
        return rec

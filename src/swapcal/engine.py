"""The two forecasting engines and the round they share.

Both engines run one round, over a table of expert values.  Each expert
k stands for a (bin, sign s_k) pair and has a value h_k(x) in [-1, 1] on
the round's context.  The round:

  * reads the expert weights w and builds the piecewise-constant profile
    phi_i = sum_{k in bin i} s_k w_k h_k(x) over the N prediction bins;
  * picks a randomization law supported on at most two adjacent points of
    the 1/T grid that makes the weighted audit phi * residual
    unprofitable for every outcome law;
  * samples a raw prediction, snaps it to its bin's grid point and
    observes the label;
  * records the round and feeds each expert its expected gain
    g_k = s_k h_k(x) e_bin(k), where e_i is the expected identification
    residual that the law puts in bin i.

e_i is zero outside the at most two bins the law can land in, so only
their experts gain, and the expert layer is fed that window alone.  The
engines differ only in the values h: the oracle-efficient engine's are
its learners' current predictions, one learner per (bin, sign), which it
then feeds the hit bin's outcomes; the enumerating engine's are the
members' values f(x), one expert per (bin, sign, member).

The value table h is (N, 2M) in expert order: row i holds the M + experts
of bin i, then its M - experts.  Expert (bin i, sign s, member m) is
k = (2 * (i - 1) + s) * M + m with s = 0 for +1 and s = 1 for -1; M = 1
for the oracle-efficient engine and M = |F| for the enumerating one.  So
the experts of bins lo..hi are the one range [2 * (lo - 1) * M, 2 * hi * M).

Each round appends a ``RoundRecord`` holding, besides the prediction and
label, the randomization law and phi at the bins of its support points:
all of phi that the round's audit reads.  The engine keeps only the latest
full profile (``phi``), no history.

Bins are I_i = [(i-1)/N, i/N) for i < N and I_N = [(N-1)/N, 1]; the
prediction point of bin i is z_i = i/N.  Raw predictions live on the grid
{0, 1/T, ..., 1} and are tracked as integer indices so bin membership is
exact.
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
        top = float(np.maximum.reduce(np.abs(v)))
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


def _member_index(bins: int, member_count: int) -> np.ndarray:
    """Index that gathers the member values f(x) into the enumerating engine's (N, 2|F|) value table."""
    return np.tile(np.arange(member_count), (bins, 2))


def phi_from_learners(weights: np.ndarray, h: np.ndarray) -> PhiProfile:
    """Profile over the expert-value table h: v_i = sum_m w_{i,+,m} h_{i,+,m} - sum_m w_{i,-,m} h_{i,-,m}.

    ``h`` is (N, 2M) in expert order, row i holding the M + experts of
    bin i and then its M - experts; ``weights`` holds the N * 2M expert
    weights in the same order.  Each sign is summed on its own, so a bin
    whose two halves are equal gets exactly 0.
    """
    bins, width = h.shape
    if weights.shape != (bins * width,) or width % 2:
        raise ValueError("need an (N, 2M) value table and N * 2M weights")
    halves = weights.reshape(bins, width) * h
    if width > 2:  # sum each sign's members; with one member the reduction is a copy, skipped
        halves = np.add.reduce(halves.reshape(bins, 2, width // 2), axis=2)
    return PhiProfile(halves[:, 0] - halves[:, 1])


def phi_from_class(weights: np.ndarray, cls: HypothesisClass, x: Context, fvals=None) -> PhiProfile:
    """Profile of the enumerating engine: ``phi_from_learners`` over the member values f(x).

    ``fvals``, when given, are the member values f(x) already computed.
    """
    if cls.variant != "finite":
        raise ValueError("the enumerating engine needs a finite class")
    w = np.asarray(weights, dtype=np.float64)
    fvals = cls.member_values(x) if fvals is None else np.asarray(fvals, dtype=np.float64)
    return phi_from_learners(w, fvals[_member_index(w.size // (2 * cls.size), cls.size)])


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


def gains_efficient(
    dist: TwoPointDistribution,
    prop: Property,
    h: np.ndarray,
    y: float,
    grid: GridConfig,
) -> tuple[int, np.ndarray]:
    """Expected gains s_k h_k(x) e_bin(k) of the support bins' experts, as (first expert, window).

    e_i = E_{p ~ dist}[1[p in I_i] ident(p, y)] is zero outside the
    support bins lo..hi, and so is every other expert's gain.  The window
    holds the gains of experts [first, first + window.size) in the
    expert order of the (N, 2M) value table h: + experts gain h * e_i and
    - experts -(h * e_i).
    """
    if h.ndim != 2 or h.shape[0] != grid.N:
        raise ValueError(f"need an (N, 2M) value table with N={grid.N}, got shape {h.shape}")
    bins = [grid.bin_of_index(j) for j in dist.support_idx]
    lo = bins[0]
    e = [0.0] * (bins[-1] - lo + 1)
    for b, j, pr in zip(bins, dist.support_idx, dist.probs):
        e[b - lo] += pr * eval_identification(prop, j / grid.T, y)
    rows = h[lo - 1 : bins[-1]].reshape(-1, 2, h.shape[1] // 2)  # (bin, sign, member)
    window = rows * np.array([(m, -m) for m in e])[:, :, None]
    return (lo - 1) * h.shape[1], window.ravel()


def gains_inefficient(
    dist: TwoPointDistribution,
    prop: Property,
    cls: HypothesisClass,
    x: Context,
    y: float,
    grid: GridConfig,
    fvals=None,
) -> tuple[int, np.ndarray]:
    """Expected gains of the enumerating engine: ``gains_efficient`` over the member values f(x).

    ``fvals``, when given, are the member values f(x) already computed.
    """
    if cls.variant != "finite":
        raise ValueError("the enumerating engine needs a finite class")
    fvals = cls.member_values(x) if fvals is None else np.asarray(fvals, dtype=np.float64)
    return gains_efficient(dist, prop, fvals[_member_index(grid.N, cls.size)], y, grid)


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
    """The round both engines run; each engine supplies its expert-value table.

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

    def _round(self, x: Context, h: np.ndarray, outcome_fn) -> RoundRecord:
        """Play one round over the (N, 2M) expert-value table h and feed the experts its gains."""
        grid = self.grid
        t = len(self.records)
        if t >= grid.T:
            raise RuntimeError(f"horizon of {grid.T} rounds already exhausted")
        phi = phi_from_learners(expert_weights(self.experts), h)
        dist = solve_distribution(phi, grid)
        p_tilde, b, p = sample_and_round(dist, grid, self.rng)
        y = float(outcome_fn())
        if not 0.0 <= y <= 1.0:
            raise ValueError(f"label must lie in [0, 1], got {y}")
        values = self.phi = phi.values
        support = dist.support_idx
        phi_lo = values[grid.bin_of_index(support[0]) - 1]
        phi_hi = values[grid.bin_of_index(support[-1]) - 1]
        rec = RoundRecord(t + 1, x, p_tilde, b, p, y, dist, phi_lo, phi_hi)
        self.records.append(rec)
        start, window = gains_efficient(dist, self.prop, h, y, grid)
        expert_update(self.experts, window, start)
        return rec


class EfficientForecaster(_ForecasterBase):
    """Oracle-efficient engine: 2N experts, one agnostic learner per (bin, sign).

    The experts' values are the learners' current predictions (M = 1),
    read without advancing them; after the label arrives, only the two
    learners of the hit bin observe (with outcomes +ident(p, y) and
    -ident(p, y) respectively).
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
        h = self.cls.member_values(x) if self.cls.variant == "finite" else x.features
        rec = self._round(x, self.bank.predict_all(h).reshape(-1, 2), outcome_fn)
        self.bank.observe_pair(2 * (rec.bin - 1), h, eval_identification(self.prop, rec.p, rec.y))
        return rec


class InefficientForecaster(_ForecasterBase):
    """Reference engine that enumerates a finite class: 2N|F| experts valued f(x) (M = |F|)."""

    def __init__(self, grid: GridConfig, prop: Property, cls: HypothesisClass, rng) -> None:
        if cls.variant != "finite":
            raise ValueError("the enumerating engine needs a finite class")
        super().__init__(grid, prop, rng)
        self.cls = cls
        self.experts = expert_init(2 * grid.N * cls.size, grid.T)
        self._table_index = _member_index(grid.N, cls.size)

    def step(self, x: Context, outcome_fn) -> RoundRecord:
        """Run one round; ``outcome_fn()`` reveals the label after sampling."""
        return self._round(x, self.cls.member_values(x)[self._table_index], outcome_fn)

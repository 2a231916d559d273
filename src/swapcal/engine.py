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

The expert weights are laid out as (N, 2, M): bin i, sign s (0 for +1,
1 for -1), member m, so expert (bin i, sign s, member m) is
k = (2 * (i - 1) + s) * M + m, and the experts of bins lo..hi are the one
range [2 * (lo - 1) * M, 2 * hi * M).  The values h broadcast against that
layout: the oracle-efficient engine passes its learners' predictions as an
(N, 2, 1) table (M = 1); the enumerating engine passes the member values
f(x), shape (M,) with M = |F|, which every bin and sign share.

A round builds no per-round object.  Its profile is a plain (N,) array,
its law the tuple (j_lo, j_hi, p_lo, p_hi) that ``solve_distribution``
checks and returns, and its outcome is written into the engine's
``RoundColumns``: the columns of ``metrics.Transcript``, preallocated for
the horizon, which hold phi at the bins of the support points (all of phi
that the round's audit reads).  These columns are the one record of a
round: the engine keeps no full profile and no other history.

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
_SIGNS = np.array([[1.0], [-1.0]])  # the + and - experts of a bin, against its member axis

# the columns a round writes, named as the fields of metrics.Transcript
ROUND_FIELDS = ("p_tilde", "bins", "p", "y", "j_lo", "j_hi", "prob_lo", "phi_lo", "phi_hi")


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


def phi_from_learners(weights: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Profile v_i = sum_m w_{i,+,m} h_{i,+,m} - sum_m w_{i,-,m} h_{i,-,m}, checked to lie in [-1, 1].

    ``weights`` holds the N * 2M expert weights in expert order, read as
    (N, 2, M); ``h`` holds the expert values, an (N, 2, M) table or the M
    member values that every bin and sign share.  Each sign is summed on
    its own, so a bin whose two halves are equal gets exactly 0.
    """
    M = h.shape[-1]
    w = weights.reshape(-1, 2, M)
    if h.ndim != 1 and h.shape != w.shape:
        raise ValueError(f"need an (N, 2, M) value table for {weights.size} weights, got shape {h.shape}")
    halves = w * h
    if M > 1:  # sum each sign's members; one member needs no sum
        halves = np.add.reduce(halves, axis=2, keepdims=True)
    values = halves[:, 0, 0] - halves[:, 1, 0]
    if not np.maximum.reduce(np.abs(values)) <= 1.0 + _PHI_TOL:  # NaN fails the comparison too
        raise ValueError("phi values must lie in [-1, 1]")
    return values


def phi_from_class(weights: np.ndarray, cls: HypothesisClass, x: Context, fvals=None) -> np.ndarray:
    """Profile of the enumerating engine: ``phi_from_learners`` over the member values f(x).

    ``fvals``, when given, are the member values f(x) already computed.
    """
    if cls.variant != "finite":
        raise ValueError("the enumerating engine needs a finite class")
    fvals = cls.member_values(x) if fvals is None else np.asarray(fvals, dtype=np.float64)
    return phi_from_learners(np.asarray(weights, dtype=np.float64), fvals)


def solve_distribution(phi: np.ndarray, grid: GridConfig) -> tuple[int, int, float, float]:
    """Construct the per-round randomization law from the profile values phi.

    The law is returned as (j_lo, j_hi, p_lo, p_hi): probability p_lo on
    the grid point j_lo/T and p_hi on j_hi/T, with j_hi = j_lo and
    (p_lo, p_hi) = (1, 0) for a point mass.

    If phi(0) > 0 the law is the point mass at 0; else if phi(1) <= 0 it
    is the point mass at 1; otherwise a sign change phi(lo) <= 0 < phi(hi)
    across adjacent grid points is located by bisection (the invariant
    phi(lo) <= 0 < phi(hi) is preserved by either half, so the search is
    correct for non-monotone profiles).  Phi is constant on a bin, so the
    search stops once lo and hi sit in adjacent bins and takes the two
    grid points at their boundary, the pair a search down to adjacent
    points would reach.  The law randomizes between the two points with
    inverse-magnitude weights
    P(lo) = |phi(hi)| / (|phi(lo)| + |phi(hi)|).  A vanishing endpoint
    collapses the support to a single point.  The law is checked before
    it is returned: support on the grid and adjacent, probabilities
    positive and summing to 1 within 1e-12; a NaN fails the check too.
    """
    N, T = grid.N, grid.T
    if phi.shape != (N,):
        raise ValueError(f"profile has shape {phi.shape}, grid expects {N} bins")
    values = phi.tolist()  # python floats; the bisection loop stays scalar
    if values[0] > 0.0:
        lo = hi = 0
        p_lo, p_hi = 1.0, 0.0
    elif values[-1] <= 0.0:
        lo = hi = T
        p_lo, p_hi = 1.0, 0.0
    else:
        lo, hi = 0, T
        b_lo, b_hi = 0, N - 1
        phi_lo = values[0]
        phi_hi = values[-1]
        while b_hi - b_lo > 1:
            mid = (lo + hi) // 2  # a bin lies strictly between, so lo < mid < hi <= T
            k = (mid * N) // T
            val = values[k]
            if val <= 0.0:
                lo, b_lo, phi_lo = mid, k, val
            else:
                hi, b_hi, phi_hi = mid, k, val
        hi = -(-b_hi * T // N)  # the first grid point of bin b_hi
        lo = hi - 1
        a, b = abs(phi_lo), abs(phi_hi)
        denom = a + b
        p_lo, p_hi = b / denom, a / denom
        if p_hi == 0.0:
            hi, p_lo, p_hi = lo, 1.0, 0.0
        elif p_lo == 0.0:
            lo, p_lo, p_hi = hi, 1.0, 0.0
    support_ok = 0 <= lo and hi <= T and (hi == lo + 1 and p_hi > 0.0 if hi != lo else p_hi == 0.0)
    if not (support_ok and p_lo > 0.0 and -_PROB_TOL <= p_lo + p_hi - 1.0 <= _PROB_TOL):  # NaN fails too
        raise ValueError(f"invalid randomization law {(lo, hi, p_lo, p_hi)} on the 1/{T} grid")
    return lo, hi, p_lo, p_hi


def sample_and_round(law: tuple[int, int, float, float], grid: GridConfig, rng) -> tuple[float, int, float]:
    """Draw the raw prediction from a law (j_lo, j_hi, p_lo, p_hi) and snap it to its bin's grid point.

    Exactly one uniform variate is consumed per call, point masses
    included, so transcripts stay seed-stable across branch changes.
    Returns (p_tilde, bin, p).
    """
    lo, hi, p_lo, _ = law
    j = hi if rng.random() >= p_lo else lo
    N, T = grid.N, grid.T
    b = N if j >= T else j * N // T + 1
    return j / T, b, b / N


def gains_efficient(
    law: tuple[int, int, float, float],
    prop: Property,
    h: np.ndarray,
    y: float,
    grid: GridConfig,
) -> tuple[int, np.ndarray]:
    """Expected gains s_k h_k(x) e_bin(k) of the support bins' experts, as (first expert, window).

    e_i = E_{p ~ law}[1[p in I_i] ident(p, y)] is zero outside the
    support bins lo..hi, and so is every other expert's gain.  ``law`` is
    (j_lo, j_hi, p_lo, p_hi) as ``solve_distribution`` returns it and
    ``h`` the expert values as ``phi_from_learners`` takes them.  The
    window holds the gains of experts [first, first + window.size) in
    expert order: + experts gain h * e_i and - experts -(h * e_i).
    """
    lo, hi, p_lo, p_hi = law
    N, T = grid.N, grid.T
    if h.ndim != 1 and h.shape[:2] != (N, 2):
        raise ValueError(f"need an (N, 2, M) value table with N={N}, or M member values; got shape {h.shape}")
    bin_lo = N if lo >= T else lo * N // T + 1
    e = p_lo * eval_identification(prop, lo / T, y)
    bin_hi = bin_lo
    if hi == lo:
        factor = e * _SIGNS
    else:
        bin_hi = N if hi >= T else hi * N // T + 1
        e_hi = p_hi * eval_identification(prop, hi / T, y)
        factor = (e + e_hi) * _SIGNS if bin_hi == bin_lo else np.multiply.outer((e, e_hi), _SIGNS)
    rows = h if h.ndim == 1 else h[bin_lo - 1 : bin_hi]  # (bin, sign, member), or the shared member values
    return (bin_lo - 1) * 2 * h.shape[-1], (rows * factor).ravel()


def gains_inefficient(
    law: tuple[int, int, float, float],
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
    return gains_efficient(law, prop, fvals, y, grid)


class RoundColumns:
    """The rounds an engine has played, one column per field of ``metrics.Transcript`` (``ROUND_FIELDS``).

    The columns are preallocated for the horizon; the context rows
    (``features``) are allocated by the first round, which fixes their
    width.  The first ``count`` entries of each are filled, and
    ``columns()`` returns that part by field name.
    """

    def __init__(self, horizon: int) -> None:
        self.horizon = horizon
        self.count = 0
        self.p_tilde, self.p, self.y, self.prob_lo, self.phi_lo, self.phi_hi = np.empty((6, horizon))
        self.bins, self.j_lo, self.j_hi = np.empty((3, horizon), dtype=np.int64)
        self.features: np.ndarray | None = None

    def append(
        self, x: Context, p_tilde: float, b: int, p: float, y: float, law: tuple[int, int, float, float], phi: np.ndarray
    ) -> None:
        """Write one round: its context, sample, label, law and phi at the bins of the support points."""
        t = self.count
        T = self.horizon
        if self.features is None:
            self.features = np.empty((T, x.features.shape[0]))
        self.features[t] = x.features
        lo, hi, p_lo, _ = law
        N = phi.shape[0]
        self.p_tilde[t] = p_tilde
        self.bins[t] = b
        self.p[t] = p
        self.y[t] = y
        self.j_lo[t] = lo
        self.j_hi[t] = hi
        self.prob_lo[t] = p_lo
        self.phi_lo[t] = phi[N - 1 if lo >= T else lo * N // T]
        self.phi_hi[t] = phi[N - 1 if hi >= T else hi * N // T]
        self.count = t + 1

    def __len__(self) -> int:
        return self.count

    def columns(self) -> dict[str, np.ndarray]:
        n = self.count
        return {name: getattr(self, name)[:n] for name in ROUND_FIELDS}


class _ForecasterBase:
    """The round both engines run; each engine supplies its expert values.

    ``records`` holds the rounds played, as columns.  No other history
    is kept.
    """

    def __init__(self, grid: GridConfig, prop: Property, rng) -> None:
        self.grid = grid
        self.prop = prop
        self.rng = rng
        self.records = RoundColumns(grid.T)

    @property
    def round(self) -> int:
        return self.records.count

    def _round(self, x: Context, h: np.ndarray, outcome_fn) -> tuple[int, float, float]:
        """Play one round over the expert values h, record it and feed the experts its gains; returns (bin, p, y)."""
        grid = self.grid
        if self.records.count >= grid.T:
            raise RuntimeError(f"horizon of {grid.T} rounds already exhausted")
        phi = phi_from_learners(expert_weights(self.experts), h)
        law = solve_distribution(phi, grid)
        p_tilde, b, p = sample_and_round(law, grid, self.rng)
        y = float(outcome_fn())
        if not 0.0 <= y <= 1.0:
            raise ValueError(f"label must lie in [0, 1], got {y}")
        self.records.append(x, p_tilde, b, p, y, law, phi)
        start, window = gains_efficient(law, self.prop, h, y, grid)
        expert_update(self.experts, window, start)
        return b, p, y


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

    def step(self, x: Context, outcome_fn) -> tuple[float, float]:
        """Run one round; ``outcome_fn()`` reveals the label after sampling.  Returns the forecast p and the label y."""
        h = self.cls.member_values(x) if self.cls.variant == "finite" else x.features
        b, p, y = self._round(x, self.bank.predict_all(h).reshape(-1, 2, 1), outcome_fn)
        self.bank.observe_pair(2 * (b - 1), h, eval_identification(self.prop, p, y))
        return p, y


class InefficientForecaster(_ForecasterBase):
    """Reference engine that enumerates a finite class: 2N|F| experts valued f(x) (M = |F|)."""

    def __init__(self, grid: GridConfig, prop: Property, cls: HypothesisClass, rng) -> None:
        if cls.variant != "finite":
            raise ValueError("the enumerating engine needs a finite class")
        super().__init__(grid, prop, rng)
        self.cls = cls
        self.experts = expert_init(2 * grid.N * cls.size, grid.T)

    def step(self, x: Context, outcome_fn) -> tuple[float, float]:
        """Run one round; ``outcome_fn()`` reveals the label after sampling.  Returns the forecast p and the label y."""
        _, p, y = self._round(x, self.cls.member_values(x), outcome_fn)
        return p, y

"""Run transcripts and their exact calibration, multicalibration and swap-multicalibration errors.

A ``Transcript`` holds the columns of transcript.csv (see
``TRANSCRIPT_COLUMNS``) plus the context rows, so a run in memory and a
run read back from disk are the same record.

All three errors read off a transcript through per-bin aggregates.  With n_i the
number of rounds predicted in bin i and, for each test function f,
S_{i,f} = sum over those rounds of f(x_t) * ident(p_t, y_t):

    mcal_r  = sup_f sum_i n_i * |S_{i,f} / n_i| ** r
    smcal_r = sum_i n_i * (sup_f |S_{i,f}| / n_i) ** r
    cal_r   = mcal_r for the singleton class {1}

Empty bins contribute zero.  For the linear class the inner sums collapse
to moment vectors v_i = sum 1[bin = i] * x_t * ident_t: the per-bin
supremum is ||v_i||_2 exactly, so smcal is always exact.  The mcal
supremum over the shared direction theta is the top eigenvalue of
sum_i v_i v_i^T / n_i when r = 2 (computed by power iteration); for any
other r it has no closed form and is reported as a certified lower bound
from projected gradient ascent with deterministic restarts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import ROUND_FIELDS, GridConfig, RoundColumns
from .hypotheses import HypothesisClass, sup_correlation
from .properties import Property, identification_values

POWER_ITERATION_TOL = 1e-10
_ASCENT_RESTARTS = 32
_ASCENT_STEPS = 200


# transcript.csv's columns after t: the engines' round columns (ROUND_FIELDS), each held in the
# Transcript field of its name; "bin" is held in ``bins``
TRANSCRIPT_COLUMNS = tuple("bin" if name == "bins" else name for name in ROUND_FIELDS)


@dataclass
class Transcript:
    """Column-oriented record of a full run: transcript.csv's columns plus the contexts.

    The support of round t is the grid points j_lo[t]/T <= j_hi[t]/T
    (equal on a one-point support), with probability prob_lo[t] on the
    lower one; phi_lo and phi_hi are the hedging profile at their bins.
    """

    grid: GridConfig
    p_tilde: np.ndarray
    bins: np.ndarray
    p: np.ndarray
    y: np.ndarray
    features: np.ndarray   # (T, d) context rows
    j_lo: np.ndarray       # int64 1/T-grid indices
    j_hi: np.ndarray
    prob_lo: np.ndarray
    phi_lo: np.ndarray
    phi_hi: np.ndarray

    def __post_init__(self) -> None:
        T = self.p.shape[0]
        if any(c.shape[0] != T for c in self.columns().values()) or self.features.shape[0] != T:
            raise ValueError("transcript columns must share one length")
        if T > self.grid.T:
            raise ValueError("transcript longer than its grid horizon")

    def __len__(self) -> int:
        return self.p.shape[0]

    @property
    def support_lo(self) -> np.ndarray:
        return self.j_lo / self.grid.T

    @property
    def support_hi(self) -> np.ndarray:
        return self.j_hi / self.grid.T

    def columns(self) -> dict[str, np.ndarray]:
        """transcript.csv's columns after t, by name, in file order."""
        return {name: getattr(self, field) for name, field in zip(TRANSCRIPT_COLUMNS, ROUND_FIELDS)}

    @classmethod
    def from_columns(cls, grid: GridConfig, columns: dict[str, np.ndarray], features: np.ndarray) -> "Transcript":
        return cls(grid=grid, features=features, **{field: columns[name] for name, field in zip(TRANSCRIPT_COLUMNS, ROUND_FIELDS)})

    @classmethod
    def from_records(cls, grid: GridConfig, records: RoundColumns) -> "Transcript":
        """The transcript of an engine's ``records``: its columns, taken as they are."""
        if not len(records):
            raise ValueError("empty transcript")
        return cls(grid=grid, features=records.features[: len(records)], **records.columns())


@dataclass
class BinAggregate:
    """Exact inner sums of the error definitions, one row per bin."""

    grid: GridConfig
    cls: HypothesisClass
    counts: np.ndarray            # (N,) rounds per bin, zeros kept
    member_sums: np.ndarray | None  # (N, |F|) for finite classes
    moment_vectors: np.ndarray | None  # (N, d) for the linear class


def aggregate(transcript: Transcript, prop: Property, cls: HypothesisClass) -> BinAggregate:
    """Single-pass accumulation of the per-bin sums."""
    if len(transcript) == 0:
        raise ValueError("empty transcript")
    N = transcript.grid.N
    resid = identification_values(prop, transcript.p, transcript.y)
    rows = transcript.bins - 1
    counts = np.bincount(rows, minlength=N).astype(np.int64)
    if cls.variant == "finite":
        table = cls.member_table(transcript.features)   # (T, |F|)
        sums = np.zeros((N, cls.size))
        np.add.at(sums, rows, table * resid[:, None])
        return BinAggregate(transcript.grid, cls, counts, sums, None)
    vectors = np.zeros((N, cls.dim))
    np.add.at(vectors, rows, transcript.features * resid[:, None])
    return BinAggregate(transcript.grid, cls, counts, None, vectors)


def check_order(r: float) -> float:
    r = float(r)
    if not (math.isfinite(r) and r >= 1.0):
        raise ValueError(f"the error order r must be a finite number at least 1, got {r}")
    return r


def smcal(agg: BinAggregate, r: float) -> float:
    """Swap-multicalibration error: per-bin suprema, then the weighted sum."""
    r = check_order(r)
    total = 0.0
    for i in range(agg.grid.N):
        n = int(agg.counts[i])
        if n == 0:
            continue
        row = agg.member_sums[i] if agg.member_sums is not None else agg.moment_vectors[i]
        value, _ = sup_correlation(agg.cls, row)
        total += n * (value / n) ** r
    return total


def _power_iteration(matrix: np.ndarray, tol: float = POWER_ITERATION_TOL, max_iter: int = 20000) -> float:
    """Top eigenvalue of a PSD matrix; deterministic start vector."""
    d = matrix.shape[0]
    vec = np.full(d, 1.0 / math.sqrt(d))
    vec += 1e-3 * np.cos(np.arange(d))  # break symmetry against unlucky starts
    vec /= np.linalg.norm(vec)
    last = 0.0
    for _ in range(max_iter):
        nxt = matrix @ vec
        norm = float(np.linalg.norm(nxt))
        if norm == 0.0:
            return 0.0
        vec = nxt / norm
        lam = float(vec @ matrix @ vec)
        if abs(lam - last) <= tol * max(1.0, abs(lam)):
            return lam
        last = lam
    return last


def _ascend_sphere(vectors: np.ndarray, scales: np.ndarray, r: float) -> float:
    """Lower-bound sup_{||theta||=1} sum_i scales_i * |<theta, v_i>| ** r.

    Projected gradient ascent from 32 deterministic starts, run together
    as the rows of one (32, d) iterate.  A start whose gradient vanishes
    stops there and keeps its point, as it would alone.
    """
    d = vectors.shape[1]
    theta = np.array([np.random.default_rng(restart).standard_normal(d) for restart in range(_ASCENT_RESTARTS)])
    theta /= np.linalg.norm(theta, axis=1, keepdims=True)
    stopped = np.zeros(_ASCENT_RESTARTS, dtype=bool)
    for step in range(_ASCENT_STEPS):
        proj = theta @ vectors.T
        grad = (scales * r * np.abs(proj) ** (r - 1.0) * np.sign(proj)) @ vectors
        gnorm = np.linalg.norm(grad, axis=1, keepdims=True)
        stopped |= gnorm[:, 0] == 0.0
        if stopped.all():
            break
        moved = theta + (0.5 / (1.0 + step) ** 0.5) * grad / np.where(stopped[:, None], 1.0, gnorm)
        moved /= np.linalg.norm(moved, axis=1, keepdims=True)
        theta = np.where(stopped[:, None], theta, moved)
    return float((np.abs(theta @ vectors.T) ** r @ scales).max())


def mcal(agg: BinAggregate, r: float) -> float:
    """Multicalibration error: one test function shared across all bins.

    Exact for finite classes (scan) and for the linear class at r = 2
    (top-eigenvalue form).  For the linear class at any other r the
    returned value is a certified lower bound; see ``mcal_is_exact``.
    """
    r = check_order(r)
    nonzero = agg.counts > 0
    if agg.member_sums is not None:
        n = agg.counts[nonzero].astype(np.float64)
        sums = agg.member_sums[nonzero]
        per_member = (n[:, None] ** (1.0 - r) * np.abs(sums) ** r).sum(axis=0)
        return float(per_member.max())
    n = agg.counts[nonzero].astype(np.float64)
    vectors = agg.moment_vectors[nonzero]
    if vectors.shape[0] == 0:
        return 0.0
    if r == 2.0:
        matrix = (vectors / n[:, None]).T @ vectors
        return _power_iteration(matrix)
    return _ascend_sphere(vectors, n ** (1.0 - r), r)


def mcal_is_exact(cls: HypothesisClass, r: float) -> bool:
    """Whether mcal is exact (vs a certified lower bound) for this class/r."""
    return cls.variant == "finite" or float(r) == 2.0


def cal(transcript: Transcript, prop: Property, r: float) -> float:
    """Plain calibration error: multicalibration against the class {1}."""
    return mcal(aggregate(transcript, prop, HypothesisClass.singleton()), r)

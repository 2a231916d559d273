"""Bounded test functions and the hypothesis classes built from them.

A hypothesis class is either a finite list of test functions mapping
unit-ball contexts into [-1, 1], or the unit ball of linear functionals
(never materialized).  The one nontrivial operation is the per-bin
supremum correlation: given the accumulated sums of f(x) * residual over a
bin, find sup_f |sum_f| and a witness.  For the finite class that is a
scan; for the linear class the supremum over the unit ball of theta ->
<theta, v> is the Euclidean norm of the accumulated moment vector v,
attained at theta = v / ||v||.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

NORM_TOL = 1e-9  # slack on the squared norm of a context


class Context:
    """A feature vector with Euclidean norm at most 1."""

    __slots__ = ("features",)

    def __init__(self, features) -> None:
        x = np.asarray(features, dtype=np.float64)
        if x.ndim != 1:
            raise ValueError("context features must be a 1-d vector")
        sq = float(x @ x)
        if not sq <= 1.0 + NORM_TOL:  # catches non-finite entries too
            raise ValueError("context features must be finite with norm at most 1")
        self.features = x

    @property
    def dim(self) -> int:
        return self.features.shape[0]

    def __repr__(self) -> str:
        return f"Context({self.features.tolist()})"


class TestFunction:
    """Base class; concrete kinds output values in [-1, 1]."""

    def __call__(self, x: Context) -> float:
        raise NotImplementedError

    def batch(self, features: np.ndarray) -> np.ndarray:
        """Evaluate on an (n, d) array of context rows."""
        raise NotImplementedError


class ConstantOne(TestFunction):
    def __call__(self, x: Context) -> float:
        return 1.0

    def batch(self, features: np.ndarray) -> np.ndarray:
        return np.ones(features.shape[0])

    def __repr__(self) -> str:
        return "ConstantOne()"


class GroupIndicator(TestFunction):
    """polarity * 1[x[coordinate] >= threshold], output in {0, polarity}."""

    def __init__(self, coordinate: int, threshold: float, polarity: int = 1) -> None:
        if polarity not in (1, -1):
            raise ValueError("polarity must be +1 or -1")
        self.coordinate = int(coordinate)
        self.threshold = float(threshold)
        self.polarity = int(polarity)

    def __call__(self, x: Context) -> float:
        if not 0 <= self.coordinate < x.dim:
            raise ValueError(f"coordinate {self.coordinate} out of range for dim {x.dim}")
        return self.polarity * float(x.features[self.coordinate] >= self.threshold)

    def batch(self, features: np.ndarray) -> np.ndarray:
        if not 0 <= self.coordinate < features.shape[1]:
            raise ValueError(f"coordinate {self.coordinate} out of range")
        return self.polarity * (features[:, self.coordinate] >= self.threshold).astype(np.float64)

    def __repr__(self) -> str:
        return f"GroupIndicator({self.coordinate}, {self.threshold!r}, {self.polarity:+d})"


class SupCorrelation(NamedTuple):
    value: float
    witness: object  # member index (finite) or unit vector (linear)


class HypothesisClass:
    """Finite list of test functions, or the linear unit-ball class."""

    def __init__(self, variant: str, members: tuple[TestFunction, ...] = (), dim: int = 0) -> None:
        if variant == "finite":
            if not members:
                raise ValueError("finite class needs at least one member")
            self.members = tuple(members)
            self.dim = 0
        elif variant == "linear":
            if dim < 1:
                raise ValueError("linear class needs a positive dimension")
            self.members = ()
            self.dim = int(dim)
        else:
            raise ValueError(f"unknown class variant: {variant!r}")
        self.variant = variant
        self._indicator_arrays = self._try_indicator_arrays()

    @classmethod
    def finite(cls, members) -> "HypothesisClass":
        return cls("finite", tuple(members))

    @classmethod
    def linear(cls, dim: int) -> "HypothesisClass":
        return cls("linear", dim=dim)

    @classmethod
    def singleton(cls) -> "HypothesisClass":
        """The class {1}: plain calibration."""
        return cls("finite", (ConstantOne(),))

    @property
    def size(self) -> int:
        if self.variant != "finite":
            raise ValueError("only finite classes have a member count")
        return len(self.members)

    @property
    def coordinates_read(self) -> int:
        """How many leading context coordinates the class reads: d for the linear class, else one past the largest indicator coordinate."""
        if self.variant == "linear":
            return self.dim
        return max((m.coordinate + 1 for m in self.members if isinstance(m, GroupIndicator)), default=0)

    def _try_indicator_arrays(self):
        # homogeneous indicator classes get a vectorized per-round fast path
        if self.variant != "finite" or not all(isinstance(m, GroupIndicator) for m in self.members):
            return None
        coords = np.array([m.coordinate for m in self.members], dtype=np.intp)
        thresholds = np.array([m.threshold for m in self.members])
        polarities = np.array([m.polarity for m in self.members], dtype=np.float64)
        return coords, thresholds, polarities

    def member_values(self, x: Context) -> np.ndarray:
        """Evaluate every member at one context; shape (|F|,)."""
        if self.variant != "finite":
            raise ValueError("member_values applies to finite classes only")
        fast = self._indicator_arrays
        if fast is not None:
            coords, thresholds, polarities = fast
            return polarities * (x.features[coords] >= thresholds)
        return np.array([m(x) for m in self.members])

    def member_table(self, features: np.ndarray) -> np.ndarray:
        """Evaluate every member on (n, d) rows; shape (n, |F|)."""
        if self.variant != "finite":
            raise ValueError("member_table applies to finite classes only")
        return np.column_stack([m.batch(features) for m in self.members])

    def __repr__(self) -> str:
        if self.variant == "finite":
            return f"HypothesisClass.finite(<{len(self.members)} members>)"
        return f"HypothesisClass.linear(dim={self.dim})"


def sup_correlation(cls: HypothesisClass, accumulated) -> SupCorrelation:
    """Per-bin supremum of |sum over the bin of f(x_t) * residual_t|.

    finite: ``accumulated`` is one signed sum per member; returns the
    largest absolute sum and the achieving member index.  Ties on |sum|
    prefer the positive sum, then the lowest index, so a sign-symmetric
    pair {f, -f} always yields the member whose sum is positive and the
    value is invariant to member ordering.

    linear: ``accumulated`` is the moment vector v; returns (||v||_2,
    v / ||v||_2), with a zero witness for a degenerate bin.
    """
    v = np.asarray(accumulated, dtype=np.float64)
    if cls.variant == "finite":
        if v.shape != (len(cls.members),):
            raise ValueError(f"expected {len(cls.members)} member sums, got shape {v.shape}")
        magnitude = np.abs(v)
        best = float(magnitude.max())
        candidates = np.nonzero(magnitude == best)[0]
        positive = candidates[v[candidates] >= best]
        idx = int(positive[0]) if positive.size else int(candidates[0])
        return SupCorrelation(best, idx)
    if v.shape != (cls.dim,):
        raise ValueError(f"expected a moment vector of dim {cls.dim}, got shape {v.shape}")
    norm = float(np.linalg.norm(v))
    witness = v / norm if norm > 0.0 else np.zeros_like(v)
    return SupCorrelation(norm, witness)


def generate_group_indicators(groups: int, dim: int, seed: int) -> HypothesisClass:
    """Deterministic family of membership indicators for experiments.

    Coordinates cycle through the dimensions; thresholds are drawn once
    from the seeded stream, uniform on [-0.5, 0.5].
    """
    if groups < 1 or dim < 1:
        raise ValueError("groups and dim must be positive")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    thresholds = rng.uniform(-0.5, 0.5, size=groups)
    members = [GroupIndicator(i % dim, float(thresholds[i]), 1) for i in range(groups)]
    return HypothesisClass.finite(members)


def parse_class(spec: str, default_seed: int = 0) -> HypothesisClass:
    """Parse a config-file class name.

    Accepted forms: "singleton", "linear:dim=16",
    "finite:groups=8,dim=4,seed=7" (seed optional, defaults to
    ``default_seed``).
    """
    head, _, tail = spec.partition(":")
    head = head.strip()
    kv: dict[str, str] = {}
    if tail:
        for item in tail.split(","):
            key, eq, val = item.partition("=")
            if not eq:
                raise ValueError(f"malformed class spec {spec!r}")
            kv[key.strip()] = val.strip()
    try:
        if head == "singleton":
            out = HypothesisClass.singleton()
        elif head == "linear":
            out = HypothesisClass.linear(int(kv.pop("dim")))
        elif head == "finite":
            out = generate_group_indicators(
                int(kv.pop("groups")), int(kv.pop("dim")), int(kv.pop("seed", default_seed))
            )
        else:
            raise ValueError(f"unknown class {head!r}")
    except KeyError as exc:
        raise ValueError(f"class spec {spec!r} is missing {exc.args[0]!r}") from None
    if kv:
        raise ValueError(f"unknown keys in class spec {spec!r}: {sorted(kv)}")
    return out

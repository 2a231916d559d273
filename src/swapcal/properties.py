"""Elicitable properties and their identification residuals.

A property is a distributional summary (mean, quantile, expectile, raw
moment) that can be audited through an identification residual: a function
ident(p, y) whose expectation under the label law vanishes exactly when p
equals the true property value.  The built-ins are chosen so the residual
stays inside [-1, 1] for all p, y in [0, 1]:

    mean        ident(p, y) = p - y
    quantile q  ident(p, y) = 1[y <= p] - q
    expectile t ident(p, y) = (p - y) * (1 - t)   if p >= y
                              (p - y) * t         if p <  y
    moment k    ident(p, y) = p - y**k

No additional rescaling is needed for these four: each form above already
has range contained in [-1, 1] on the unit square.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

PROPERTY_KINDS = ("mean", "quantile", "expectile", "raw_moment")
LAW_KINDS = ("bernoulli", "beta", "point_mass")


@dataclass(frozen=True)
class Property:
    """An elicitable property plus audit metadata.

    ``param`` is q for quantiles, tau for expectiles, k for raw moments and
    unused for the mean.  ``lipschitz_rho`` is the slope bound of the
    marginal residual p -> E[ident(p, y)] under the intended label-law
    family; it is consumed only by audits and adversaries, never by the
    forecasting engines.
    """

    name: str
    kind: str
    param: float | None = None
    lipschitz_rho: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in PROPERTY_KINDS:
            raise ValueError(f"unknown property kind: {self.kind!r}")
        if self.kind == "mean":
            if self.param is not None:
                raise ValueError("mean takes no parameter")
        elif self.kind == "quantile":
            if self.param is None or not 0.0 <= self.param <= 1.0:
                raise ValueError("quantile level must lie in [0, 1]")
        elif self.kind == "expectile":
            if self.param is None or not 0.0 < self.param < 1.0:
                raise ValueError("expectile level must lie in (0, 1)")
        elif self.kind == "raw_moment":
            if self.param is None or self.param != int(self.param) or self.param < 1:
                raise ValueError("moment order must be a positive integer")
        if not (math.isfinite(self.lipschitz_rho) and self.lipschitz_rho > 0):
            raise ValueError("lipschitz_rho must be a positive real")


def mean_property(rho: float = 1.0) -> Property:
    return Property("mean", "mean", None, rho)


def quantile_property(q: float, rho: float = 1.0) -> Property:
    return Property(f"quantile_{q:g}", "quantile", q, rho)


def expectile_property(tau: float, rho: float = 1.0) -> Property:
    return Property(f"expectile_{tau:g}", "expectile", tau, rho)


def raw_moment_property(k: int, rho: float = 1.0) -> Property:
    return Property(f"moment_{k}", "raw_moment", float(k), rho)


def parse_property(spec: str) -> Property:
    """Parse a config-file property name.

    Accepted forms: "mean", "quantile:q=0.5", "expectile:tau=0.3",
    "moment:k=2".  An optional ",rho=..." suffix overrides the stored
    Lipschitz metadata.
    """
    head, _, tail = spec.partition(":")
    head = head.strip()
    kv: dict[str, str] = {}
    if tail:
        for item in tail.split(","):
            key, eq, val = item.partition("=")
            if not eq:
                raise ValueError(f"malformed property spec {spec!r}")
            kv[key.strip()] = val.strip()
    rho = float(kv.pop("rho", 1.0))
    try:
        if head == "mean":
            prop = mean_property(rho)
        elif head == "quantile":
            prop = quantile_property(float(kv.pop("q")), rho)
        elif head == "expectile":
            prop = expectile_property(float(kv.pop("tau")), rho)
        elif head == "moment":
            prop = raw_moment_property(int(kv.pop("k")), rho)
        else:
            raise ValueError(f"unknown property {head!r}")
    except KeyError as exc:
        raise ValueError(f"property spec {spec!r} is missing {exc.args[0]!r}") from None
    if kv:
        raise ValueError(f"unknown keys in property spec {spec!r}: {sorted(kv)}")
    return prop


@dataclass(frozen=True)
class LabelLaw:
    """A per-round conditional label distribution on [0, 1].

    Kinds: bernoulli(mu), beta(a, b), point_mass(y).  Parameters are kept
    as a flat tuple; closed-form moments, CDF and partial means below are
    what the marginal-residual formulas consume.
    """

    kind: str
    params: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.kind == "bernoulli":
            (mu,) = self.params
            if not 0.0 <= mu <= 1.0:
                raise ValueError("bernoulli mean must lie in [0, 1]")
        elif self.kind == "beta":
            a, b = self.params
            if not (0.0 < a < math.inf and 0.0 < b < math.inf):  # NaN fails too
                raise ValueError("beta parameters must be finite and positive")
        elif self.kind == "point_mass":
            (y,) = self.params
            if not 0.0 <= y <= 1.0:
                raise ValueError("point mass must lie in [0, 1]")
        else:
            raise ValueError(f"unknown label-law kind: {self.kind!r}")

    def mean(self) -> float:
        return float(_law_mean(self.kind, self.params))

    def cdf(self, p: float) -> float:
        """P(y <= p) for p in [0, 1]."""
        return float(_law_cdf(self.kind, self.params, p))

    def moment(self, k: int) -> float:
        """E[y**k] for integer k >= 1."""
        return float(_law_moment(self.kind, self.params, k))

    def partial_mean(self, p: float) -> float:
        """E[y * 1[y <= p]] for p in [0, 1]."""
        return float(_law_partial_mean(self.kind, self.params, p))

    def sample(self, u: float) -> float:
        """Inverse-CDF draw from one uniform variate in [0, 1)."""
        if self.kind == "bernoulli":
            return 1.0 if u < self.params[0] else 0.0
        if self.kind == "beta":
            a, b = self.params
            return float((_special or load_special()).betaincinv(a, b, u))
        return self.params[0]


@dataclass(frozen=True)
class LawColumns:
    """Label laws of one kind, one per round, as parameter columns.

    The batched twin of LabelLaw: the same closed forms, applied
    elementwise, so entry t of a result equals the LabelLaw method on
    law t bit for bit.  Parameters are checked as LabelLaw checks them.
    """

    kind: str
    params: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if self.kind not in LAW_KINDS:
            raise ValueError(f"unknown label-law kind: {self.kind!r}")
        count = 2 if self.kind == "beta" else 1
        params = tuple(np.asarray(c, dtype=np.float64) for c in self.params)
        if len(params) != count or params[-1].shape != params[0].shape:
            raise ValueError(f"{self.kind} laws need {count} parameter columns of one length")
        bad = np.logical_or.reduce(invalid_law_params(self.kind, params))
        if bad.any():
            k = int(np.argmax(bad))
            raise ValueError(f"{self.kind} law {k}: parameters {tuple(float(c[k]) for c in params)} out of range")
        object.__setattr__(self, "params", params)

    def mean(self) -> np.ndarray:
        return _law_mean(self.kind, self.params)

    def cdf(self, p: np.ndarray) -> np.ndarray:
        return _law_cdf(self.kind, self.params, p)

    def moment(self, k: int) -> np.ndarray:
        return _law_moment(self.kind, self.params, k)

    def partial_mean(self, p: np.ndarray) -> np.ndarray:
        return _law_partial_mean(self.kind, self.params, p)


@dataclass(frozen=True)
class LawRecord:
    """Label laws of any kinds, one per round, as three columns: a run's record of its laws.

    ``kind`` holds indices into LAW_KINDS, ``p1`` each law's first
    parameter and ``p2`` its second, NaN for a kind that takes one.  A run
    fills a record with ``put`` round by round; laws.csv holds the same
    columns.  ``by_kind`` splits it into checked LawColumns.
    """

    kind: np.ndarray
    p1: np.ndarray
    p2: np.ndarray

    @classmethod
    def empty(cls, rounds: int) -> "LawRecord":
        """A record of ``rounds`` laws to fill with ``put``."""
        return cls(np.zeros(rounds, dtype=np.int8), np.empty(rounds), np.full(rounds, np.nan))

    def put(self, t: int, law: LabelLaw) -> None:
        """Store law as round t's entry; a fresh record's p2 is already NaN."""
        params = law.params
        self.kind[t] = _LAW_CODES[law.kind]
        self.p1[t] = params[0]
        if len(params) > 1:
            self.p2[t] = params[1]

    def by_kind(self) -> list[tuple[slice | np.ndarray, LawColumns]]:
        """(rounds, laws) of each kind present, every parameter checked.

        When one kind holds every round, the rounds are ``slice(None)`` and
        its laws are the whole columns, with no gather.
        """
        counts = np.bincount(self.kind, minlength=len(LAW_KINDS))
        groups = []
        for code in np.flatnonzero(counts).tolist():
            rows = slice(None) if counts[code] == self.kind.size else np.flatnonzero(self.kind == code)
            kind = LAW_KINDS[code]
            params = (self.p1[rows], self.p2[rows]) if kind == "beta" else (self.p1[rows],)
            groups.append((rows, LawColumns(kind, params)))
        return groups


_LAW_CODES = {kind: code for code, kind in enumerate(LAW_KINDS)}


def invalid_law_params(kind: str, params: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
    """Per parameter of a law kind, the entries of its column that LabelLaw rejects.

    Beta parameters must be finite and positive; a bernoulli mean or a
    point mass must lie in [0, 1].  NaN fails every rule.  Columns after
    the kind's parameter count are ignored.
    """
    if kind == "beta":
        return tuple(~((c > 0.0) & (c < np.inf)) for c in params[:2])
    return (~((params[0] >= 0.0) & (params[0] <= 1.0)),)


_special = None  # scipy.special once a Beta law has needed it


def load_special():
    """scipy.special, imported on first use and kept.

    Only the Beta label laws need it (``betainc``, ``betaincinv``), so a
    run on Bernoulli or point-mass labels never imports it.  Each Beta
    branch reads the module as ``_special or load_special()``: once it is
    loaded that costs no call.
    """
    global _special
    if _special is None:
        from scipy import special

        _special = special
    return _special


# The closed forms of both law types.  Each takes scalar or array
# parameters and points and uses only elementwise operations, so a batch
# reproduces the scalar values bit for bit.


def _law_mean(kind: str, params):
    if kind == "beta":
        a, b = params
        return a / (a + b)
    return params[0]  # bernoulli mu; point mass y


def _law_cdf(kind: str, params, p):
    if kind == "bernoulli":
        return np.where(p >= 1.0, 1.0, 1.0 - params[0])
    if kind == "beta":
        a, b = params
        return (_special or load_special()).betainc(a, b, p)
    return np.where(params[0] <= p, 1.0, 0.0)


def _law_moment(kind: str, params, k: int):
    if kind == "bernoulli":
        return params[0]
    if kind == "beta":
        a, b = params
        out = 1.0
        for j in range(k):
            out = out * ((a + j) / (a + b + j))
        return out
    y = params[0]
    # Python's pow on each entry: numpy's vectorized power rounds differently
    return y**k if np.ndim(y) == 0 else np.array([v**k for v in y.tolist()])


def _law_partial_mean(kind: str, params, p):
    if kind == "bernoulli":
        return np.where(p >= 1.0, params[0], 0.0)
    if kind == "beta":
        a, b = params
        return _law_mean(kind, params) * (_special or load_special()).betainc(a + 1.0, b, p)
    return np.where(params[0] <= p, params[0], 0.0)


def bernoulli_law(mu: float) -> LabelLaw:
    return LabelLaw("bernoulli", (float(mu),))


def beta_law(a: float, b: float) -> LabelLaw:
    return LabelLaw("beta", (float(a), float(b)))


def point_mass_law(y: float) -> LabelLaw:
    return LabelLaw("point_mass", (float(y),))


def _check_unit(value: float, label: str) -> float:
    value = float(value)
    if not (math.isfinite(value) and 0.0 <= value <= 1.0):
        raise ValueError(f"{label} must lie in [0, 1], got {value}")
    return value


def eval_identification(prop: Property, p: float, y: float) -> float:
    """Pointwise identification residual ident(p, y), always in [-1, 1]."""
    p = float(p)
    y = float(y)
    if not (0.0 <= p <= 1.0 and 0.0 <= y <= 1.0):  # NaN and infinities fail too
        _check_unit(p, "prediction")
        _check_unit(y, "label")
    if prop.kind == "mean":
        return p - y
    if prop.kind == "quantile":
        return (1.0 if y <= p else 0.0) - prop.param
    if prop.kind == "expectile":
        tau = prop.param
        return (p - y) * ((1.0 - tau) if p >= y else tau)
    return p - y ** prop.param


def identification_values(prop: Property, p: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Vectorized ident(p, y); inputs are assumed already in [0, 1]."""
    p = np.asarray(p, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if prop.kind == "mean":
        return p - y
    if prop.kind == "quantile":
        return (y <= p).astype(np.float64) - prop.param
    if prop.kind == "expectile":
        tau = prop.param
        return (p - y) * np.where(p >= y, 1.0 - tau, tau)
    return p - y ** prop.param


def marginal_identification(prop: Property, p, law):
    """Closed-form E_{y ~ law}[ident(p, y)].

    With ``law`` a LawColumns, ``p`` is an array holding one point per
    law and the result is the array of residuals, each equal to the
    scalar call on its law bit for bit.
    """
    if isinstance(law, LabelLaw):
        p = _check_unit(p, "prediction")
    elif not np.all((p >= 0.0) & (p <= 1.0)):
        raise ValueError("predictions must lie in [0, 1]")
    if prop.kind == "mean":
        return p - law.mean()
    if prop.kind == "quantile":
        return law.cdf(p) - prop.param
    if prop.kind == "raw_moment":
        return p - law.moment(int(prop.param))
    # expectile: split E[(p - y) * slope(p, y)] at y = p
    tau = prop.param
    cdf = law.cdf(p)
    below = p * cdf - law.partial_mean(p)          # E[(p - y) 1[y <= p]] >= 0
    above = p * (1.0 - cdf) - (law.mean() - law.partial_mean(p))
    return (1.0 - tau) * below + tau * above


@dataclass(frozen=True)
class LawCheck:
    law: LabelLaw
    lipschitz_estimate: float
    lipschitz_ok: bool
    sign_at_zero_ok: bool
    sign_at_one_ok: bool
    range_ok: bool

    @property
    def passed(self) -> bool:
        return self.lipschitz_ok and self.sign_at_zero_ok and self.sign_at_one_ok and self.range_ok


@dataclass(frozen=True)
class AssumptionReport:
    property: Property
    grid_size: int
    checks: tuple[LawCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def violations(self) -> list[str]:
        out = []
        for c in self.checks:
            if not c.lipschitz_ok:
                out.append(f"{c.law.kind}{c.law.params}: marginal slope {c.lipschitz_estimate:.6g} exceeds rho={self.property.lipschitz_rho:g}")
            if not c.sign_at_zero_ok:
                out.append(f"{c.law.kind}{c.law.params}: ident(0, law) > 0")
            if not c.sign_at_one_ok:
                out.append(f"{c.law.kind}{c.law.params}: ident(1, law) < 0")
            if not c.range_ok:
                out.append(f"{c.law.kind}{c.law.params}: |ident| exceeds 1 on the grid")
        return out


def check_assumption(prop: Property, laws: list[LabelLaw], grid_size: int) -> AssumptionReport:
    """Empirically verify the marginal-residual conditions on concrete laws.

    Checks, per law, on a uniform grid of ``grid_size`` intervals
    (grid_size + 1 points including both endpoints):
      * max secant slope of p -> E[ident(p, y)] is at most lipschitz_rho,
      * E[ident(0, y)] <= 0 and E[ident(1, y)] >= 0,
      * |E[ident(p, y)]| <= 1 everywhere on the grid.
    A step discontinuity (quantile against a point mass) shows up as an
    estimated slope of at least grid_size and fails the first clause.
    """
    if grid_size < 2:
        raise ValueError("grid_size must be at least 2")
    if not laws:
        raise ValueError("need at least one label law")
    tol = 1e-9
    grid = np.linspace(0.0, 1.0, grid_size + 1)
    gap = 1.0 / grid_size
    checks = []
    for law in laws:
        vals = np.array([marginal_identification(prop, p, law) for p in grid])
        slope = float(np.max(np.abs(np.diff(vals)))) / gap
        checks.append(
            LawCheck(
                law=law,
                lipschitz_estimate=slope,
                lipschitz_ok=slope <= prop.lipschitz_rho + tol,
                sign_at_zero_ok=vals[0] <= tol,
                sign_at_one_ok=vals[-1] >= -tol,
                range_ok=bool(np.max(np.abs(vals)) <= 1.0 + tol),
            )
        )
    return AssumptionReport(property=prop, grid_size=grid_size, checks=tuple(checks))

"""Context/label stream generators for the online protocol.

An adversary emits a unit-ball context, then fixes the round's label law
BEFORE the forecaster samples (history enters only through observe, after
the round settles).  Laws come back as LabelLaw objects so audits can use
closed-form marginals.  Contexts: uniform on the cube, renormalized when
outside the ball; exactly d variates per context, one per label.
"""

from __future__ import annotations

import math

import numpy as np

from .hypotheses import Context
from .properties import LabelLaw, Property, bernoulli_law, beta_law, eval_identification, load_special


def _cube_context(dim: int, rng) -> Context:
    raw = 2.0 * rng.random(dim) - 1.0
    sq = float(raw @ raw)
    if sq > 1.0:
        raw /= math.sqrt(sq)
    return Context(raw)


def sample_label(law: LabelLaw, rng) -> float:
    """One label draw; consumes exactly one uniform variate."""
    return law.sample(rng.random())


def _bernoulli_rho(prop: Property) -> float:
    """Marginal-residual slope bound for the Bernoulli law family."""
    if prop.kind == "quantile":
        return math.inf  # step CDF, assumption violated
    return 1.0


class LogisticAdversary:
    """Bernoulli labels with log-odds linear in the context."""

    def __init__(self, weights) -> None:
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim != 1 or w.size < 1 or not np.all(np.isfinite(w)):
            raise ValueError("need a finite 1-d weight vector")
        self.weights = w
        self.dim = w.shape[0]

    def next_context(self, rng) -> Context:
        return _cube_context(self.dim, rng)

    def next_label_law(self, x: Context) -> LabelLaw:
        logit = float(self.weights @ x.features)
        return bernoulli_law(1.0 / (1.0 + math.exp(-logit)))

    def observe(self, p: float, y: float) -> None:
        pass

    def rho(self, prop: Property) -> float:
        return _bernoulli_rho(prop)


class BetaAdversary:
    """Beta(a(x), b(x)) labels with a bounded-density link.

    With amplitude 0 the law is the fixed Beta(a, b).  Otherwise the
    parameters sway with s = <w, x> in [-1, 1] as a(x) = a * (1 + amp * s)
    and b(x) = b * (1 - amp * s); the construction requires both to stay
    at or above 1 so the density (hence the CDF slope) stays bounded.
    """

    def __init__(self, a: float, b: float, dim: int, amp: float = 0.0, weights=None) -> None:
        if not 0.0 <= amp < 1.0:
            raise ValueError("amplitude must lie in [0, 1)")
        if min(a * (1.0 - amp), b * (1.0 - amp)) < 1.0:
            raise ValueError("beta link must keep both parameters at or above 1")
        self.a = float(a)
        self.b = float(b)
        self.amp = float(amp)
        if weights is None:
            weights = np.zeros(dim)
        self.weights = np.asarray(weights, dtype=np.float64)
        self.dim = int(dim)
        if self.weights.shape != (self.dim,):
            raise ValueError("weight vector must match the context dimension")
        self._density_bound = self._max_density()
        load_special()  # the Beta kernels load at set-up, never inside a round

    def _params(self, s: float) -> tuple[float, float]:
        return self.a * (1.0 + self.amp * s), self.b * (1.0 - self.amp * s)

    def _max_density(self) -> float:
        # sup over the family of the Beta density max; exact at the mode
        # for a, b >= 1, scanned over the link range.
        worst = 0.0
        for s in np.linspace(-1.0, 1.0, 41):
            a, b = self._params(float(s))
            if a == 1.0 and b == 1.0:
                worst = max(worst, 1.0)
                continue
            mode = (a - 1.0) / (a + b - 2.0) if a + b > 2.0 else 0.5
            log_pdf = (
                (a - 1.0) * math.log(mode)
                + (b - 1.0) * math.log(1.0 - mode)
                - (math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
            ) if 0.0 < mode < 1.0 else 0.0
            worst = max(worst, math.exp(log_pdf))
        return worst

    def next_context(self, rng) -> Context:
        return _cube_context(self.dim, rng)

    def next_label_law(self, x: Context) -> LabelLaw:
        if self.amp == 0.0:
            return beta_law(self.a, self.b)
        s = float(self.weights @ x.features)
        a, b = self._params(s)
        return beta_law(a, b)

    def observe(self, p: float, y: float) -> None:
        pass

    def rho(self, prop: Property) -> float:
        if prop.kind == "quantile":
            return self._density_bound
        return 1.0

    @property
    def density_bound(self) -> float:
        return self._density_bound


class DeficitAdversary:
    """History-adaptive Bernoulli adversary chasing the largest bin residual.

    Tracks the running residual sum per observed prediction value; each
    round it biases the label so the most-hit prediction's residual keeps
    its sign and keeps growing.  With no history the label is a fair coin.
    Never sees the current round's prediction: the law is fixed before the
    forecaster samples, and history arrives through ``observe``.
    """

    def __init__(self, prop: Property, dim: int, aggressiveness: float = 0.8) -> None:
        if not 0.0 <= aggressiveness <= 1.0:
            raise ValueError("aggressiveness must lie in [0, 1]")
        if prop.kind == "quantile":
            raise ValueError("Bernoulli labels violate the Lipschitz assumption for quantiles")
        self.prop = prop
        self.dim = int(dim)
        self.aggressiveness = float(aggressiveness)
        self.residuals: dict[float, float] = {}
        self.hits: dict[float, int] = {}

    def next_context(self, rng) -> Context:
        return _cube_context(self.dim, rng)

    def next_label_law(self, x: Context) -> LabelLaw:
        if not self.hits:
            return bernoulli_law(0.5)
        target = max(self.hits, key=lambda p: (self.hits[p], p))
        drift = self.residuals[target]
        if drift == 0.0:
            return bernoulli_law(0.5)
        # keep ident(p, y) on the same side: for residual-increasing kinds
        # a positive deficit calls for small labels
        mu = 0.5 - 0.5 * self.aggressiveness * math.copysign(1.0, drift)
        return bernoulli_law(mu)

    def observe(self, p: float, y: float) -> None:
        self.residuals[p] = self.residuals.get(p, 0.0) + eval_identification(self.prop, p, y)
        self.hits[p] = self.hits.get(p, 0) + 1

    def rho(self, prop: Property) -> float:
        return _bernoulli_rho(prop)


def default_logistic_weights(dim: int, scale: float = 2.0) -> np.ndarray:
    """Deterministic alternating-sign direction of length ``scale``."""
    signs = np.where(np.arange(dim) % 2 == 0, 1.0, -1.0)
    return scale * signs / math.sqrt(dim)


def build_adversary(spec: dict, prop: Property):
    """Construct an adversary from a config mapping; unknown keys are errors."""
    if "kind" not in spec:
        raise ValueError("adversary.kind is required")
    spec = dict(spec)
    kind = spec.pop("kind")
    try:
        return _build_adversary(kind, spec, prop)
    except KeyError as exc:
        raise ValueError(f"adversary.{exc.args[0]} is required for kind {kind!r}") from None


def _build_adversary(kind: str, spec: dict, prop: Property):
    if kind == "logistic":
        dim = int(spec.pop("dim"))
        weights = spec.pop("weights", None)
        scale = float(spec.pop("scale", 2.0))
        if weights is None:
            weights = default_logistic_weights(dim, scale)
        adv = LogisticAdversary(np.asarray(weights, dtype=np.float64))
        if adv.dim != dim:
            raise ValueError("adversary.weights length must equal adversary.dim")
    elif kind == "beta":
        dim = int(spec.pop("dim"))
        a = float(spec.pop("a"))
        b = float(spec.pop("b"))
        amp = float(spec.pop("amp", 0.0))
        weights = spec.pop("weights", None)
        adv = BetaAdversary(a, b, dim, amp, weights)
    elif kind == "deficit":
        dim = int(spec.pop("dim"))
        aggressiveness = float(spec.pop("aggressiveness", 0.8))
        adv = DeficitAdversary(prop, dim, aggressiveness)
    else:
        raise ValueError(f"unknown adversary kind {kind!r}")
    if spec:
        raise ValueError(f"unknown adversary keys: {sorted(spec)}")
    if not math.isfinite(adv.rho(prop)):
        raise ValueError(f"adversary {kind!r} violates the Lipschitz assumption for {prop.name}")
    return adv

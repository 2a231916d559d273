import math

import numpy as np
import pytest

from swapcal.hypotheses import ConstantOne, Context, HypothesisClass, generate_group_indicators
from swapcal.learners import (
    FiniteClassLearner,
    FiniteLearnerBank,
    LinearLearnerBank,
    UnitBallLearner,
)
from helpers import Negation


def signed_pair():
    base = ConstantOne()
    return HypothesisClass.finite([base, Negation(base)])


def test_fresh_predictions():
    x = Context([0.3, -0.2])
    assert FiniteClassLearner(signed_pair()).predict(x) == 0.0
    assert UnitBallLearner(2).predict(x) == 0.0


def test_linear_predict_is_inner_product():
    learner = UnitBallLearner(2)
    learner.theta = np.array([1.0, 0.0])
    assert learner.predict(Context([0.6, 0.8])) == pytest.approx(0.6)


def test_predict_idempotent():
    learner = UnitBallLearner(3)
    x = Context([0.1, 0.2, -0.3])
    learner.observe(x, 0.5)
    assert learner.predict(x) == learner.predict(x)
    finite = FiniteClassLearner(signed_pair())
    finite.observe(x, -0.25)
    assert finite.predict(x) == finite.predict(x)


def test_ogd_first_update_with_projection():
    # theta (1, 0), first observe has step 2: pre-projection (1, 2) -> /sqrt(5)
    learner = UnitBallLearner(2)
    learner.theta = np.array([1.0, 0.0])
    learner.observe(Context([0.0, 1.0]), 1.0)
    np.testing.assert_allclose(learner.theta, [1 / math.sqrt(5), 2 / math.sqrt(5)], atol=1e-12)


def test_ogd_no_projection_inside_ball():
    learner = UnitBallLearner(2)
    learner.observe(Context([0.2, 0.0]), 0.5)
    np.testing.assert_allclose(learner.theta, [0.2, 0.0], atol=1e-12)


def test_finite_first_observation_closed_form():
    # members {+1, -1}, kappa = 1: cumulative (1, -1), eta_1 = sqrt(ln 2)
    learner = FiniteClassLearner(signed_pair())
    learner.observe(Context([0.0]), 1.0)
    eta = math.sqrt(math.log(2.0))
    expected = math.exp(eta) / (math.exp(eta) + math.exp(-eta))
    assert learner.weights[0] == pytest.approx(expected, abs=1e-12)


def test_zero_outcome_leaves_finite_weights():
    learner = FiniteClassLearner(signed_pair())
    before = learner.weights.copy()
    learner.observe(Context([0.5]), 0.0)
    np.testing.assert_allclose(learner.weights, before, atol=1e-12)
    assert learner.rounds == 1


def test_outcome_domain_error():
    with pytest.raises(ValueError):
        UnitBallLearner(2).observe(Context([0.1, 0.1]), 1.5)
    with pytest.raises(ValueError):
        FiniteClassLearner(signed_pair()).observe(Context([0.1]), -1.5)


def test_outputs_bounded_on_unit_contexts():
    rng = np.random.default_rng(0)
    cls = generate_group_indicators(6, 3, seed=1)
    finite = FiniteClassLearner(cls)
    linear = UnitBallLearner(3)
    for _ in range(300):
        raw = rng.uniform(-1, 1, 3)
        raw /= max(1.0, float(np.linalg.norm(raw)))
        x = Context(raw)
        kappa = float(rng.uniform(-1, 1))
        assert abs(finite.predict(x)) <= 1.0 + 1e-12
        assert abs(linear.predict(x)) <= 1.0 + 1e-12
        finite.observe(x, kappa)
        linear.observe(x, kappa)
        assert float(linear.theta @ linear.theta) <= 1.0 + 1e-12


def test_banks_match_single_learners():
    # a bank row fed some subsequence evolves exactly like a standalone
    # learner fed the same subsequence
    rng = np.random.default_rng(7)
    cls = generate_group_indicators(5, 4, seed=3)
    rows = 6
    fbank = FiniteLearnerBank(cls, rows)
    lbank = LinearLearnerBank(4, rows)
    fsingles = [FiniteClassLearner(cls) for _ in range(rows)]
    lsingles = [UnitBallLearner(4) for _ in range(rows)]
    for _ in range(400):
        raw = rng.uniform(-0.5, 0.5, 4)
        x = Context(raw)
        kappa = float(rng.uniform(-1, 1))
        row = int(rng.integers(rows))
        fvals = cls.member_values(x)
        preds_f = fbank.predict_all(fvals)
        preds_l = lbank.predict_all(x.features)
        for r in range(rows):
            assert preds_f[r] == pytest.approx(fsingles[r].predict(x), abs=1e-12)
            assert preds_l[r] == pytest.approx(lsingles[r].predict(x), abs=1e-12)
        fbank.observe(row, fvals, kappa)
        lbank.observe(row, x.features, kappa)
        fsingles[row].observe(x, kappa)
        lsingles[row].observe(x, kappa)
    np.testing.assert_allclose(fbank.rounds, [s.rounds for s in fsingles])
    np.testing.assert_allclose(lbank.rounds, [s.rounds for s in lsingles])


def test_observe_pair_feeds_exact_negatives():
    rng = np.random.default_rng(9)
    lbank = LinearLearnerBank(3, 4)
    ref = LinearLearnerBank(3, 4)
    cls = generate_group_indicators(4, 3, seed=5)
    fbank = FiniteLearnerBank(cls, 4)
    fref = FiniteLearnerBank(cls, 4)
    for _ in range(100):
        x = rng.uniform(-0.5, 0.5, 3)
        kappa = float(rng.uniform(-1, 1))
        fvals = cls.member_values(Context(x))
        lbank.observe_pair(2, x, kappa)
        ref.observe(2, x, kappa)
        ref.observe(3, x, -kappa)
        fbank.observe_pair(2, fvals, kappa)
        fref.observe(2, fvals, kappa)
        fref.observe(3, fvals, -kappa)
    np.testing.assert_allclose(lbank.thetas, ref.thetas, atol=0)
    np.testing.assert_allclose(fbank.weights, fref.weights, atol=0)


def test_observe_pair_block_matches_two_observes_bit_for_bit():
    # the (2, |F|) block update against the two one-row updates it replaces,
    # over 1000 feeds spread across every row pair, after a few one-row feeds
    # that leave a pair's round counts unequal
    rng = np.random.default_rng(21)
    cls = generate_group_indicators(6, 4, seed=8)
    rows = 10
    bank, ref = FiniteLearnerBank(cls, rows), FiniteLearnerBank(cls, rows)
    for row in (0, 5):
        fvals = cls.member_values(Context(rng.uniform(-0.5, 0.5, 4)))
        bank.observe(row, fvals, 0.5)
        ref.observe(row, fvals, 0.5)
    for t in range(1000):
        fvals = cls.member_values(Context(rng.uniform(-0.5, 0.5, 4)))
        kappa = (0.0, 1.0, -1.0)[t] if t < 3 else float(rng.uniform(-1, 1))
        row = 2 * int(rng.integers(rows // 2))
        bank.observe_pair(row, fvals, kappa)
        ref.observe(row, fvals, kappa)
        ref.observe(row + 1, fvals, -kappa)
    assert bank.rounds.tolist() == ref.rounds.tolist()
    assert bank.cum.tobytes() == ref.cum.tobytes()
    assert bank.weights.tobytes() == ref.weights.tobytes()
    with pytest.raises(IndexError):
        bank.observe_pair(rows - 1, fvals, 0.5)  # no row after the last
    with pytest.raises(ValueError):
        bank.observe_pair(0, fvals, 1.5)


def test_linear_observe_pair_in_place_matches_two_observes_bit_for_bit():
    # the in-place pair update against two one-row ``_ogd_step`` updates,
    # over 1000 feeds spread across every row pair, with unequal round
    # counts in some pairs; dim 5 puts odd rows at 8-byte offsets and
    # contexts near the sphere make the projection fire often
    rng = np.random.default_rng(23)
    dim, rows = 5, 10
    bank, ref = LinearLearnerBank(dim, rows), LinearLearnerBank(dim, rows)
    for row in (0, 5):
        x = rng.uniform(-0.5, 0.5, dim)
        bank.observe(row, x, 0.5)
        ref.observe(row, x, 0.5)
    projected = 0
    for t in range(1000):
        x = rng.normal(size=dim)
        x *= rng.uniform(0.0, 1.0) / np.linalg.norm(x)
        kappa = (0.0, 1.0, -1.0)[t] if t < 3 else float(rng.uniform(-1, 1))
        row = 2 * int(rng.integers(rows // 2))
        bank.observe_pair(row, x, kappa)
        ref.observe(row, x, kappa)
        ref.observe(row + 1, x, -kappa)
        projected += float(ref.thetas[row] @ ref.thetas[row]) > 1.0 - 1e-12
    assert projected > 0
    assert bank.rounds.tolist() == ref.rounds.tolist()
    assert bank.thetas.tobytes() == ref.thetas.tobytes()
    with pytest.raises(IndexError):
        bank.observe_pair(rows - 1, x, 0.5)  # no row after the last
    with pytest.raises(ValueError):
        bank.observe_pair(0, x, 1.5)


def finite_regret(cls, n, stream_fn, seed=0, dim=4):
    """Regret oracle: best member correlation minus the learner's."""
    learner = FiniteClassLearner(cls)
    rng = np.random.default_rng(seed)
    cum_members = np.zeros(cls.size)
    cum_learner = 0.0
    for t in range(n):
        raw = rng.uniform(-1, 1, dim)
        raw /= max(1.0, float(np.linalg.norm(raw)))
        x = Context(raw)
        q = learner.predict(x)
        kappa = stream_fn(t, q, rng)
        cum_members += cls.member_values(x) * kappa
        cum_learner += q * kappa
        learner.observe(x, kappa)
    return float(cum_members.max() - cum_learner)


def linear_regret(dim, n, stream_fn, seed=0):
    """Regret oracle: the best fixed direction is moment / ||moment||."""
    learner = UnitBallLearner(dim)
    rng = np.random.default_rng(seed)
    moment = np.zeros(dim)
    cum_learner = 0.0
    for t in range(n):
        raw = rng.uniform(-1, 1, dim)
        raw /= max(1.0, float(np.linalg.norm(raw)))
        x = Context(raw)
        q = learner.predict(x)
        kappa = stream_fn(t, q, rng)
        moment += x.features * kappa
        cum_learner += q * kappa
        learner.observe(x, kappa)
    return float(np.linalg.norm(moment) - cum_learner)


def test_finite_regret_small_horizon():
    n = 2000
    cls = generate_group_indicators(8, 4, seed=11)
    bound = 2.0 * math.sqrt(n * math.log(8))
    stream = lambda t, q, rng: float(rng.choice([-1.0, 1.0]))
    assert finite_regret(cls, n, stream) <= bound


def test_linear_regret_small_horizon():
    n = 2000
    bound = 3.0 * math.sqrt(n)
    stream = lambda t, q, rng: -math.copysign(1.0, q) if q != 0 else 1.0
    assert linear_regret(4, n, stream) <= bound

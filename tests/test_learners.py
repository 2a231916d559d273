import math

import numpy as np
import pytest

from swapcal.hypotheses import ConstantOne, Context, HypothesisClass, generate_group_indicators
from swapcal.learners import FiniteLearnerBank, LinearLearnerBank
from helpers import FiniteClassLearner, Negation, ReferenceBank, UnitBallLearner, row_regret

SIGNED_VALUES = np.array([1.0, -1.0])  # the signed pair's member values, at every context


def signed_pair():
    base = ConstantOne()
    return HypothesisClass.finite([base, Negation(base)])


def reference_for(bank):
    """One fresh standalone learner per row of ``bank``."""
    if isinstance(bank, FiniteLearnerBank):
        return ReferenceBank(FiniteClassLearner(bank.cls.size) for _ in range(bank.rows))
    return ReferenceBank(UnitBallLearner(bank.dim) for _ in range(bank.rows))


def feed_pair(ref, row, values, kappa):
    """What ``observe_pair`` does, as two standalone ``observe`` calls."""
    ref[row].observe(values, kappa)
    ref[row + 1].observe(values, -kappa)


def test_fresh_predictions():
    np.testing.assert_array_equal(FiniteLearnerBank(signed_pair(), 2).predict_all(SIGNED_VALUES), [0.0, 0.0])
    np.testing.assert_array_equal(LinearLearnerBank(2, 2).predict_all(np.array([0.3, -0.2])), [0.0, 0.0])


def test_linear_predict_is_inner_product():
    bank = LinearLearnerBank(2, 2)
    bank.thetas[0] = [1.0, 0.0]
    assert bank.predict_all(np.array([0.6, 0.8]))[0] == pytest.approx(0.6)


def test_predict_idempotent():
    x = np.array([0.1, 0.2, -0.3])
    linear = LinearLearnerBank(3, 2)
    linear.observe_pair(0, x, 0.5)
    assert linear.predict_all(x).tobytes() == linear.predict_all(x).tobytes()
    finite = FiniteLearnerBank(signed_pair(), 2)
    finite.observe_pair(0, SIGNED_VALUES, -0.25)
    assert finite.predict_all(SIGNED_VALUES).tobytes() == finite.predict_all(SIGNED_VALUES).tobytes()


def test_ogd_first_update_with_projection():
    # row 0 at theta (1, 0), first feed has step 2: pre-projection (1, 2) -> /sqrt(5);
    # row 1 steps from 0 to (0, -2) -> (0, -1)
    bank = LinearLearnerBank(2, 2)
    bank.thetas[0] = [1.0, 0.0]
    bank.observe_pair(0, np.array([0.0, 1.0]), 1.0)
    np.testing.assert_allclose(bank.thetas, [[1 / math.sqrt(5), 2 / math.sqrt(5)], [0.0, -1.0]], atol=1e-12)


def test_ogd_no_projection_inside_ball():
    bank = LinearLearnerBank(2, 2)
    bank.observe_pair(0, np.array([0.2, 0.0]), 0.5)
    np.testing.assert_allclose(bank.thetas, [[0.2, 0.0], [-0.2, 0.0]], atol=1e-12)


def test_finite_first_observation_closed_form():
    # members {+1, -1}, kappa = 1: cumulative (1, -1) in row 0 and (-1, 1) in row 1, eta_1 = sqrt(ln 2)
    bank = FiniteLearnerBank(signed_pair(), 2)
    bank.observe_pair(0, SIGNED_VALUES, 1.0)
    eta = math.sqrt(math.log(2.0))
    expected = math.exp(eta) / (math.exp(eta) + math.exp(-eta))
    np.testing.assert_allclose(bank.weights, [[expected, 1 - expected], [1 - expected, expected]], atol=1e-12)


def test_zero_outcome_leaves_finite_weights():
    bank = FiniteLearnerBank(signed_pair(), 2)
    before = bank.weights.copy()
    bank.observe_pair(0, SIGNED_VALUES, 0.0)
    np.testing.assert_allclose(bank.weights, before, atol=1e-12)
    assert bank.rounds.tolist() == [1, 1]


def test_outcome_domain_error():
    linear = LinearLearnerBank(2, 2)
    with pytest.raises(ValueError):
        linear.observe_pair(0, np.array([0.1, 0.1]), 1.5)
    finite = FiniteLearnerBank(signed_pair(), 2)
    with pytest.raises(ValueError):
        finite.observe_pair(0, SIGNED_VALUES, -1.5)
    assert linear.rounds.tolist() == finite.rounds.tolist() == [0, 0]  # a rejected outcome advances no row


def test_outputs_bounded_on_unit_contexts():
    rng = np.random.default_rng(0)
    cls = generate_group_indicators(6, 3, seed=1)
    finite, linear = FiniteLearnerBank(cls, 2), LinearLearnerBank(3, 2)
    for _ in range(300):
        raw = rng.uniform(-1, 1, 3)
        raw /= max(1.0, float(np.linalg.norm(raw)))
        fvals = cls.member_values(Context(raw))
        kappa = float(rng.uniform(-1, 1))
        assert np.abs(finite.predict_all(fvals)).max() <= 1.0 + 1e-12
        assert np.abs(linear.predict_all(raw)).max() <= 1.0 + 1e-12
        finite.observe_pair(0, fvals, kappa)
        linear.observe_pair(0, raw, kappa)
        assert np.einsum("ij,ij->i", linear.thetas, linear.thetas).max() <= 1.0 + 1e-12


def test_banks_match_single_learners():
    # while random row pairs are fed, every bank prediction agrees with its
    # standalone learner's at 1e-12, and the states end equal bit for bit
    rng = np.random.default_rng(7)
    cls = generate_group_indicators(5, 4, seed=3)
    rows = 6
    fbank, lbank = FiniteLearnerBank(cls, rows), LinearLearnerBank(4, rows)
    fref, lref = reference_for(fbank), reference_for(lbank)
    for _ in range(400):
        x = rng.uniform(-0.5, 0.5, 4)
        kappa = float(rng.uniform(-1, 1))
        row = 2 * int(rng.integers(rows // 2))
        for bank, ref, values in ((fbank, fref, cls.member_values(Context(x))), (lbank, lref, x)):
            expected = [learner.predict(values) for learner in ref]
            np.testing.assert_allclose(bank.predict_all(values), expected, rtol=0, atol=1e-12)
            bank.observe_pair(row, values, kappa)
            feed_pair(ref, row, values, kappa)
    assert fbank.weights.tobytes() == fref.stacked("weights").tobytes()
    assert lbank.thetas.tobytes() == lref.stacked("theta").tobytes()
    assert fbank.rounds.tolist() == lbank.rounds.tolist() == fref.stacked("rounds").tolist()


def test_observe_pair_feeds_exact_negatives():
    # fed from zero with (kappa, -kappa), a pair's rows hold exact negatives:
    # the finite cumulative correlations and the unit-ball iterates, each as
    # its standalone learner holds it; the other pair stays unfed
    rng = np.random.default_rng(9)
    cls = generate_group_indicators(4, 3, seed=5)
    fbank, lbank = FiniteLearnerBank(cls, 4), LinearLearnerBank(3, 4)
    fref, lref = reference_for(fbank), reference_for(lbank)
    for _ in range(100):
        x = rng.uniform(-0.5, 0.5, 3)
        kappa = float(rng.uniform(-1, 1))
        for bank, ref, values in ((fbank, fref, cls.member_values(Context(x))), (lbank, lref, x)):
            bank.observe_pair(2, values, kappa)
            feed_pair(ref, 2, values, kappa)
    np.testing.assert_array_equal(fbank.cum[3], -fbank.cum[2])
    np.testing.assert_array_equal(lbank.thetas[3], -lbank.thetas[2])
    assert fbank.cum.tobytes() == fref.stacked("cum").tobytes()
    assert lbank.thetas.tobytes() == lref.stacked("theta").tobytes()
    assert fbank.rounds.tolist() == lbank.rounds.tolist() == [0, 0, 100, 100]


def test_observe_pair_block_matches_two_observes_bit_for_bit():
    # the (2, |F|) block update against two standalone learners' observe
    # calls, over 1000 feeds spread across every row pair
    rng = np.random.default_rng(21)
    cls = generate_group_indicators(6, 4, seed=8)
    rows = 10
    bank = FiniteLearnerBank(cls, rows)
    ref = reference_for(bank)
    for t in range(1000):
        fvals = cls.member_values(Context(rng.uniform(-0.5, 0.5, 4)))
        kappa = (0.0, 1.0, -1.0)[t] if t < 3 else float(rng.uniform(-1, 1))
        row = 2 * int(rng.integers(rows // 2))
        bank.observe_pair(row, fvals, kappa)
        feed_pair(ref, row, fvals, kappa)
    assert bank.rounds.tolist() == ref.stacked("rounds").tolist()
    assert bank.cum.tobytes() == ref.stacked("cum").tobytes()
    assert bank.weights.tobytes() == ref.stacked("weights").tobytes()
    with pytest.raises(IndexError):
        bank.observe_pair(rows - 1, fvals, 0.5)  # no row after the last
    with pytest.raises(ValueError):
        bank.observe_pair(0, fvals, 1.5)


def test_linear_observe_pair_in_place_matches_two_observes_bit_for_bit():
    # the in-place pair update against two standalone learners' observe
    # calls, over 1000 feeds spread across every row pair; dim 5 puts odd
    # rows at 8-byte offsets and contexts near the sphere make the
    # projection fire often
    rng = np.random.default_rng(23)
    dim, rows = 5, 10
    bank = LinearLearnerBank(dim, rows)
    ref = reference_for(bank)
    projected = 0
    for t in range(1000):
        x = rng.normal(size=dim)
        x *= rng.uniform(0.0, 1.0) / np.linalg.norm(x)
        kappa = (0.0, 1.0, -1.0)[t] if t < 3 else float(rng.uniform(-1, 1))
        row = 2 * int(rng.integers(rows // 2))
        bank.observe_pair(row, x, kappa)
        feed_pair(ref, row, x, kappa)
        projected += float(ref[row].theta @ ref[row].theta) > 1.0 - 1e-12
    assert projected > 0
    assert bank.rounds.tolist() == ref.stacked("rounds").tolist()
    assert bank.thetas.tobytes() == ref.stacked("theta").tobytes()
    with pytest.raises(IndexError):
        bank.observe_pair(rows - 1, x, 0.5)  # no row after the last
    with pytest.raises(ValueError):
        bank.observe_pair(0, x, 1.5)


def test_finite_regret_small_horizon():
    n = 2000
    cls = generate_group_indicators(8, 4, seed=11)
    bound = 2.0 * math.sqrt(n * math.log(8))
    stream = lambda t, q, rng: float(rng.choice([-1.0, 1.0]))
    assert row_regret(FiniteLearnerBank(cls, 2), n, stream, seed=0, dim=4) <= bound


def test_linear_regret_small_horizon():
    n = 2000
    bound = 3.0 * math.sqrt(n)
    stream = lambda t, q, rng: -math.copysign(1.0, q) if q != 0 else 1.0
    assert row_regret(LinearLearnerBank(4, 2), n, stream, seed=0, dim=4) <= bound

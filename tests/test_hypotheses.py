import numpy as np
import pytest

from swapcal.hypotheses import (
    ConstantOne,
    Context,
    GroupIndicator,
    HypothesisClass,
    generate_group_indicators,
    parse_class,
    sup_correlation,
)
from helpers import LinearFixed, Negation


def brute_force_sup(sums):
    """Independent oracle: scan of the per-member absolute sums."""
    best_value = -1.0
    best_idx = None
    for idx, s in enumerate(sums):
        if abs(s) > best_value:
            best_value = abs(s)
            best_idx = idx
    return best_value, best_idx


def test_context_validation():
    Context([0.6, 0.8])
    with pytest.raises(ValueError):
        Context([1.0, 1.0])
    with pytest.raises(ValueError):
        Context([[0.1, 0.2]])
    with pytest.raises(ValueError):
        Context([float("nan"), 0.0])


def test_evaluate_worked_examples():
    x = Context([-0.3, 0.1])
    assert ConstantOne()(x) == 1.0
    assert GroupIndicator(0, 0.0, 1)(x) == 0.0
    assert LinearFixed([1.0, 0.0])(Context([0.6, 0.8])) == pytest.approx(0.6)
    assert Negation(ConstantOne())(x) == -1.0


def test_group_indicator_bounds_and_errors():
    f = GroupIndicator(1, 0.05, -1)
    assert f(Context([0.0, 0.1])) == -1.0
    assert f(Context([0.0, 0.0])) == 0.0
    with pytest.raises(ValueError):
        GroupIndicator(0, 0.0, 2)
    with pytest.raises(ValueError):
        GroupIndicator(5, 0.0, 1)(Context([0.1, 0.2]))


def test_member_outputs_bounded():
    rng = np.random.default_rng(3)
    cls = generate_group_indicators(12, 5, seed=9)
    members = list(cls.members) + [ConstantOne(), LinearFixed(rng.standard_normal(5) / 5.0)]
    for _ in range(200):
        raw = rng.uniform(-1, 1, 5)
        raw /= max(1.0, np.linalg.norm(raw))
        x = Context(raw)
        for f in members:
            assert abs(f(x)) <= 1.0 + 1e-12


def test_batch_matches_scalar():
    rng = np.random.default_rng(4)
    X = rng.uniform(-0.4, 0.4, size=(50, 3))
    members = [ConstantOne(), GroupIndicator(2, 0.1, 1), LinearFixed([0.5, -0.5, 0.2]), Negation(GroupIndicator(0, 0.0, 1))]
    for f in members:
        col = f.batch(X)
        for i in range(X.shape[0]):
            assert col[i] == pytest.approx(f(Context(X[i])))


def test_sup_correlation_finite_examples():
    cls = HypothesisClass.finite([ConstantOne(), ConstantOne()])
    value, witness = sup_correlation(cls, [-0.5, 0.2])
    assert value == pytest.approx(0.5)
    assert witness == 0


def test_sup_correlation_linear_examples():
    cls = HypothesisClass.linear(2)
    value, witness = sup_correlation(cls, [3.0, 4.0])
    assert value == pytest.approx(5.0)
    np.testing.assert_allclose(witness, [0.6, 0.8])
    value, witness = sup_correlation(cls, [0.0, 0.0])
    assert value == 0.0
    np.testing.assert_array_equal(witness, [0.0, 0.0])


def test_sup_correlation_finite_matches_brute_force():
    rng = np.random.default_rng(11)
    cls = HypothesisClass.finite([ConstantOne()] * 7)
    for _ in range(300):
        sums = rng.normal(0, 3, size=7)
        value, _ = sup_correlation(cls, sums)
        expected, _ = brute_force_sup(sums)
        assert value == pytest.approx(expected, abs=0)


def test_sup_correlation_linear_dominates_random_directions():
    rng = np.random.default_rng(5)
    cls = HypothesisClass.linear(6)
    v = rng.normal(size=6) * 2.5
    value, witness = sup_correlation(cls, v)
    thetas = rng.normal(size=(10**5, 6))
    thetas /= np.linalg.norm(thetas, axis=1, keepdims=True)
    assert np.all(np.abs(thetas @ v) <= value + 1e-12)
    assert abs(float(witness @ v)) == pytest.approx(value, abs=1e-12)


def test_sup_correlation_sign_symmetric_class():
    base = GroupIndicator(0, 0.0, 1)
    pair = [base, Negation(base)]
    cls_fwd = HypothesisClass.finite(pair)
    cls_rev = HypothesisClass.finite(pair[::-1])
    sums = np.array([-0.7, 0.7])
    v1, w1 = sup_correlation(cls_fwd, sums)
    v2, w2 = sup_correlation(cls_rev, sums[::-1])
    assert v1 == v2 == pytest.approx(0.7)
    # the witness is the member with the positive sum in both orderings
    assert sums[w1] > 0
    assert sums[::-1][w2] > 0


def test_sup_correlation_dimension_mismatch():
    with pytest.raises(ValueError):
        sup_correlation(HypothesisClass.linear(3), [1.0, 2.0])
    with pytest.raises(ValueError):
        sup_correlation(HypothesisClass.finite([ConstantOne()]), [1.0, 2.0])


def test_member_values_fast_path_matches_loop():
    cls = generate_group_indicators(9, 4, seed=2)
    rng = np.random.default_rng(6)
    for _ in range(50):
        x = Context(rng.uniform(-0.45, 0.45, 4))
        fast = cls.member_values(x)
        slow = np.array([m(x) for m in cls.members])
        np.testing.assert_array_equal(fast, slow)


def test_generate_group_indicators_deterministic():
    a = generate_group_indicators(8, 4, seed=7)
    b = generate_group_indicators(8, 4, seed=7)
    assert [m.threshold for m in a.members] == [m.threshold for m in b.members]
    assert [m.coordinate for m in a.members] == [0, 1, 2, 3, 0, 1, 2, 3]


def test_parse_class_specs():
    singleton = parse_class("singleton")
    assert singleton.variant == "finite" and singleton.size == 1
    linear = parse_class("linear:dim=16")
    assert linear.variant == "linear" and linear.dim == 16
    finite = parse_class("finite:groups=8,dim=4,seed=3")
    assert finite.size == 8
    defaulted = parse_class("finite:groups=2,dim=2", default_seed=5)
    assert defaulted.size == 2
    with pytest.raises(ValueError):
        parse_class("kernel:dim=4")
    with pytest.raises(ValueError):
        parse_class("finite:groups=8")
    with pytest.raises(ValueError):
        parse_class("linear:dim=16,extra=1")

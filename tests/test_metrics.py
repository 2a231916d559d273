import math

import numpy as np
import pytest

from swapcal.engine import GridConfig, RoundColumns
from swapcal.hypotheses import Context, HypothesisClass, generate_group_indicators
from swapcal.metrics import Transcript, _ascend_sphere, aggregate, cal, mcal, mcal_is_exact, smcal
from swapcal.properties import eval_identification, mean_property, parse_property
from helpers import Negation


def make_transcript(grid, bins, y, features):
    """Assemble a transcript directly from per-round columns."""
    bins = np.asarray(bins, dtype=np.int64)
    y = np.asarray(y, dtype=np.float64)
    features = np.asarray(features, dtype=np.float64)
    p = bins / grid.N
    j = -(-(bins - 1) * grid.T // grid.N)  # the first grid point of the round's bin, a one-point support
    return Transcript(
        grid=grid,
        p_tilde=p.copy(),
        bins=bins,
        p=p,
        y=y,
        features=features,
        j_lo=j,
        j_hi=j.copy(),
        prob_lo=np.ones(len(bins)),
        phi_lo=np.zeros(len(bins)),
        phi_hi=np.zeros(len(bins)),
    )


def random_transcript(rng, N=6, T=60, d=3):
    grid = GridConfig(N, max(T, N))
    bins = rng.integers(1, N + 1, size=T)
    y = rng.random(T)
    features = rng.uniform(-1, 1, size=(T, d))
    features /= np.maximum(1.0, np.linalg.norm(features, axis=1, keepdims=True))
    return make_transcript(grid, bins, y, features)


def brute_force_smcal(transcript, prop, cls, r):
    """Independent oracle: per-bin double loop straight off the raw rounds."""
    total = 0.0
    for i in range(1, transcript.grid.N + 1):
        rounds = [t for t in range(len(transcript)) if transcript.bins[t] == i]
        if not rounds:
            continue
        n = len(rounds)
        if cls.variant == "finite":
            best = 0.0
            for f in cls.members:
                s = 0.0
                for t in rounds:
                    s += f(Context(transcript.features[t])) * eval_identification(
                        prop, transcript.p[t], transcript.y[t]
                    )
                best = max(best, abs(s))
        else:
            v = [0.0] * cls.dim
            for t in rounds:
                resid = eval_identification(prop, transcript.p[t], transcript.y[t])
                for k in range(cls.dim):
                    v[k] += transcript.features[t][k] * resid
            best = math.sqrt(sum(c * c for c in v))
        total += n * (best / n) ** r
    return total


def brute_force_mcal_finite(transcript, prop, cls, r):
    best = 0.0
    for f in cls.members:
        total = 0.0
        for i in range(1, transcript.grid.N + 1):
            rounds = [t for t in range(len(transcript)) if transcript.bins[t] == i]
            if not rounds:
                continue
            s = sum(
                f(Context(transcript.features[t]))
                * eval_identification(prop, transcript.p[t], transcript.y[t])
                for t in rounds
            )
            total += len(rounds) * (abs(s) / len(rounds)) ** r
        best = max(best, total)
    return best


def test_aggregate_worked_example():
    # T=3, all rounds in bin 1 of N=2 (p = 0.5), mean, f = 1
    grid = GridConfig(2, 3)
    tr = make_transcript(grid, [1, 1, 1], [1.0, 0.0, 1.0], np.zeros((3, 1)))
    agg = aggregate(tr, mean_property(), HypothesisClass.singleton())
    np.testing.assert_array_equal(agg.counts, [3, 0])
    assert agg.member_sums[0, 0] == pytest.approx(-0.5)
    assert agg.member_sums[1, 0] == 0.0


def test_aggregate_linear_single_round():
    grid = GridConfig(2, 2)
    # one round: x = (0.6, 0.8), residual 0.5 at p = 1 needs y = 0.5
    tr = make_transcript(grid, [2], [0.5], np.array([[0.6, 0.8]]))
    agg = aggregate(tr, mean_property(), HypothesisClass.linear(2))
    np.testing.assert_allclose(agg.moment_vectors[1], [0.3, 0.4])
    np.testing.assert_allclose(agg.moment_vectors[0], [0.0, 0.0])


def test_mcal_smcal_worked_example():
    grid = GridConfig(2, 3)
    tr = make_transcript(grid, [1, 1, 1], [1.0, 0.0, 1.0], np.zeros((3, 1)))
    agg = aggregate(tr, mean_property(), HypothesisClass.singleton())
    assert mcal(agg, 2.0) == pytest.approx(1.0 / 12.0)
    assert smcal(agg, 2.0) == pytest.approx(1.0 / 12.0)
    assert smcal(agg, 1.0) == pytest.approx(0.5)


def test_cal_worked_examples():
    grid = GridConfig(2, 4)
    # alternating labels cancel the bin residual exactly
    tr = make_transcript(grid, [1, 1], [0.25, 0.75], np.zeros((2, 1)))
    assert cal(tr, mean_property(), 2.0) == pytest.approx(0.0)
    tr2 = make_transcript(grid, [1, 1], [1.0, 1.0], np.zeros((2, 1)))
    assert cal(tr2, mean_property(), 2.0) == pytest.approx(0.5)


def test_sign_symmetric_pair_reduces_to_single_member():
    rng = np.random.default_rng(0)
    base = generate_group_indicators(1, 3, seed=4).members[0]
    pair_cls = HypothesisClass.finite([base, Negation(base)])
    single_cls = HypothesisClass.finite([base])
    tr = random_transcript(rng)
    prop = mean_property()
    for r in (1.0, 2.0, 3.0):
        assert smcal(aggregate(tr, prop, pair_cls), r) == pytest.approx(
            mcal(aggregate(tr, prop, single_cls), r)
        )


def test_single_member_smcal_equals_mcal():
    rng = np.random.default_rng(1)
    cls = HypothesisClass.singleton()
    tr = random_transcript(rng)
    agg = aggregate(tr, mean_property(), cls)
    for r in (1.0, 1.5, 2.0, 4.0):
        assert smcal(agg, r) == pytest.approx(mcal(agg, r), rel=1e-12)


def test_r_validation():
    rng = np.random.default_rng(2)
    agg = aggregate(random_transcript(rng), mean_property(), HypothesisClass.singleton())
    with pytest.raises(ValueError):
        mcal(agg, 0.5)
    with pytest.raises(ValueError):
        smcal(agg, 0.9)


def test_metric_order_and_positivity_random_transcripts():
    rng = np.random.default_rng(3)
    prop = mean_property()
    finite_cls = generate_group_indicators(4, 3, seed=6)
    linear_cls = HypothesisClass.linear(3)
    for _ in range(60):
        tr = random_transcript(rng)
        for cls in (finite_cls, linear_cls):
            agg = aggregate(tr, prop, cls)
            for r in (1.0, 2.0, 3.0):
                s = smcal(agg, r)
                m = mcal(agg, r)
                assert s >= m - 1e-9 and m >= -1e-12


def test_cauchy_schwarz_relation():
    rng = np.random.default_rng(4)
    prop = mean_property()
    cls = generate_group_indicators(4, 3, seed=6)
    for _ in range(60):
        tr = random_transcript(rng)
        agg = aggregate(tr, prop, cls)
        T = len(tr)
        assert smcal(agg, 1.0) <= math.sqrt(T * smcal(agg, 2.0)) + 1e-9
        assert mcal(agg, 1.0) <= math.sqrt(T * mcal(agg, 2.0)) + 1e-9


def test_cal_equals_singleton_mcal_exactly():
    rng = np.random.default_rng(5)
    prop = mean_property()
    for _ in range(20):
        tr = random_transcript(rng)
        agg = aggregate(tr, prop, HypothesisClass.singleton())
        assert cal(tr, prop, 2.0) == mcal(agg, 2.0)


def test_finite_metrics_match_brute_force():
    rng = np.random.default_rng(6)
    prop = mean_property()
    cls = generate_group_indicators(4, 3, seed=6)
    for _ in range(15):
        tr = random_transcript(rng, N=5, T=40)
        agg = aggregate(tr, prop, cls)
        for r in (1.0, 2.0, 2.5):
            fast = smcal(agg, r)
            slow = brute_force_smcal(tr, prop, cls, r)
            assert fast == pytest.approx(slow, rel=1e-12, abs=1e-12)
            assert mcal(agg, r) == pytest.approx(
                brute_force_mcal_finite(tr, prop, cls, r), rel=1e-12, abs=1e-12
            )


def test_linear_smcal_matches_brute_force():
    rng = np.random.default_rng(7)
    prop = mean_property()
    cls = HypothesisClass.linear(3)
    for _ in range(15):
        tr = random_transcript(rng, N=5, T=40)
        agg = aggregate(tr, prop, cls)
        for r in (1.0, 2.0):
            assert smcal(agg, r) == pytest.approx(brute_force_smcal(tr, prop, cls, r), rel=1e-12)


def test_linear_mcal_r2_matches_eigenvalue_oracle():
    rng = np.random.default_rng(8)
    prop = mean_property()
    cls = HypothesisClass.linear(4)
    for _ in range(25):
        tr = random_transcript(rng, N=6, T=80, d=4)
        agg = aggregate(tr, prop, cls)
        nonzero = agg.counts > 0
        vecs = agg.moment_vectors[nonzero]
        n = agg.counts[nonzero].astype(float)
        matrix = (vecs / n[:, None]).T @ vecs
        expected = float(np.linalg.eigvalsh(matrix).max())
        assert mcal(agg, 2.0) == pytest.approx(expected, rel=1e-8, abs=1e-10)


def test_linear_mcal_general_r_is_certified_lower_bound():
    rng = np.random.default_rng(9)
    prop = mean_property()
    cls = HypothesisClass.linear(3)
    for _ in range(10):
        tr = random_transcript(rng, N=5, T=50)
        agg = aggregate(tr, prop, cls)
        for r in (1.0, 3.0):
            value = mcal(agg, r)
            # never exceeds the per-bin swap bound and dominates the best
            # of many random fixed directions
            assert value <= smcal(agg, r) + 1e-9
            thetas = rng.normal(size=(2000, 3))
            thetas /= np.linalg.norm(thetas, axis=1, keepdims=True)
            nonzero = agg.counts > 0
            n = agg.counts[nonzero].astype(float)
            vecs = agg.moment_vectors[nonzero]
            sampled = ((np.abs(thetas @ vecs.T) ** r) * n ** (1.0 - r)).sum(axis=1).max()
            assert value >= sampled - 1e-9


def ascend_sphere_one_start_at_a_time(vectors, scales, r):
    """Slow reference for the sphere ascent: its 32 starts run one after another."""
    d = vectors.shape[1]
    best = 0.0
    for restart in range(32):
        theta = np.random.default_rng(restart).standard_normal(d)
        theta /= np.linalg.norm(theta)
        for step in range(200):
            proj = vectors @ theta
            grad = (scales * r * np.abs(proj) ** (r - 1.0) * np.sign(proj)) @ vectors
            gnorm = float(np.linalg.norm(grad))
            if gnorm == 0.0:
                break
            theta = theta + (0.5 / (1.0 + step) ** 0.5) * grad / gnorm
            theta /= np.linalg.norm(theta)
        best = max(best, float(scales @ np.abs(vectors @ theta) ** r))
    return best


@pytest.mark.parametrize("r", [1.0, 3.0, 4.0])
def test_batched_ascent_matches_one_start_at_a_time(r):
    from swapcal.harness import ExperimentConfig, run

    rng = np.random.default_rng(17)
    cases = []
    for d in (1, 3, 16):
        agg = aggregate(random_transcript(rng, N=9, T=200, d=d), mean_property(), HypothesisClass.linear(d))
        cases.append((agg.moment_vectors, agg.counts))
    # a persisted_pipeline-like run: quantile on beta labels, linear:dim=16
    res = run(
        ExperimentConfig.from_dict(
            {
                "engine": "efficient",
                "property": "quantile:q=0.5",
                "hypothesis_class": "linear:dim=16",
                "adversary": {"kind": "beta", "dim": 16, "a": 2.0, "b": 2.0, "amp": 0.4, "weights": [0.25, -0.25] * 8},
                "N": 64,
                "r": 2.0,
                "T": 1024,
                "seed": 1,
            }
        )
    )
    agg = aggregate(res.transcript, parse_property("quantile:q=0.5"), HypothesisClass.linear(16))
    cases.append((agg.moment_vectors, agg.counts))
    cases.append((np.zeros((3, 4)), np.array([2, 5, 1])))  # every gradient vanishes at once
    for vectors, counts in cases:
        nonzero = counts > 0
        scales = counts[nonzero].astype(np.float64) ** (1.0 - r)
        batched = _ascend_sphere(vectors[nonzero], scales, r)
        reference = ascend_sphere_one_start_at_a_time(vectors[nonzero], scales, r)
        assert abs(batched - reference) <= 1e-12 * reference


@pytest.mark.parametrize("r", [1.0, 3.0, 4.0])
def test_batched_ascent_stops_each_start_on_its_own(r, monkeypatch):
    # even starts are orthogonal to every moment vector, so their gradient
    # vanishes at once and they stop; odd starts climb to the maximum
    class FixedStarts:
        def __init__(self, restart):
            self.restart = restart

        def standard_normal(self, d):
            return np.array([0.0, 1.0] if self.restart % 2 == 0 else [1.0, 1.0])

    monkeypatch.setattr(np.random, "default_rng", FixedStarts)
    vectors, scales = np.array([[1.0, 0.0], [2.0, 0.0]]), np.array([3.0, 1.0]) ** (1.0 - r)
    with np.errstate(divide="raise", invalid="raise"):  # a stopped start divides by no zero norm
        batched = _ascend_sphere(vectors, scales, r)
    assert abs(batched - ascend_sphere_one_start_at_a_time(vectors, scales, r)) <= 1e-12 * batched
    assert batched == pytest.approx(float(scales @ np.array([1.0, 2.0]) ** r), rel=1e-9)


def test_mcal_is_exact_flag():
    assert mcal_is_exact(HypothesisClass.singleton(), 3.0)
    assert mcal_is_exact(HypothesisClass.linear(3), 2.0)
    assert not mcal_is_exact(HypothesisClass.linear(3), 1.0)
    assert not mcal_is_exact(HypothesisClass.linear(3), 4.0)


def test_empty_bins_contribute_zero():
    grid = GridConfig(8, 10)
    tr = make_transcript(grid, [1] * 10, np.linspace(0, 1, 10), np.zeros((10, 2)))
    agg = aggregate(tr, mean_property(), HypothesisClass.singleton())
    assert agg.counts[0] == 10 and agg.counts[1:].sum() == 0
    assert math.isfinite(smcal(agg, 2.0)) and math.isfinite(mcal(agg, 2.0))


def test_empty_transcript_rejected():
    with pytest.raises(ValueError):
        Transcript.from_records(GridConfig(2, 4), RoundColumns(4))

import numpy as np
import pytest

from swapcal.adversaries import LogisticAdversary, default_logistic_weights, sample_label
from swapcal.engine import (
    EfficientForecaster,
    GridConfig,
    InefficientForecaster,
    ROUND_FIELDS,
    default_bin_count,
    gains_efficient,
    gains_inefficient,
    phi_from_class,
    phi_from_learners,
    sample_and_round,
    solve_distribution,
)
from swapcal.experts import ExpertState, expert_init, expert_update, expert_weights
from swapcal.hypotheses import ConstantOne, Context, HypothesisClass, generate_group_indicators
from swapcal.metrics import Transcript
from swapcal.properties import eval_identification, marginal_identification, mean_property
from helpers import (
    FiniteClassLearner,
    ReferenceBank,
    UnitBallLearner,
    dense_gains,
    record_fed_gains,
    record_profiles,
    round_record,
    round_records,
    support_points,
)
from test_experts import DenseReference


class FixedRng:
    """Deterministic uniform source for worked examples."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


def test_grid_validation_and_bins():
    with pytest.raises(ValueError):
        GridConfig(10, 5)
    grid = GridConfig(2, 10)
    assert grid.bin_of_index(0) == 1
    assert grid.bin_of_index(4) == 1   # 0.4 in [0, 0.5)
    assert grid.bin_of_index(5) == 2   # 0.5 in [0.5, 1]
    assert grid.bin_of_index(10) == 2
    grid4 = GridConfig(4, 100)
    assert grid4.bin_of_index(0) == 1
    assert grid4.bin_of_index(100) == 4


def test_default_bin_count():
    assert default_bin_count(1000, 2.0) == 10
    assert default_bin_count(4096, 2.0) == 16
    assert default_bin_count(2**17, 2.0) == 51
    assert default_bin_count(1, 1.0) == 1


def test_bin_partition_is_exact_for_all_grid_points():
    for N, T in ((2, 10), (3, 7), (22, 10000), (64, 64)):
        grid = GridConfig(N, T)
        for j in range(T + 1):
            b = grid.bin_of_index(j)
            p = j / T
            lo, hi = (b - 1) / N, b / N
            assert lo <= p and (p < hi or (b == N and p <= 1.0))


def test_phi_profile_validation():
    # both engines' profiles are checked to lie in [-1, 1] where they are built; NaN fails too
    weights = np.array([1.0, 0.0, 0.0, 0.0])
    np.testing.assert_array_equal(phi_from_learners(weights, np.array([[[0.5], [0.0]], [[-0.5], [0.0]]])), [0.5, 0.0])
    for bad in (1.5, float("nan")):
        with pytest.raises(ValueError, match=r"phi values must lie in \[-1, 1\]"):
            phi_from_learners(weights, np.array([[[bad], [0.0]], [[0.0], [0.0]]]))
        with pytest.raises(ValueError, match=r"phi values must lie in \[-1, 1\]"):
            phi_from_class(weights, HypothesisClass.finite([ConstantOne()]), Context([0.0]), fvals=[bad])


def test_phi_from_class_examples():
    cls = HypothesisClass.finite([ConstantOne()])
    x = Context([0.0])
    # uniform over {f} x {1, 2} x {+1, -1} cancels
    phi = phi_from_class(np.full(4, 0.25), cls, x)
    np.testing.assert_allclose(phi, [0.0, 0.0])
    # all mass on (f, i=2, sigma=+1)
    phi = phi_from_class(np.array([0.0, 0.0, 1.0, 0.0]), cls, x)
    np.testing.assert_allclose(phi, [0.0, 1.0])
    # all mass on (f, i=1, sigma=-1)
    phi = phi_from_class(np.array([0.0, 1.0, 0.0, 0.0]), cls, x)
    np.testing.assert_allclose(phi, [-1.0, 0.0])
    with pytest.raises(ValueError):
        phi_from_class(np.full(5, 0.2), cls, x)


def test_phi_from_learners_examples():
    # value tables of the efficient engine: one (+, -) learner pair per bin, (N, 2, 1)
    np.testing.assert_allclose(phi_from_learners(np.full(4, 0.25), np.zeros((2, 2, 1))), [0.0, 0.0])
    np.testing.assert_allclose(phi_from_learners(np.array([0.5, 0.5]), np.array([[[1.0], [1.0]]])), [0.0])
    phi = phi_from_learners(np.array([1.0, 0.0, 0.0, 0.0]), np.array([[[0.5], [0.0]], [[0.0], [0.0]]]))
    np.testing.assert_allclose(phi, [0.5, 0.0])
    with pytest.raises(ValueError):
        phi_from_learners(np.full(4, 0.25), np.zeros(3))  # 4 weights are not N * 2 * 3
    with pytest.raises(ValueError):
        phi_from_learners(np.full(4, 0.25), np.zeros((1, 2, 1)))  # a table for one bin, weights for two
    with pytest.raises(ValueError):
        phi_from_learners(np.array([1.0, 0.0, 0.0, 0.0]), np.full((2, 2, 1), 2.0))  # |phi| > 1


def test_solve_distribution_point_mass_branches():
    grid = GridConfig(2, 10)
    assert solve_distribution(np.array([0.3, 0.6]), grid) == (0, 0, 1.0, 0.0)
    assert solve_distribution(np.array([-0.2, -0.1]), grid) == (10, 10, 1.0, 0.0)
    # phi(0) = 0 is not > 0, phi(1) = 0 is <= 0: point mass at 1
    assert solve_distribution(np.array([0.0, 0.0]), grid) == (10, 10, 1.0, 0.0)
    with pytest.raises(ValueError):
        solve_distribution(np.array([0.3, 0.6, 0.1]), grid)  # three bins on a two-bin grid
    with pytest.raises(ValueError):
        solve_distribution(np.array([-0.5, float("nan")]), grid)  # the law check rejects it


def test_solve_distribution_two_point_worked_example():
    # N=2, T=10, v=(-0.5, 0.25): sign change at 0.5, weights (1/3, 2/3)
    grid = GridConfig(2, 10)
    lo, hi, p_lo, p_hi = solve_distribution(np.array([-0.5, 0.25]), grid)
    assert (lo, hi) == (4, 5)
    assert (lo / grid.T, hi / grid.T) == (0.4, 0.5)
    assert p_lo == pytest.approx(1.0 / 3.0)
    assert p_hi == pytest.approx(2.0 / 3.0)


def test_solve_distribution_sign_change_certificate():
    rng = np.random.default_rng(8)
    for _ in range(500):
        N = int(rng.integers(2, 33))
        T = int(rng.integers(N, 512))
        grid = GridConfig(N, T)
        phi = rng.uniform(-1, 1, N)
        lo, hi, p_lo, p_hi = solve_distribution(phi, grid)
        if hi != lo:
            assert phi[grid.bin_of_index(lo) - 1] * phi[grid.bin_of_index(hi) - 1] <= 0.0
            assert hi - lo == 1
            assert p_hi > 0.0
        else:
            assert p_hi == 0.0
            if lo == 0:
                assert phi[0] > 0.0
            elif lo == T:
                assert phi[0] <= 0.0 and phi[-1] <= 0.0
            else:
                # interior collapse: the lower endpoint's phi vanished
                assert phi[grid.bin_of_index(lo) - 1] == 0.0
        assert p_lo > 0.0 and p_lo + p_hi == pytest.approx(1.0, abs=1e-12)


def full_bisection_law(phi, grid):
    """Slow reference for ``solve_distribution``: bisect down to adjacent grid points."""
    N, T = grid.N, grid.T
    values = phi.tolist()
    if values[0] > 0.0:
        return 0, 0, 1.0, 0.0
    if values[-1] <= 0.0:
        return T, T, 1.0, 0.0
    lo, hi = 0, T
    phi_lo, phi_hi = values[0], values[-1]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        val = values[(mid * N) // T] if mid < T else values[N - 1]
        if val <= 0.0:
            lo, phi_lo = mid, val
        else:
            hi, phi_hi = mid, val
    a, b = abs(phi_lo), abs(phi_hi)
    p_lo, p_hi = b / (a + b), a / (a + b)
    if p_hi == 0.0:
        return lo, lo, 1.0, 0.0
    if p_lo == 0.0:
        return hi, hi, 1.0, 0.0
    return lo, hi, p_lo, p_hi


@pytest.mark.parametrize("N", [1, 2, 41, 363])
@pytest.mark.parametrize("T_kind", ["N", "8192"])
def test_solve_distribution_matches_full_bisection(N, T_kind):
    # random non-monotone profiles; most start at or below 0 and end above
    # it so the search runs, and some carry exact zeros that collapse the law
    T = N if T_kind == "N" else 8192
    grid = GridConfig(N, T)
    rng = np.random.default_rng(N * 10007 + T)
    two_point = 0
    for t in range(300):
        phi = rng.uniform(-1.0, 1.0, N)
        if t % 4:
            phi[0] = -abs(phi[0])
            phi[-1] = abs(phi[-1]) or 0.5
        if t % 5 == 0:
            phi[rng.random(N) < 0.3] = 0.0
        law = solve_distribution(phi, grid)
        assert law == full_bisection_law(phi, grid)
        two_point += law[1] == law[0] + 1
    assert two_point > 0 or N == 1


def test_solve_distribution_rejects_an_invalid_law():
    # the final check is the only validation of a law an engine builds
    for phi in (
        [float("nan"), 0.5, 0.5, 0.5],  # phi(0): the search never moves off bin 1
        [-0.5, -0.5, float("nan"), 0.5],  # a bin the bisection reads
        [-0.5, -0.5, -0.5, float("nan")],  # phi(1), the last bin
    ):
        with pytest.raises(ValueError, match="invalid randomization law"):
            solve_distribution(np.array(phi), GridConfig(4, 16))


def test_sample_and_round_examples():
    rng = FixedRng([0.5, 0.5, 0.5])
    p_tilde, b, p = sample_and_round((4, 4, 1.0, 0.0), GridConfig(2, 10), rng)
    assert (p_tilde, b, p) == (0.4, 1, 0.5)
    p_tilde, b, p = sample_and_round((4, 4, 1.0, 0.0), GridConfig(4, 4), rng)
    assert (p_tilde, b, p) == (1.0, 4, 1.0)
    p_tilde, b, p = sample_and_round((0, 0, 1.0, 0.0), GridConfig(4, 4), rng)
    assert (p_tilde, b, p) == (0.0, 1, 0.25)


def test_sample_consumes_exactly_one_variate():
    rng = FixedRng([0.2, 0.9])
    law = (4, 5, 1.0 / 3.0, 2.0 / 3.0)
    grid = GridConfig(2, 10)
    assert sample_and_round(law, grid, rng)[0] == 0.4  # u = 0.2 < 1/3
    assert sample_and_round(law, grid, rng)[0] == 0.5  # u = 0.9 >= 1/3
    assert rng.values == []


def test_gains_inefficient_worked_example():
    grid = GridConfig(2, 10)
    law = (4, 5, 1.0 / 3.0, 2.0 / 3.0)
    cls = HypothesisClass.finite([ConstantOne()])
    g = dense_gains(gains_inefficient(law, mean_property(), cls, Context([0.0]), 0.0, grid), 4)
    # layout: (f, i, sigma) with sigma innermost
    assert g[0] == pytest.approx(2.0 / 15.0)   # (f, 1, +1)
    assert g[1] == pytest.approx(-2.0 / 15.0)  # sigma flip negates
    assert g[2] == pytest.approx(1.0 / 3.0)    # (f, 2, +1)
    assert g[3] == pytest.approx(-1.0 / 3.0)


def test_gains_sigma_flip_and_disjoint_support():
    grid = GridConfig(4, 16)
    law = (0, 0, 1.0, 0.0)  # all mass in bin 1
    cls = generate_group_indicators(3, 2, seed=0)
    x = Context([0.3, -0.2])
    g = dense_gains(gains_inefficient(law, mean_property(), cls, x, 1.0, grid), 24).reshape(4, 2, 3)  # (bin, sign, member)
    np.testing.assert_allclose(g[:, 1, :], -g[:, 0, :], atol=0)
    np.testing.assert_allclose(g[1:, :, :], 0.0, atol=0)  # bins 2..4 untouched


def test_gains_efficient_examples():
    grid = GridConfig(2, 10)
    law = (4, 5, 1.0 / 3.0, 2.0 / 3.0)
    q = np.zeros((2, 2, 1))
    np.testing.assert_allclose(dense_gains(gains_efficient(law, mean_property(), q, 0.0, grid), 4), 0.0)
    q = np.array([[[1.0], [0.0]], [[0.0], [0.0]]])  # q_{1,+1} = 1
    g = dense_gains(gains_efficient(law, mean_property(), q, 0.0, grid), 4)
    assert g[0] == pytest.approx(2.0 / 15.0)
    # entries bounded by the distribution mass on the bin
    rng = np.random.default_rng(1)
    for _ in range(100):
        q = rng.uniform(-1, 1, (2, 2, 1))
        y = float(rng.random())
        g = dense_gains(gains_efficient(law, mean_property(), q, y, grid), 4)
        assert abs(g[0]) <= 1.0 / 3.0 + 1e-12 and abs(g[1]) <= 1.0 / 3.0 + 1e-12
        assert abs(g[2]) <= 2.0 / 3.0 + 1e-12 and abs(g[3]) <= 2.0 / 3.0 + 1e-12
    with pytest.raises(ValueError):
        gains_efficient(law, mean_property(), np.zeros((3, 2, 1)), 0.0, grid)  # a table for three bins


def make_efficient(N=4, T=64, dim=3, variant="linear", seed=0):
    grid = GridConfig(N, T)
    prop = mean_property()
    cls = HypothesisClass.linear(dim) if variant == "linear" else generate_group_indicators(5, dim, seed=2)
    rng = np.random.default_rng(seed)
    return EfficientForecaster(grid, prop, cls, rng), grid, prop, cls


def drive(engine, rounds, adv_seed=1):
    adv = LogisticAdversary(default_logistic_weights(engine.cls.dim or 3))
    arng = np.random.default_rng(adv_seed)
    laws = []
    for _ in range(rounds):
        x = adv.next_context(arng)
        law = adv.next_label_law(x)
        laws.append(law)
        engine.step(x, lambda: sample_label(law, arng))
    return laws


def test_first_round_with_zero_learners_predicts_one():
    engine, grid, _, _ = make_efficient()
    assert engine.step(Context([0.1, 0.0, 0.0]), lambda: 1.0) == (1.0, 1.0)  # (p, y)
    rec = round_record(engine, -1)
    assert rec.law == (grid.T, grid.T, 1.0, 0.0)
    assert rec.p == 1.0 and rec.bin == grid.N
    # only the two learners of the last bin observed
    expected = np.zeros(2 * grid.N, dtype=np.int64)
    expected[2 * (grid.N - 1)] = 1
    expected[2 * (grid.N - 1) + 1] = 1
    np.testing.assert_array_equal(engine.bank.rounds, expected)


def test_positive_profile_predicts_first_bin():
    # all expert mass on (i=1, sigma=+1) with a positive learner value
    # makes phi(0) > 0: the raw sample is 0 and the prediction is 1/N
    grid = GridConfig(4, 16)
    cls = HypothesisClass.finite([ConstantOne()])
    engine = EfficientForecaster(grid, mean_property(), cls, np.random.default_rng(0))
    log_weights = np.full_like(engine.experts.log_weights, -80.0)
    log_weights[:, 0] = 0.0  # (bin 1, +1)
    engine.experts = ExpertState(grid.T, log_weights)
    engine.step(Context([0.5]), lambda: 0.0)
    rec = round_record(engine, 0)
    assert rec.p_tilde == 0.0
    assert rec.bin == 1 and rec.p == 1.0 / grid.N


def test_learner_bookkeeping_counts_match_bins():
    engine, grid, _, _ = make_efficient(N=4, T=200, variant="finite")
    drive(engine, 200)
    bins = engine.records.columns()["bins"]
    for i in range(1, grid.N + 1):
        hits = int((bins == i).sum())
        assert engine.bank.rounds[2 * (i - 1)] == hits
        assert engine.bank.rounds[2 * (i - 1) + 1] == hits
    assert int(np.bincount(bins - 1, minlength=grid.N).sum()) == 200


def test_outcome_signs_are_exact_negatives():
    # the two learners of each bin see exactly negated outcome streams, so
    # their linear states stay exact negatives of each other
    engine, grid, _, _ = make_efficient(N=3, T=150)
    drive(engine, 150)
    thetas = engine.bank.thetas
    for i in range(grid.N):
        np.testing.assert_allclose(thetas[2 * i], -thetas[2 * i + 1], atol=0)


def test_round_records_internally_consistent():
    engine, grid, _, _ = make_efficient(N=5, T=300, dim=4)
    drive(engine, 300)
    for t, rec in enumerate(round_records(engine), start=1):
        assert rec.t == t
        j = round(rec.p_tilde * grid.T)
        assert rec.bin == grid.bin_of_index(j)
        lo, hi = (rec.bin - 1) / grid.N, rec.bin / grid.N
        assert lo - 1e-12 <= rec.p_tilde <= hi + 1e-12
        assert rec.p == rec.bin / grid.N
        assert 0.0 <= rec.y <= 1.0


def test_capacity_error_after_horizon():
    engine, _, _, _ = make_efficient(N=2, T=3)
    drive(engine, 3)
    with pytest.raises(RuntimeError):
        engine.step(Context([0.0, 0.0, 0.0]), lambda: 0.5)


def test_fed_gains_match_independent_recomputation_efficient(monkeypatch):
    fed_log = record_fed_gains(monkeypatch)
    engine, grid, prop, _ = make_efficient(N=4, T=120)
    drive(engine, 120)
    assert len(fed_log) == 120
    for rec, entry in zip(round_records(engine), fed_log):
        fed, q = entry["fed"], entry["args"][2].ravel()
        # independent oracle: explicit loop over (bin, sign) pairs
        for i in range(1, grid.N + 1):
            mass = 0.0
            for j, pr in support_points(rec.law):
                if grid.bin_of_index(j) == i:
                    mass += pr * (j / grid.T - rec.y)  # mean residual
            for s_idx, sigma in ((0, 1.0), (1, -1.0)):
                k = 2 * (i - 1) + s_idx
                assert fed[k] == pytest.approx(sigma * q[k] * mass, abs=1e-12)


def test_fed_gains_match_independent_recomputation_inefficient(monkeypatch):
    fed_log = record_fed_gains(monkeypatch)
    grid = GridConfig(3, 90)
    prop = mean_property()
    cls = generate_group_indicators(4, 3, seed=5)
    engine = InefficientForecaster(grid, prop, cls, np.random.default_rng(3))
    adv = LogisticAdversary(default_logistic_weights(3))
    arng = np.random.default_rng(4)
    for _ in range(90):
        x = adv.next_context(arng)
        law = adv.next_label_law(x)
        engine.step(x, lambda: sample_label(law, arng))
    assert len(fed_log) == 90
    for rec, entry in zip(round_records(engine), fed_log):
        fed = entry["fed"]
        fvals = cls.member_values(rec.x)
        for f_idx in range(cls.size):
            for i in range(1, grid.N + 1):
                mass = 0.0
                for j, pr in support_points(rec.law):
                    if grid.bin_of_index(j) == i:
                        mass += pr * (j / grid.T - rec.y)
                base = 2 * (i - 1) * cls.size + f_idx
                assert fed[base] == pytest.approx(fvals[f_idx] * mass, abs=1e-12)
                assert fed[base + cls.size] == pytest.approx(-fvals[f_idx] * mass, abs=1e-12)


def test_enumerating_engine_matches_member_major_reference(monkeypatch):
    # slow reference: experts numbered member-major, (member, bin, sign) with
    # sign innermost; the dense expert update; phi and gains from their
    # definitions, fed the engine's laws and labels
    profiles = record_profiles(monkeypatch)
    grid = GridConfig(8, 512)
    prop = mean_property()
    cls = generate_group_indicators(4, 3, seed=5)
    F, N = cls.size, grid.N
    engine = InefficientForecaster(grid, prop, cls, np.random.default_rng(3))
    ref = DenseReference(2 * N * F, grid.T)
    member, bin_, sign = np.meshgrid(np.arange(F), np.arange(N), np.arange(2), indexing="ij")
    engine_index = ((2 * bin_ + sign) * F + member).ravel()  # of each member-major expert
    adv = LogisticAdversary(default_logistic_weights(3))
    arng = np.random.default_rng(4)
    for _ in range(grid.T):
        x = adv.next_context(arng)
        law = adv.next_label_law(x)
        w = ref.weights().reshape(F, N, 2)
        np.testing.assert_allclose(expert_weights(engine.experts)[engine_index], w.ravel(), rtol=0, atol=1e-12)
        fvals = [f(x) for f in cls.members]
        phi = [sum(fvals[m] * (w[m, i, 0] - w[m, i, 1]) for m in range(F)) for i in range(N)]
        engine.step(x, lambda: sample_label(law, arng))
        rec = round_record(engine, -1)
        assert len(profiles) == engine.round
        np.testing.assert_allclose(profiles[-1], phi, rtol=0, atol=1e-12)  # all N entries
        g = np.zeros((F, N, 2))
        for j, pr in support_points(rec.law):
            mass = pr * eval_identification(prop, j / grid.T, rec.y)
            for m in range(F):
                g[m, grid.bin_of_index(j) - 1] += (fvals[m] * mass, -fvals[m] * mass)
        ref.update(g.ravel())
    np.testing.assert_allclose(expert_weights(engine.experts)[engine_index], ref.weights(), rtol=0, atol=1e-12)


def replay_round_by_round(enumerating, grid, prop, cls, engine_seed, adv_seed):
    """Slow reference for the column round: every round kept as a tuple of plain values.

    Each round reads phi at the support bins through the scalar
    ``GridConfig.bin_of_index``, feeds the hit bin's two standalone
    learners through one ``observe`` call each, and keeps its values of
    ``ROUND_FIELDS`` as one tuple; the transcript's columns are assembled
    from those tuples with ``np.array``.  Returns the transcript, the
    expert state and the ``ReferenceBank`` of learners (None when
    enumerating).
    """
    rng = np.random.default_rng(engine_seed)
    members = cls.size if enumerating else 1
    experts = expert_init(2 * grid.N * members, grid.T)
    finite = cls.variant == "finite"
    bank = None
    if not enumerating:
        bank = ReferenceBank(FiniteClassLearner(cls.size) if finite else UnitBallLearner(cls.dim) for _ in range(2 * grid.N))
    adv = LogisticAdversary(default_logistic_weights(3))
    arng = np.random.default_rng(adv_seed)
    rounds, features = [], []
    for _ in range(grid.T):
        x = adv.next_context(arng)
        label_law = adv.next_label_law(x)
        values = cls.member_values(x) if finite else x.features
        h = values if enumerating else bank.predict_all(values).reshape(-1, 2, 1)
        phi = phi_from_learners(expert_weights(experts), h)
        law = solve_distribution(phi, grid)
        lo, hi, p_lo, _ = law
        p_tilde, b, p = sample_and_round(law, grid, rng)
        y = sample_label(label_law, arng)
        rounds.append((p_tilde, b, p, y, lo, hi, p_lo, phi[grid.bin_of_index(lo) - 1], phi[grid.bin_of_index(hi) - 1]))
        features.append(x.features)
        start, window = gains_efficient(law, prop, h, y, grid)
        expert_update(experts, window, start)
        if bank is not None:
            kappa = eval_identification(prop, p, y)
            bank[2 * (b - 1)].observe(values, kappa)
            bank[2 * (b - 1) + 1].observe(values, -kappa)
    columns = {
        name: np.array(values, dtype=np.int64 if name in ("bins", "j_lo", "j_hi") else np.float64)
        for name, values in zip(ROUND_FIELDS, zip(*rounds))
    }
    return Transcript(grid=grid, features=np.array(features), **columns), experts, bank


@pytest.mark.parametrize(
    "engine_cls,variant",
    [(EfficientForecaster, "finite"), (EfficientForecaster, "linear"), (InefficientForecaster, "finite")],
)
def test_column_round_matches_round_by_round_replay(engine_cls, variant):
    grid = GridConfig(7, 400)
    prop = mean_property()
    cls = generate_group_indicators(4, 3, seed=5) if variant == "finite" else HypothesisClass.linear(3)
    engine = engine_cls(grid, prop, cls, np.random.default_rng(11))
    adv = LogisticAdversary(default_logistic_weights(3))
    arng = np.random.default_rng(12)
    for _ in range(grid.T):
        x = adv.next_context(arng)
        law = adv.next_label_law(x)
        p, y = engine.step(x, lambda: sample_label(law, arng))
        assert (p, y) == (engine.records.p[engine.round - 1], engine.records.y[engine.round - 1])
    reference, experts, bank = replay_round_by_round(engine_cls is InefficientForecaster, grid, prop, cls, 11, 12)
    transcript = Transcript.from_records(grid, engine.records)
    assert set(transcript.columns()) == set(reference.columns())
    for name, column in reference.columns().items():
        assert transcript.columns()[name].dtype == column.dtype
        assert transcript.columns()[name].tobytes() == column.tobytes(), name  # bit for bit, signed zeros included
    assert transcript.features.tobytes() == reference.features.tobytes()
    assert expert_weights(engine.experts).tobytes() == expert_weights(experts).tobytes()
    if bank is not None:
        state, name = ("cum", "cum") if variant == "finite" else ("thetas", "theta")
        assert getattr(engine.bank, state).tobytes() == bank.stacked(name).tobytes()
        assert engine.bank.rounds.tolist() == bank.stacked("rounds").tolist()


def test_per_round_hedging_bound_mean(monkeypatch):
    # E_{p ~ P_t}[phi_t(p) * marginal(p, law)] <= rho / T on every round
    profiles = record_profiles(monkeypatch)
    engine, grid, prop, _ = make_efficient(N=6, T=400, dim=4)
    adv = LogisticAdversary(default_logistic_weights(4))
    arng = np.random.default_rng(9)
    for _ in range(400):
        x = adv.next_context(arng)
        law = adv.next_label_law(x)
        engine.step(x, lambda: sample_label(law, arng))
        rec = round_record(engine, -1)
        phi_row = profiles[-1]
        lo, hi = rec.law[:2]
        assert (rec.phi_lo, rec.phi_hi) == (phi_row[grid.bin_of_index(lo) - 1], phi_row[grid.bin_of_index(hi) - 1])
        value = 0.0
        for j, pr in support_points(rec.law):
            value += pr * phi_row[grid.bin_of_index(j) - 1] * marginal_identification(prop, j / grid.T, law)
        assert value <= 1.0 / grid.T + 1e-9


def test_replay_determinism():
    def transcript(seed):
        engine, _, _, _ = make_efficient(N=4, T=150, seed=seed)
        drive(engine, 150, adv_seed=77)
        return [(r.t, r.p_tilde, r.bin, r.p, r.y, r.law) for r in round_records(engine)]

    assert transcript(5) == transcript(5)
    assert transcript(5) != transcript(6)


def test_inefficient_first_round_uniform_weights():
    grid = GridConfig(4, 32)
    cls = generate_group_indicators(3, 2, seed=1)
    engine = InefficientForecaster(grid, mean_property(), cls, np.random.default_rng(0))
    w = expert_weights(engine.experts)
    np.testing.assert_allclose(w, np.full(2 * grid.N * cls.size, 1.0 / (2 * grid.N * cls.size)))
    p, _ = engine.step(Context([0.2, 0.1]), lambda: 1.0)
    # sigma-symmetric uniform weights cancel: phi = 0 everywhere -> mass at 1
    assert p == 1.0 and engine.records.bins[0] == grid.N


def test_inefficient_requires_finite_class():
    with pytest.raises(ValueError):
        InefficientForecaster(GridConfig(2, 4), mean_property(), HypothesisClass.linear(3), np.random.default_rng(0))


@pytest.mark.parametrize("engine_cls", [EfficientForecaster, InefficientForecaster])
def test_member_values_evaluated_once_per_round(engine_cls, monkeypatch):
    grid = GridConfig(3, 40)
    cls = generate_group_indicators(4, 3, seed=5)
    calls = []
    real = cls.member_values
    monkeypatch.setattr(cls, "member_values", lambda x: calls.append(x) or real(x))
    engine = engine_cls(grid, mean_property(), cls, np.random.default_rng(3))
    adv = LogisticAdversary(default_logistic_weights(3))
    arng = np.random.default_rng(4)
    for _ in range(40):
        x = adv.next_context(arng)
        law = adv.next_label_law(x)
        engine.step(x, lambda: sample_label(law, arng))
    assert len(calls) == 40

import math

import numpy as np
import pytest

from swapcal.experts import ExpertState, expert_init, expert_update, expert_weights, rate_grid_for_horizon

# frozen contract constants, calibrated once over the adversarial battery
# below (worst observed ratio was about 0.51; 8 leaves an order of
# magnitude of headroom while staying well under the cap of 32)
CONTRACT_C1 = 8.0
CONTRACT_C2 = 8.0


def run_stream(K, T, gain_fn, seed=0):
    """Independent regret accountant kept outside the module under test."""
    state = expert_init(K, T)
    rng = np.random.default_rng(seed)
    cum_expert = np.zeros(K)
    cum_alg = 0.0
    squared = np.zeros(K)
    for t in range(T):
        w = expert_weights(state)
        g = np.asarray(gain_fn(t, w, rng), dtype=np.float64)
        cum_expert += g
        cum_alg += float(w @ g)
        squared += g * g
        expert_update(state, g)
    return cum_expert - cum_alg, squared


def assert_valid_distributions(state: ExpertState):
    table = np.exp(state.log_weights)
    master = np.exp(state.log_master)
    assert np.all(table >= 0)
    np.testing.assert_allclose(table.sum(axis=1), 1.0, atol=1e-9)
    assert master.sum() == pytest.approx(1.0, abs=1e-9)


def test_init_examples():
    s = expert_init(2, 1)
    assert s.rate_grid.shape == (1,)
    assert s.rate_grid[0] == 0.25
    np.testing.assert_allclose(expert_weights(s), [0.5, 0.5])

    s1 = expert_init(1, 100)
    np.testing.assert_allclose(expert_weights(s1), [1.0])

    s4 = expert_init(4, 16)
    assert s4.rate_grid.shape == (4,)  # ceil(log2 16)
    np.testing.assert_allclose(expert_weights(s4), np.full(4, 0.25))
    assert np.all(s4.rate_grid > 0) and np.all(s4.rate_grid <= 0.25)


def test_init_argument_errors():
    with pytest.raises(ValueError):
        expert_init(0, 5)
    with pytest.raises(ValueError):
        expert_init(5, 0)


def test_master_prior_proportional_to_rate_squared():
    s = expert_init(3, 1024)
    prior = np.exp(s.log_master)
    expected = s.rate_grid**2 / (s.rate_grid**2).sum()
    np.testing.assert_allclose(prior, expected, atol=1e-12)


def test_weights_unchanged_by_zero_gains():
    s = expert_init(3, 64)
    before = expert_weights(s).copy()
    expert_update(s, np.zeros(3))
    np.testing.assert_allclose(expert_weights(s), before, atol=1e-12)


def test_weights_unchanged_by_equal_gains():
    s = expert_init(5, 256)
    expert_update(s, np.full(5, 0.7))
    np.testing.assert_allclose(expert_weights(s), np.full(5, 0.2), atol=1e-12)


def test_update_favors_rewarded_expert():
    s = expert_init(3, 64)
    expert_update(s, np.array([0.0, 1.0, 0.0]))
    w = expert_weights(s)
    assert w[1] > w[0] and w[1] > w[2]


def test_single_rate_update_closed_form():
    # K=2, T=1: one rate eta = 1/4; gains (1, -1) multiply the uniform
    # weights by exp(0.1875) and exp(-0.3125) before normalization
    s = expert_init(2, 1)
    expert_update(s, np.array([1.0, -1.0]))
    up, down = math.exp(0.25 - 0.0625), math.exp(-0.25 - 0.0625)
    np.testing.assert_allclose(
        expert_weights(s), [up / (up + down), down / (up + down)], atol=1e-12
    )


def test_gain_domain_errors():
    s = expert_init(2, 8)
    with pytest.raises(ValueError):
        expert_update(s, np.array([1.5, 0.0]))
    with pytest.raises(ValueError):
        expert_update(s, np.array([float("nan"), 0.0]))
    with pytest.raises(ValueError):
        expert_update(s, np.array([1.0]))


def test_window_shape_errors():
    s = expert_init(12, 64)
    with pytest.raises(ValueError):
        expert_update(s, np.zeros(2), start=11)  # window past the last expert
    with pytest.raises(ValueError):
        expert_update(s, np.zeros(2), start=-1)
    with pytest.raises(ValueError):
        expert_update(s, np.array([0.0, float("nan")]), start=1)
    with pytest.raises(ValueError):
        expert_update(s, np.array([0.0, 1.5]), start=0)
    with pytest.raises(ValueError):
        expert_update(s, np.zeros(11))  # with no start the vector must cover all experts
    with pytest.raises(ValueError):
        expert_update(s, np.zeros(12), start=1)
    with pytest.raises(ValueError):
        expert_update(s, np.zeros((3, 2)), start=0)  # windows are 1-d
    with pytest.raises(ValueError):
        expert_update(s, np.zeros((1, 1, 12)))
    assert s.round == 0


def test_state_from_log_weights():
    log_weights = np.zeros((4, 3))
    log_weights[:, 0] = 2.0
    s = ExpertState(16, log_weights)
    first = math.exp(2.0) / (math.exp(2.0) + 2.0)
    np.testing.assert_allclose(expert_weights(s), [first, (1 - first) / 2, (1 - first) / 2], atol=1e-15)
    assert_valid_distributions(s)
    with pytest.raises(ValueError):
        ExpertState(16, np.zeros((3, 3)))  # the horizon's rate grid has 4 rates
    with pytest.raises(ValueError):
        ExpertState(16, np.full((4, 3), -np.inf))


class DenseReference:
    """Slow reference: the whole (J, K) table exponentiated and renormalized every round."""

    def __init__(self, K, T):
        self.eta = rate_grid_for_horizon(T)
        self.log_weights = np.full((self.eta.size, K), -math.log(K))
        prior = self.eta**2
        self.log_master = np.log(prior / prior.sum())
        self.table = np.exp(self.log_weights)
        self.master = np.exp(self.log_master)

    def weights(self):
        return self.master @ self.table

    def update(self, g):
        eta_col = self.eta[:, None]
        instance_gain = self.table @ g
        lw = self.log_weights
        lw += eta_col * g
        lw -= eta_col * eta_col * (g * g)
        table = np.exp(lw)
        z = table.sum(axis=1, keepdims=True)
        lw -= np.log(z)
        self.table = table / z
        scaled = self.eta * instance_gain
        lm = self.log_master
        lm += scaled - scaled * scaled
        master = np.exp(lm)
        m_z = float(master.sum())
        lm -= math.log(m_z)
        self.master = master / m_z


def assert_matches_dense(state, ref):
    np.testing.assert_allclose(expert_weights(state), ref.weights(), rtol=0, atol=1e-12)
    np.testing.assert_allclose(state.master_weights(), ref.master, rtol=0, atol=1e-12)


def windowed_stream(K, T, window_fn, seed=0):
    """Feed the same gains to both updates; window_fn(t, rng) -> (start, window)."""
    state = expert_init(K, T)
    ref = DenseReference(K, T)
    rng = np.random.default_rng(seed)
    for t in range(T):
        start, window = window_fn(t, rng)
        full = np.zeros(K)
        full[start : start + window.size] = window
        expert_update(state, window, start)
        ref.update(full)
        assert_matches_dense(state, ref)
    assert state.round == T
    return state


@pytest.mark.parametrize("rows,bins,T", [(1, 41, 8192), (32, 26, 4096)])
def test_window_update_matches_dense_reference(rows, bins, T):
    # the engines' pattern: one or two adjacent bins, both signs, each with
    # ``rows`` experts; T spans 16 or more re-anchors
    def window_fn(t, rng):
        lo = int(rng.integers(0, bins))
        width = min(int(rng.integers(1, 3)), bins - lo)
        window = rng.uniform(-1, 1, 2 * width * rows) * rng.choice([0.05, 0.5, 1.0])
        return 2 * lo * rows, window

    windowed_stream(2 * bins * rows, T, window_fn)


def test_window_update_matches_dense_under_drift():
    # a run of maximal gains on one window drives the row masses far from 1
    # and back, past the mass band that forces an early re-anchor
    def window_fn(t, rng):
        sign = 1.0 if (t // 600) % 2 == 0 else -1.0
        return 2, np.full(2, sign)

    windowed_stream(16, 1800, window_fn)


def test_random_windows_and_full_vectors_match_dense():
    K = 24
    state, ref = expert_init(K, 512), DenseReference(K, 512)
    rng = np.random.default_rng(9)
    for t in range(300):
        width = int(rng.integers(0, K + 1))
        start = int(rng.integers(0, K - width + 1))
        full = np.zeros(K)
        full[start : start + width] = rng.uniform(-1, 1, width)
        if rng.random() < 0.2:
            expert_update(state, full)
        else:
            expert_update(state, full[start : start + width], start)
        ref.update(full)
        assert_matches_dense(state, ref)
    np.testing.assert_allclose(np.exp(state.log_weights), ref.table, rtol=0, atol=1e-12)


def test_zero_and_empty_windows_match_dense():
    state, ref = expert_init(24, 64), DenseReference(24, 64)
    rng = np.random.default_rng(5)
    for t in range(40):
        window = rng.uniform(-1, 1, 6)
        full = np.zeros(24)
        full[12:18] = window
        expert_update(state, window, 12)
        ref.update(full)
    before = expert_weights(state).copy()
    expert_update(state, np.zeros(6), 12)  # all-zero round
    ref.update(np.zeros(24))
    assert_matches_dense(state, ref)
    expert_update(state, np.zeros(0), 24)  # empty window at the end of the experts
    ref.update(np.zeros(24))
    assert_matches_dense(state, ref)
    np.testing.assert_allclose(expert_weights(state), before, rtol=0, atol=1e-12)
    assert state.round == 42


def test_distributions_stay_valid_under_updates():
    s = expert_init(6, 512)
    rng = np.random.default_rng(2)
    for _ in range(200):
        expert_update(s, rng.uniform(-1, 1, 6))
    assert_valid_distributions(s)
    assert s.round == 200


def test_round_counter_and_rate_grid_size():
    for T, expected in ((1, 1), (2, 1), (3, 2), (16, 4), (2**15, 15)):
        s = expert_init(2, T)
        assert s.rate_grid.shape == (expected,)


@pytest.mark.parametrize(
    "name,K,T,gain_fn",
    [
        ("iid_rademacher", 16, 4096, lambda t, w, rng: rng.choice([-1.0, 1.0], 16)),
        ("uniform_noise", 8, 4096, lambda t, w, rng: rng.uniform(-1, 1, 8)),
        (
            "drift_vs_oscillation",
            16,
            4096,
            lambda t, w, rng: np.array([0.1, 1.0 if t % 2 == 0 else -1.0] + [0.0] * 14),
        ),
        (
            "block_switching",
            16,
            4096,
            lambda t, w, rng: np.where(np.arange(16) == (t // 256) % 16, 1.0, -0.2),
        ),
        (
            "adaptive_anti_weight",
            16,
            4096,
            lambda t, w, rng: np.where(w < np.median(w), 1.0, -1.0),
        ),
        (
            "zero_expert_among_noise",
            16,
            4096,
            lambda t, w, rng: np.concatenate([rng.uniform(-1, 1, 15), [0.0]]),
        ),
    ],
)
def test_second_order_regret_contract(name, K, T, gain_fn):
    regret, squared = run_stream(K, T, gain_fn)
    log_kt = math.log(K * T)
    bound = CONTRACT_C1 * np.sqrt(squared * log_kt) + CONTRACT_C2 * log_kt
    assert np.all(regret <= bound), f"{name}: regret {regret.max()} exceeds contract"


def test_sparse_expert_scale_exponent():
    # regret against an expert active in V rounds grows like V**e with e <= 0.6
    K, T = 16, 2**15
    regrets = []
    for V in (100, 400, 1600):
        gap = T // V

        def gain_fn(t, w, rng, gap=gap, V=V):
            g = np.zeros(K)
            if t % gap == 0 and t // gap < V:
                g[3] = 1.0
            return g

        regret, _ = run_stream(K, T, gain_fn)
        regrets.append(max(regret[3], 1e-9))
    logs_v = np.log([100.0, 400.0, 1600.0])
    logs_r = np.log(regrets)
    slope = float(np.polyfit(logs_v, logs_r, 1)[0])
    assert slope <= 0.6

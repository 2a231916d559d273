"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Every tolerance is pinned here; nothing defers to
later calibration.
"""

import math
import time

import numpy as np
import pytest

from swapcal.adversaries import LogisticAdversary, default_logistic_weights, sample_label
from swapcal.engine import EfficientForecaster, GridConfig, solve_distribution
from swapcal.experts import expert_init, expert_update, expert_weights
from swapcal.harness import ExperimentConfig, audit_result, fit_power_law, run, sweep
from swapcal.hypotheses import HypothesisClass, generate_group_indicators
from swapcal.learners import FiniteLearnerBank, LinearLearnerBank
from swapcal.metrics import aggregate, cal, mcal, smcal
from swapcal.properties import mean_property

from helpers import row_regret
from test_metrics import brute_force_smcal, random_transcript


def verdict(number, ok, detail):
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'}  {detail}", flush=True)
    assert ok, f"criterion {number}: {detail}"


def hedging_config(property_spec, adversary, seed=42):
    return ExperimentConfig(
        engine="efficient",
        property_spec=property_spec,
        class_spec="finite:groups=8,dim=4,seed=3",
        adversary=adversary,
        T=10**4,
        r=2.0,
        seed=seed,
        N=22,
    )


def test_criterion_1_hedging_invariant():
    # mean, bernoulli-logistic labels, rho = 1
    start = time.perf_counter()
    res = run(hedging_config("mean", {"kind": "logistic", "dim": 4}))
    report = audit_result(res)
    mean_wall = time.perf_counter() - start
    ok_mean = report.passed and res.rho == 1.0 and mean_wall < 10.0

    # quantile 0.5, beta(2, 2) labels, rho = 3/2
    start = time.perf_counter()
    res_q = run(hedging_config("quantile:q=0.5,rho=1.5", {"kind": "beta", "dim": 4, "a": 2.0, "b": 2.0}))
    report_q = audit_result(res_q)
    quantile_wall = time.perf_counter() - start
    ok_quantile = report_q.passed and abs(res_q.rho - 1.5) < 1e-9 and quantile_wall < 10.0

    verdict(
        1,
        ok_mean and ok_quantile,
        f"mean max={report.max_value:.2e} bound={report.bound:.2e} wall={mean_wall:.1f}s; "
        f"quantile max={report_q.max_value:.2e} bound={report_q.bound:.2e} wall={quantile_wall:.1f}s",
    )


def test_criterion_2_two_point_distribution_validity():
    rng = np.random.default_rng(2024)
    trials = 10**4
    failures = 0
    for _ in range(trials):
        N = int(rng.integers(2, 65))
        T = int(rng.integers(N, 10**4 + 1))
        grid = GridConfig(N, T)
        phi = rng.uniform(-1.0, 1.0, N)
        lo, hi, p_lo, p_hi = solve_distribution(phi, grid)
        ok = abs(p_lo + p_hi - 1.0) <= 1e-12 and p_lo > 0 and (p_hi > 0 if hi != lo else p_hi == 0.0)
        ok &= 0 <= lo <= hi <= T
        if phi[0] > 0.0:
            ok &= (lo, hi) == (0, 0)
        elif phi[-1] <= 0.0:
            ok &= (lo, hi) == (T, T)
        else:
            if hi != lo:
                ok &= hi - lo == 1
                ok &= phi[grid.bin_of_index(lo) - 1] * phi[grid.bin_of_index(hi) - 1] <= 0.0
            else:
                ok &= phi[grid.bin_of_index(lo) - 1] == 0.0
        failures += not ok
    verdict(2, failures == 0, f"{trials} random profiles, {failures} violations")


STREAMS = (
    ("iid_sign", lambda t, q, rng: float(rng.choice([-1.0, 1.0]))),
    ("anti_predict", lambda t, q, rng: -math.copysign(1.0, q) if q != 0 else float(rng.choice([-1.0, 1.0]))),
)


def test_criterion_3_oal_regret():
    n = 10**4
    details = []
    ok = True
    for size in (2, 8, 16):
        cls = generate_group_indicators(size, 4, seed=11)
        bound = 2.0 * math.sqrt(n * math.log(size))
        start = time.perf_counter()
        worst = max(row_regret(FiniteLearnerBank(cls, 2), n, fn, seed=1, dim=4) for _, fn in STREAMS)
        wall = time.perf_counter() - start
        ok &= worst <= bound and wall < 5.0
        details.append(f"|F|={size}: {worst:.0f}<={bound:.0f} ({wall:.1f}s)")
    for dim in (2, 16):
        bound = 3.0 * math.sqrt(n)
        start = time.perf_counter()
        worst = max(row_regret(LinearLearnerBank(dim, 2), n, fn, seed=2, dim=dim) for _, fn in STREAMS)
        wall = time.perf_counter() - start
        ok &= worst <= bound and wall < 5.0
        details.append(f"d={dim}: {worst:.0f}<={bound:.0f} ({wall:.1f}s)")
    verdict(3, ok, "; ".join(details))


def test_criterion_4_expert_second_order_regret():
    K, T = 16, 2**15
    log_kt = math.log(K * T)
    regrets = []
    ok = True
    for V in (100, 400, 1600):
        gap = T // V
        state = expert_init(K, T)
        cum_expert = 0.0
        cum_alg = 0.0
        for t in range(T):
            w = expert_weights(state)
            g = np.zeros(K)
            if t % gap == 0 and t // gap < V:
                g[3] = 1.0
            cum_expert += g[3]
            cum_alg += float(w @ g)
            expert_update(state, g)
        regret = cum_expert - cum_alg
        bound = 32.0 * (math.sqrt(V * log_kt) + log_kt)
        ok &= regret <= bound
        regrets.append(max(regret, 1e-9))
    slope = float(np.polyfit(np.log([100.0, 400.0, 1600.0]), np.log(regrets), 1)[0])
    ok &= slope <= 0.6
    verdict(4, ok, f"regrets={[f'{r:.1f}' for r in regrets]} exponent={slope:.3f}<=0.6")


def rate_sweep_config(class_spec, dim, seed=0):
    return ExperimentConfig(
        engine="efficient",
        property_spec="mean",
        class_spec=class_spec,
        adversary={"kind": "logistic", "dim": dim},
        T=4096,
        r=2.0,
        seed=seed,
    )


SWEEP_T = [2**k for k in range(12, 18)]
SWEEP_SEEDS = [0, 1, 2, 3, 4]


def test_criterion_5_finite_class_rate():
    start = time.perf_counter()
    report = sweep(rate_sweep_config("finite:groups=8,dim=4,seed=101", 4), SWEEP_T, SWEEP_SEEDS)
    wall = time.perf_counter() - start
    ok = report.slope <= 0.45 and wall < 600.0
    verdict(5, ok, f"slope={report.slope:.3f}<=0.45 stderr={report.slope_stderr:.3f} wall={wall:.0f}s")


def test_criterion_6_linear_class_rate():
    start = time.perf_counter()
    base = rate_sweep_config("linear:dim=8", 8)
    report = sweep(base, SWEEP_T, SWEEP_SEEDS)
    # refit the same runs at r = 1 through the persisted row metrics:
    # rerun cheaply by recomputing smcal_1 per cell from fresh runs would
    # double the wall time, so collect both orders in one pass instead
    ok = report.slope <= 0.45
    means_r1 = []
    for T in SWEEP_T:
        vals = []
        for seed in SWEEP_SEEDS:
            cfg = ExperimentConfig(
                engine="efficient",
                property_spec="mean",
                class_spec="linear:dim=8",
                adversary={"kind": "logistic", "dim": 8},
                T=T,
                r=1.0,
                seed=seed,
            )
            vals.append(run(cfg).metrics["smcal"])
        means_r1.append(float(np.mean(vals)))
    slope_r1, _, _ = fit_power_law(SWEEP_T, means_r1)
    wall = time.perf_counter() - start
    ok &= slope_r1 <= 0.75 and wall < 1200.0
    verdict(6, ok, f"smcal2 slope={report.slope:.3f}<=0.45; smcal1 slope={slope_r1:.3f}<=0.75 wall={wall:.0f}s")


def test_criterion_7_metric_identities():
    rng = np.random.default_rng(7)
    prop = mean_property()
    cls = generate_group_indicators(4, 3, seed=6)
    worst_rel = 0.0
    ok = True
    for k in range(10**3):
        tr = random_transcript(rng, N=5, T=40)
        agg = aggregate(tr, prop, cls)
        s1, s2 = smcal(agg, 1.0), smcal(agg, 2.0)
        m1, m2 = mcal(agg, 1.0), mcal(agg, 2.0)
        ok &= s2 >= m2 >= 0.0 and s1 >= m1 >= 0.0
        ok &= s1 <= math.sqrt(len(tr) * s2) + 1e-9
        singleton = aggregate(tr, prop, HypothesisClass.singleton())
        ok &= cal(tr, prop, 2.0) == mcal(singleton, 2.0)
        if k % 10 == 0:  # brute force on a tenth of the corpus keeps this fast
            oracle = brute_force_smcal(tr, prop, cls, 2.0)
            rel = abs(s2 - oracle) / max(oracle, 1e-300)
            worst_rel = max(worst_rel, rel)
            ok &= rel <= 1e-12
        if not ok:
            break
    verdict(7, ok, f"1000 transcripts; worst brute-force gap {worst_rel:.2e}")


def test_criterion_8_cross_engine_sanity():
    base = dict(
        property_spec="mean",
        class_spec="finite:groups=4,dim=4,seed=5",
        adversary={"kind": "logistic", "dim": 4},
        T=2**14,
        r=2.0,
        seed=7,
    )
    res_eff = run(ExperimentConfig(engine="efficient", **base))
    res_ine = run(ExperimentConfig(engine="inefficient", **base))
    a, b = res_eff.metrics["smcal"], res_ine.metrics["smcal"]
    ratio = max(a / b, b / a)
    audits = audit_result(res_eff).passed and audit_result(res_ine).passed
    ok = ratio <= 3.0 and audits
    verdict(8, ok, f"smcal efficient={a:.2f} inefficient={b:.2f} ratio={ratio:.2f}<=3 audits={'pass' if audits else 'fail'}")


def test_criterion_9_determinism_and_throughput(tmp_path):
    cfg = ExperimentConfig(
        engine="efficient",
        property_spec="mean",
        class_spec="linear:dim=16",
        adversary={"kind": "logistic", "dim": 16},
        T=2000,
        r=2.0,
        seed=123,
        N=64,
    )
    run(cfg, out_dir=tmp_path / "a")
    run(cfg, out_dir=tmp_path / "b")
    identical = (tmp_path / "a" / "transcript.csv").read_bytes() == (tmp_path / "b" / "transcript.csv").read_bytes()

    # sustained throughput at N=64, d=16: best sustained window of three
    T = 20000
    prop = mean_property()
    cls = HypothesisClass.linear(16)
    adv = LogisticAdversary(default_logistic_weights(16))
    best = 0.0
    for attempt in range(3):
        grid = GridConfig(64, T)
        engine = EfficientForecaster(grid, prop, cls, np.random.default_rng(attempt))
        arng = np.random.default_rng(attempt + 100)
        start = time.perf_counter()
        for _ in range(T):
            x = adv.next_context(arng)
            law = adv.next_label_law(x)
            engine.step(x, lambda: sample_label(law, arng))
        best = max(best, T / (time.perf_counter() - start))
    ok = identical and best >= 10**4
    verdict(9, ok, f"byte-identical={identical} throughput={best:.0f} rounds/s >= 10000")

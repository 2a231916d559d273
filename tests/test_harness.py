import json
import math

import numpy as np
import pytest

import swapcal.harness as harness
from swapcal.cli import main as cli_main
from swapcal.engine import GridConfig
from swapcal.harness import (
    ConfigError,
    ExperimentConfig,
    audit_result,
    audit_run_dir,
    audit_values,
    component_streams,
    compute_metrics_for_run_dir,
    fit_power_law,
    read_csv,
    run,
    sweep,
)
from swapcal.properties import (
    LabelLaw,
    LawColumns,
    Property,
    bernoulli_law,
    beta_law,
    marginal_identification,
    mean_property,
    parse_property,
    point_mass_law,
)
from helpers import dense_gains, record_fed_gains


def audit_round(
    prop: Property,
    grid: GridConfig,
    law: LabelLaw,
    support_lo: float,
    support_hi: float,
    prob_lo: float,
    phi_row: np.ndarray,
) -> float:
    """Recompute E_{p ~ P_t}[phi_t(p) * marginal residual(p, law)] for one round.

    The scalar form of ``harness.audit_values``, kept as its reference.
    """
    # support points sit exactly on the 1/T grid; recover the integer index
    # so bin membership matches the engine's exact arithmetic
    j_lo = round(support_lo * grid.T)
    value = prob_lo * phi_row[grid.bin_of_index(j_lo) - 1] * marginal_identification(prop, support_lo, law)
    if support_hi != support_lo:
        j_hi = round(support_hi * grid.T)
        value += (1.0 - prob_lo) * phi_row[grid.bin_of_index(j_hi) - 1] * marginal_identification(
            prop, support_hi, law
        )
    return float(value)


def small_config(**overrides):
    raw = {
        "engine": "efficient",
        "property": "mean",
        "hypothesis_class": "finite:groups=4,dim=3,seed=3",
        "adversary": {"kind": "logistic", "dim": 3},
        "T": 200,
        "r": 2.0,
        "seed": 11,
    }
    raw.update(overrides)
    return ExperimentConfig.from_dict(raw)


def test_config_validation_errors():
    with pytest.raises(ConfigError, match="unknown config keys"):
        small_config(bogus=1)
    with pytest.raises(ConfigError, match=r"unknown config keys: \['log_phi'\]"):
        small_config(log_phi=False)  # the removed profile log is an unknown key like any other
    with pytest.raises(ConfigError, match="missing config keys"):
        ExperimentConfig.from_dict({"engine": "efficient"})
    with pytest.raises(ConfigError, match="engine"):
        small_config(engine="quantum")
    with pytest.raises(ConfigError, match="N"):
        small_config(N=500)
    with pytest.raises(ConfigError, match="property"):
        small_config(property="variance")
    with pytest.raises(ConfigError, match="hypothesis_class"):
        small_config(hypothesis_class="finite:groups=4")
    with pytest.raises(ConfigError, match="adversary"):
        small_config(adversary={"kind": "logistic"})
    with pytest.raises(ConfigError, match="adversary"):
        small_config(property="quantile:q=0.5")  # step-CDF labels for a quantile
    with pytest.raises(ConfigError, match="engine"):
        small_config(engine="inefficient", hypothesis_class="linear:dim=3")
    for r in (0.5, "nan", "inf", float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="r: must be a finite number at least 1"):
            small_config(r=r)
    with pytest.raises(ConfigError, match="seed: must be a non-negative integer"):
        small_config(seed=-3)


@pytest.mark.parametrize("key,value", [("T", 64.9), ("N", 4.5), ("seed", 1.7)])
def test_config_rejects_a_count_that_int_would_truncate(key, value):
    with pytest.raises(ConfigError, match=f"{key}: must be a whole number, got {value}"):
        small_config(**{key: value})
    assert small_config(**{key: float(int(value))}).to_dict()[key] == int(value)  # a whole float is that integer


@pytest.mark.parametrize(
    "hypothesis_class,error",
    [
        ("linear:dim=16", "needs contexts of dim 16, the adversary emits dim 4"),
        ("finite:groups=8,dim=8", "needs contexts of at least dim 8, the adversary emits dim 4"),
        ("finite:groups=8,dim=2", None),  # reads coordinates 0 and 1 of the four
    ],
)
def test_cli_checks_the_class_against_the_adversary_dim(tmp_path, capsys, hypothesis_class, error):
    cfg_path = write_config(tmp_path, hypothesis_class=hypothesis_class, adversary={"kind": "logistic", "dim": 4})
    out_dir = tmp_path / "out"
    code = cli_main(["run", "--config", str(cfg_path), "--out", str(out_dir)])
    if error is None:
        assert code == 0 and (out_dir / "transcript.csv").exists()
    else:
        assert code == 1 and f"config error: hypothesis_class: {error}" in capsys.readouterr().err
        assert not out_dir.exists()


def test_default_bin_count_from_config():
    cfg = small_config(T=1000)
    assert cfg.bin_count == 10
    cfg = small_config(T=1000, N=22)
    assert cfg.bin_count == 22


def test_component_streams_are_stable_and_independent():
    a = component_streams(7)
    b = component_streams(7)
    assert a["engine"].random() == b["engine"].random()
    assert a["adversary"].random() == b["adversary"].random()
    # consuming one stream never perturbs another
    c = component_streams(7)
    [c["engine"].random() for _ in range(100)]
    d = component_streams(7)
    assert c["adversary"].random() == d["adversary"].random()


def test_run_smoke_single_round():
    cfg = small_config(T=1, N=1)
    res = run(cfg)
    assert len(res.transcript) == 1
    assert math.isfinite(res.metrics["smcal"])
    assert math.isfinite(res.metrics["cal"])


def test_run_is_deterministic_in_memory():
    cfg = small_config()
    m1 = run(cfg).metrics
    m2 = run(cfg).metrics
    assert m1 == m2


def test_persisted_files_are_byte_identical(tmp_path):
    cfg = small_config()
    run(cfg, out_dir=tmp_path / "a")
    run(cfg, out_dir=tmp_path / "b")
    for name in ("transcript.csv", "contexts.csv", "laws.csv", "metrics.csv", "config.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name


def test_transcript_round_trip(tmp_path):
    cfg = small_config()
    res = run(cfg, out_dir=tmp_path)
    header, rows = read_csv(tmp_path / "transcript.csv")
    assert header == ["t", "p_tilde", "bin", "p", "y", "j_lo", "j_hi", "prob_lo", "phi_lo", "phi_hi"]
    tr = res.transcript
    grid = tr.grid
    for t, row in enumerate(rows):
        assert int(row[0]) == t + 1
        assert float(row[1]) == tr.p_tilde[t]
        assert int(row[2]) == tr.bins[t]
        assert float(row[3]) == tr.p[t]
        assert float(row[4]) == tr.y[t]
        assert int(row[5]) == tr.j_lo[t] and int(row[5]) / grid.T == tr.support_lo[t]
        assert int(row[6]) == tr.j_hi[t] and int(row[6]) / grid.T == tr.support_hi[t]
        assert float(row[7]) == tr.prob_lo[t]
        assert float(row[8]) == tr.phi_lo[t]
        assert float(row[9]) == tr.phi_hi[t]


def test_metrics_recomputation_round_trip(tmp_path):
    cfg = small_config()
    res = run(cfg, out_dir=tmp_path)
    rows = compute_metrics_for_run_dir(tmp_path, [2.0])
    assert rows[0]["cal"] == pytest.approx(res.metrics["cal"], rel=1e-12)
    assert rows[0]["mcal"] == pytest.approx(res.metrics["mcal"], rel=1e-12)
    assert rows[0]["smcal"] == pytest.approx(res.metrics["smcal"], rel=1e-12)


def test_audit_worked_example():
    # two-point law {0.4: 1/3, 0.5: 2/3}, mean against a fair coin,
    # phi = (-0.5, +0.25): value = (1/3)(-0.5)(-0.1) + (2/3)(0.25)(0) = 1/60
    grid = GridConfig(2, 10)
    value = audit_round(
        mean_property(), grid, bernoulli_law(0.5), 0.4, 0.5, 1.0 / 3.0, np.array([-0.5, 0.25])
    )
    assert value == pytest.approx(1.0 / 60.0)
    assert value <= 1.0 / grid.T


def test_audit_point_mass_at_zero_is_never_positive():
    # a point mass at 0 is chosen only when phi(0) > 0, and the marginal
    # residual at 0 is nonpositive for every valid law
    grid = GridConfig(2, 10)
    for mu in (0.0, 0.3, 1.0):
        value = audit_round(
            mean_property(), grid, bernoulli_law(mu), 0.0, 0.0, 1.0, np.array([0.8, -0.1])
        )
        assert value <= 0.0


def test_audit_passes_on_fresh_run():
    res = run(small_config(T=500))
    report = audit_result(res)
    assert report.passed
    assert report.max_value <= report.bound
    assert len(report.values) == 500


def test_audit_run_dir_and_csv(tmp_path):
    cfg = small_config(T=300)
    run(cfg, out_dir=tmp_path)
    report = audit_run_dir(tmp_path)
    assert report.passed
    header, rows = read_csv(tmp_path / "audit.csv")
    assert header == ["t", "value", "bound", "ok"]
    assert len(rows) == 300


def test_audit_passes_without_phi_log(tmp_path):
    cfg = small_config(T=50)
    run(cfg, out_dir=tmp_path)
    assert not (tmp_path / "phi.csv").exists()
    assert audit_run_dir(tmp_path).passed


@pytest.mark.parametrize("audited_before", [False, True])
def test_audit_of_run_dir_equals_in_memory_audit(tmp_path, audited_before):
    """With audited_before, an audit.csv from an earlier audit lies in the run dir and must not change the result."""
    cfg = small_config(T=400, property="quantile:q=0.3", adversary={"kind": "beta", "dim": 3, "a": 2.0, "b": 3.0})
    res = run(cfg, out_dir=tmp_path)
    if audited_before:
        audit_run_dir(tmp_path)
        assert (tmp_path / "audit.csv").exists()
    in_memory, on_disk = audit_result(res), audit_run_dir(tmp_path)
    assert on_disk.values.view(np.int64).tolist() == in_memory.values.view(np.int64).tolist()
    assert (on_disk.bound, on_disk.max_value, on_disk.passed) == (in_memory.bound, in_memory.max_value, True)


def _random_audit_rounds(rng, grid, n):
    """Rounds with one- and two-point supports, j = 0 and j = T included, and signed zeros in phi."""
    T = grid.T
    j_lo = rng.integers(0, T + 1, n)
    j_lo[:4] = (0, 0, T, T - 1)
    two = rng.random(n) < 0.6
    two[:4] = (False, True, False, True)
    j_hi = np.where(two & (j_lo < T), j_lo + 1, j_lo)
    prob_lo = np.where(j_hi > j_lo, rng.uniform(0.01, 1.0, n), 1.0)
    phi = rng.uniform(-1.0, 1.0, (n, grid.N))
    phi[rng.random((n, grid.N)) < 0.15] = 0.0
    phi[rng.random((n, grid.N)) < 0.15] = -0.0
    return j_lo, j_hi, prob_lo, phi


@pytest.mark.parametrize("property_spec", ["mean", "quantile:q=0.3", "expectile:tau=0.3", "moment:k=3"])
def test_batched_audit_equals_scalar_reference_bit_for_bit(property_spec):
    prop = parse_property(property_spec)
    grid = GridConfig(7, 40)
    rng = np.random.default_rng(17)
    n = 600
    j_lo, j_hi, prob_lo, phi = _random_audit_rounds(rng, grid, n)
    laws = []
    for t in range(n):
        kind = t % 3
        if kind == 0:
            laws.append(bernoulli_law(float(rng.choice([0.0, 1.0, rng.random()]))))
        elif kind == 1:
            laws.append(beta_law(rng.uniform(0.2, 5.0), rng.uniform(0.2, 5.0)))
        else:  # point masses on and off the grid
            laws.append(point_mass_law(float(rng.choice([j_lo[t] / grid.T, rng.random()]))))
    groups = []
    for kind in ("bernoulli", "beta", "point_mass"):
        rows = np.flatnonzero([law.kind == kind for law in laws])
        params = tuple(np.array([laws[t].params[k] for t in rows]) for k in range(len(laws[rows[0]].params)))
        groups.append((rows, LawColumns(kind, params)))
    rounds = {
        "j_lo": j_lo,
        "j_hi": j_hi,
        "prob_lo": prob_lo,
        "phi_lo": np.array([phi[t, grid.bin_of_index(int(j_lo[t])) - 1] for t in range(n)]),
        "phi_hi": np.array([phi[t, grid.bin_of_index(int(j_hi[t])) - 1] for t in range(n)]),
    }
    batched = audit_values(prop, grid, groups, rounds)
    reference = np.array(
        [audit_round(prop, grid, laws[t], j_lo[t] / grid.T, j_hi[t] / grid.T, prob_lo[t], phi[t]) for t in range(n)]
    )
    assert batched.view(np.int64).tolist() == reference.view(np.int64).tolist()
    assert np.signbit(reference[reference == 0.0]).any()  # the signed-zero case was exercised


def test_fed_gain_replay_matches_engine_log(monkeypatch):
    from swapcal.engine import gains_efficient

    fed_log = record_fed_gains(monkeypatch)
    cfg = small_config(T=150)
    res = run(cfg)
    prop, _, _ = cfg.build_components()
    tr = res.transcript
    grid = tr.grid
    assert len(fed_log) == len(tr)
    for t, entry in enumerate(fed_log):
        j_lo, j_hi, prob_lo = int(tr.j_lo[t]), int(tr.j_hi[t]), float(tr.prob_lo[t])
        law = (j_lo, j_hi, prob_lo, 1.0 - prob_lo if j_hi != j_lo else 0.0)
        replayed = dense_gains(gains_efficient(law, prop, entry["args"][2], float(tr.y[t]), grid), entry["fed"].size)
        np.testing.assert_allclose(replayed, entry["fed"], rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "property_spec,adversary",
    [
        ("expectile:tau=0.3", {"kind": "logistic", "dim": 3}),
        ("moment:k=2", {"kind": "beta", "dim": 3, "a": 2.0, "b": 2.0}),
        ("mean", {"kind": "deficit", "dim": 3, "aggressiveness": 0.8}),
    ],
)
def test_other_properties_run_and_audit(property_spec, adversary):
    cfg = small_config(T=600, property=property_spec, adversary=adversary)
    res = run(cfg)
    assert math.isfinite(res.metrics["smcal"])
    report = audit_result(res)
    assert report.passed, f"{property_spec}: max {report.max_value} vs {report.bound}"


def test_fit_power_law_exact_recovery():
    T_values = [4096, 16384, 65536]
    y = [t ** (1.0 / 3.0) for t in T_values]
    slope, stderr, residual = fit_power_law(T_values, y)
    assert slope == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert residual == pytest.approx(0.0, abs=1e-12)
    flat_slope, _, _ = fit_power_law(T_values, [5.0, 5.0, 5.0])
    assert flat_slope == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        fit_power_law([10, 10, 10], [1, 1, 1])


def test_sweep_runs_and_fits(tmp_path):
    cfg = small_config(T=64)
    report = sweep(cfg, [64, 128, 256], [1, 2], out_dir=tmp_path)
    assert len(report.rows) == 6
    assert (tmp_path / "sweep.csv").exists()
    assert (tmp_path / "sweep_fit.csv").exists()
    header, rows = read_csv(tmp_path / "sweep.csv")
    assert header == ["T", "N", "seed", "smcal", "mcal", "cal", "wall_time"]
    assert len(rows) == 6
    # N recomputed per horizon from the default tuning
    assert {int(r[1]) for r in rows} == {4, 6, 7}
    with pytest.raises(ValueError):
        sweep(cfg, [64, 128], [1])


def write_config(tmp_path, **overrides):
    raw = {
        "engine": "efficient",
        "property": "mean",
        "hypothesis_class": "finite:groups=4,dim=3,seed=3",
        "adversary": {"kind": "logistic", "dim": 3},
        "T": 120,
        "r": 2.0,
        "seed": 5,
    }
    raw.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


def test_cli_run_audit_metrics(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    out_dir = tmp_path / "out"
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
    assert (out_dir / "transcript.csv").exists()
    assert cli_main(["audit", "--run", str(out_dir)]) == 0
    assert (out_dir / "audit.csv").exists()
    assert cli_main(["metrics", "--run", str(out_dir), "--r", "1,2,4", "--per-bin"]) == 0
    header, rows = read_csv(out_dir / "metrics.csv")
    assert [float(r[4]) for r in rows] == [1.0, 2.0, 4.0]
    bin_header, bin_rows = read_csv(out_dir / "metrics_bins.csv")
    assert bin_header == ["bin", "n", "sup_correlation"]
    assert sum(int(r[1]) for r in bin_rows) == 120
    out = capsys.readouterr().out
    assert "audit:" in out and "PASS" in out


def test_cli_seed_override_changes_transcript(tmp_path):
    cfg_path = write_config(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(a)]) == 0
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(b), "--seed", "99"]) == 0
    assert (a / "transcript.csv").read_bytes() != (b / "transcript.csv").read_bytes()


def test_cli_sweep(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    out_dir = tmp_path / "sweep_out"
    code = cli_main(
        ["sweep", "--config", str(cfg_path), "--T", "64,128,256", "--seeds", "2", "--out", str(out_dir)]
    )
    assert code == 0
    assert "slope=" in capsys.readouterr().out
    assert (out_dir / "sweep.csv").exists()


def test_cli_usage_and_config_errors(tmp_path, capsys):
    assert cli_main(["run", "--config", str(tmp_path / "missing.json")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"engine": "efficient"}))
    assert cli_main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
    assert cli_main(["bogus-subcommand"]) == 1
    capsys.readouterr()
    cfg_path = write_config(tmp_path)
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o"), "--seed", "-3"]) == 1
    assert "config error: seed" in capsys.readouterr().err


def _edit_row(path, t, **values):
    """Overwrite named columns of round t in a per-round log."""
    lines = path.read_text().splitlines()
    header, row = lines[0].split(","), lines[t].split(",")
    for name, value in values.items():
        row[header.index(name)] = str(value)
    lines[t] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")


def test_cli_audit_failure_exit_code(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    out_dir = tmp_path / "out"
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
    # move round 1 to the point mass at p = 1 with phi = 1 there: the mean
    # residual 1 - mu of its logistic law is far above rho/T
    cfg = ExperimentConfig.from_json(cfg_path)
    T, N = cfg.T, cfg.bin_count
    _edit_row(out_dir / "transcript.csv", 1, p_tilde=1.0, bin=N, p=1.0, j_lo=T, j_hi=T, prob_lo=1.0, phi_lo=1.0, phi_hi=1.0)
    capsys.readouterr()
    assert cli_main(["audit", "--run", str(out_dir)]) == 2
    assert "FAIL" in capsys.readouterr().out


def _truncate(path, keep_rows):
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[: keep_rows + 1]) + "\n")


@pytest.mark.parametrize("log_name", ["transcript.csv", "laws.csv"])
def test_cli_audit_rejects_truncated_logs(tmp_path, capsys, log_name):
    cfg_path = write_config(tmp_path, T=300)
    out_dir = tmp_path / "out"
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
    _truncate(out_dir / log_name, 100)
    capsys.readouterr()
    assert cli_main(["audit", "--run", str(out_dir)]) == 2
    captured = capsys.readouterr()
    assert "PASS" not in captured.out
    assert log_name in captured.err and "T=300" in captured.err
    (out_dir / log_name).write_text("")
    assert cli_main(["audit", "--run", str(out_dir)]) == 2
    assert f"{log_name} is empty" in capsys.readouterr().err
    with pytest.raises(ValueError, match=log_name):
        audit_run_dir(out_dir)


def test_run_dir_readers_reject_misnumbered_or_partial_rows(tmp_path):
    cfg = small_config(T=50)
    run(cfg, out_dir=tmp_path)
    tr_path = tmp_path / "transcript.csv"
    original = tr_path.read_text()
    lines = original.splitlines()
    lines[3], lines[4] = lines[4], lines[3]  # rounds out of order
    tr_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="round 3"):
        audit_run_dir(tmp_path)
    with pytest.raises(ValueError, match="round 3"):
        compute_metrics_for_run_dir(tmp_path, [2.0])
    lines = original.splitlines()
    lines[-1] = lines[-1].rsplit(",", 1)[0]  # last record cut mid-line
    tr_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="round 50"):
        audit_run_dir(tmp_path)
    tr_path.write_text(original)
    _truncate(tmp_path / "contexts.csv", 49)
    with pytest.raises(ValueError, match="contexts.csv"):
        compute_metrics_for_run_dir(tmp_path, [2.0])


@pytest.mark.parametrize("horizons", ["64,128,32", "64,128,0", "64,128", "64,abc,256", "64,128,64,256"])
def test_cli_sweep_rejects_a_bad_horizon_before_any_cell_runs(tmp_path, capsys, monkeypatch, horizons):
    # N = 64 is above the horizon 32, and 0 is no horizon: each cell's config is checked up front;
    # two horizons allow no fit, abc is no number, and a repeated horizon would count twice in the fit
    cells = []
    real_run = harness.run
    monkeypatch.setattr(harness, "run", lambda cfg, *args, **kwargs: cells.append(cfg) or real_run(cfg, *args, **kwargs))
    cfg_path = write_config(tmp_path, N=64)
    out_dir = tmp_path / "sweep_out"
    assert cli_main(["sweep", "--config", str(cfg_path), "--T", horizons, "--out", str(out_dir)]) == 1
    captured = capsys.readouterr()
    assert "slope=" not in captured.out and "config error:" in captured.err
    assert cells == [] and not out_dir.exists()


def test_sweep_rejects_an_empty_seed_list(tmp_path, capsys):
    with pytest.raises(ValueError, match="seed"):
        sweep(small_config(T=64), [64, 128, 256], [])
    cfg_path = write_config(tmp_path)
    assert cli_main(["sweep", "--config", str(cfg_path), "--T", "64,128,256", "--seeds", "0"]) == 1
    captured = capsys.readouterr()
    assert "slope=" not in captured.out and "seed" in captured.err


@pytest.mark.parametrize("label", ["nan", "5.0"])
def test_cli_metrics_rejects_a_label_outside_the_unit_interval(tmp_path, capsys, label):
    cfg_path = write_config(tmp_path, T=300)
    out_dir = tmp_path / "out"
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
    tr_path = out_dir / "transcript.csv"
    lines = tr_path.read_text().splitlines()
    row = lines[7].split(",")
    row[4] = label  # y of round 7
    lines[7] = ",".join(row)
    tr_path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert cli_main(["metrics", "--run", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert "transcript.csv" in err and "row 7" in err and "column y" in err


def _persisted_run(tmp_path, **overrides):
    cfg_path = write_config(tmp_path, T=300, **overrides)
    out_dir = tmp_path / "out"
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
    header, rows = read_csv(out_dir / "transcript.csv")
    return out_dir, [dict(zip(header, row)) for row in rows]


def _first_round(rows, two_point):
    return next(t for t, row in enumerate(rows, start=1) if (row["j_lo"] != row["j_hi"]) == two_point)


def _round_edits(rows, column):
    """(round, edits) that make one transcript column inconsistent with the rest of its row."""
    T, N = 300, 7
    one, two = _first_round(rows, False), _first_round(rows, True)
    row = rows[two - 1]
    j_lo = int(row["j_lo"])
    return {
        "prob_lo": [(two, {"prob_lo": 7.0}), (two, {"prob_lo": 0.0}), (one, {"prob_lo": 0.5})],
        "j_lo": [(two, {"j_lo": -1}), (two, {"j_lo": 2.5})],
        "j_hi": [(two, {"j_hi": j_lo + 2}), (one, {"j_hi": T + 1})],
        "p_tilde": [(two, {"p_tilde": (j_lo + 0.5) / T}), (two, {"p_tilde": (j_lo + 3) / T})],
        "bin": [(two, {"bin": int(row["bin"]) % N + 1})],
        "p": [(two, {"p": float(row["p"]) + 1e-9})],
        "phi_hi": [(one, {"phi_hi": 0.25})],
    }[column]


@pytest.mark.parametrize("column", ["prob_lo", "j_lo", "j_hi", "p_tilde", "bin", "p", "phi_hi"])
def test_audit_and_metrics_reject_an_inconsistent_transcript_column(tmp_path, capsys, column):
    out_dir, rows = _persisted_run(tmp_path, N=7)
    tr_path = out_dir / "transcript.csv"
    original = tr_path.read_text()
    for t, edits in _round_edits(rows, column):
        tr_path.write_text(original)
        _edit_row(tr_path, t, **edits)
        capsys.readouterr()
        assert cli_main(["audit", "--run", str(out_dir)]) == 2, edits
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        assert f"transcript.csv: row {t}, column {column}:" in captured.err, (edits, captured.err)
        assert cli_main(["metrics", "--run", str(out_dir)]) == 2
        assert f"row {t}, column {column}:" in capsys.readouterr().err


def test_cli_metrics_rejects_an_empty_order_list(tmp_path, capsys):
    out_dir, _ = _persisted_run(tmp_path)
    with pytest.raises(ValueError, match="order"):
        compute_metrics_for_run_dir(out_dir, [])
    capsys.readouterr()
    assert cli_main(["metrics", "--run", str(out_dir), "--r", ","]) == 1
    assert "order" in capsys.readouterr().err
    for orders in ("nan", "inf", "2,nan", "0.5"):
        assert cli_main(["metrics", "--run", str(out_dir), "--r", orders]) == 1, orders
        captured = capsys.readouterr()
        assert "metrics:" not in captured.out and "order r must be a finite number at least 1" in captured.err
    assert cli_main(["metrics", "--run", str(out_dir), "--r", "abc"]) == 1
    assert "config error: --r: 'abc' is not a comma-separated list of numbers" in capsys.readouterr().err
    # the orders are checked before any file is read: a missing run directory goes unnoticed
    assert cli_main(["metrics", "--run", str(tmp_path / "no_run"), "--r", "0.5"]) == 1
    assert "config error: the error order r" in capsys.readouterr().err


@pytest.mark.parametrize(
    "value,what",
    [("abc", "is not a number"), ("nan", "is not finite"), ("-inf", "is not finite"), ("5.0", "squared norm is above 1 + 1e-09")],
)
def test_cli_metrics_rejects_a_bad_context(tmp_path, capsys, value, what):
    out_dir, _ = _persisted_run(tmp_path)
    _edit_row(out_dir / "contexts.csv", 9, x1=value)
    capsys.readouterr()
    assert cli_main(["metrics", "--run", str(out_dir)]) == 2
    captured = capsys.readouterr()
    assert "metrics:" not in captured.out
    assert "contexts.csv: row 9, column x1:" in captured.err and what in captured.err


@pytest.mark.parametrize(
    "adversary,column,value",
    [
        ("logistic", "p1", "5.0"),
        ("logistic", "kind", "gamma"),
        ("beta", "p1", "inf"),
        ("beta", "p1", "nan"),
        ("beta", "p2", "-1.0"),
    ],
)
def test_cli_audit_rejects_a_bad_law(tmp_path, capsys, adversary, column, value):
    spec = {"kind": "beta", "dim": 3, "a": 2.0, "b": 2.0} if adversary == "beta" else {"kind": "logistic", "dim": 3}
    out_dir, _ = _persisted_run(tmp_path, adversary=spec)
    _edit_row(out_dir / "laws.csv", 5, **{column: value})
    capsys.readouterr()
    assert cli_main(["audit", "--run", str(out_dir)]) == 2
    captured = capsys.readouterr()
    assert "PASS" not in captured.out and "FAIL" not in captured.out
    assert f"laws.csv: row 5, column {column}:" in captured.err

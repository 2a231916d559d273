import json
import math

import numpy as np
import pytest

from swapcal.cli import main as cli_main
from swapcal.engine import GridConfig
from swapcal.harness import (
    ConfigError,
    ExperimentConfig,
    audit_result,
    audit_round,
    audit_run_dir,
    component_streams,
    compute_metrics_for_run_dir,
    fit_power_law,
    read_csv,
    run,
    sweep,
)
from swapcal.properties import bernoulli_law, mean_property


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
    for name in ("transcript.csv", "contexts.csv", "laws.csv", "phi.csv", "metrics.csv", "config.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name


def test_transcript_round_trip(tmp_path):
    cfg = small_config()
    res = run(cfg, out_dir=tmp_path)
    header, rows = read_csv(tmp_path / "transcript.csv")
    assert header == ["t", "p_tilde", "bin", "p", "y", "support_lo", "support_hi", "prob_lo"]
    tr = res.transcript
    for t, row in enumerate(rows):
        assert int(row[0]) == t + 1
        assert float(row[1]) == tr.p_tilde[t]
        assert int(row[2]) == tr.bins[t]
        assert float(row[3]) == tr.p[t]
        assert float(row[4]) == tr.y[t]
        assert float(row[5]) == tr.support_lo[t]
        assert float(row[6]) == tr.support_hi[t]
        assert float(row[7]) == tr.prob_lo[t]


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


def test_audit_requires_phi_log(tmp_path):
    cfg = small_config(T=50, log_phi=False)
    run(cfg, out_dir=tmp_path)
    with pytest.raises(FileNotFoundError):
        audit_run_dir(tmp_path)


def test_fed_gain_replay_matches_engine_log():
    from swapcal.engine import gains_efficient

    cfg = small_config(T=150)
    res = run(cfg, log_gains=True)
    prop, _, _ = cfg.build_components()
    engine = res.engine
    grid = res.transcript.grid
    for rec, fed, q in zip(engine.records, engine.fed_gains, engine.q_rows):
        replayed = gains_efficient(rec.distribution, prop, q, rec.y, grid)
        np.testing.assert_allclose(replayed, fed, atol=1e-12)


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


def test_cli_audit_failure_exit_code(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    out_dir = tmp_path / "out"
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
    # corrupt one phi row so the audited value breaches the bound
    phi_path = out_dir / "phi.csv"
    lines = phi_path.read_text().splitlines()
    parts = lines[1].split(",")
    lines[1] = ",".join([parts[0]] + ["1.0"] * (len(parts) - 1))
    tr_path = out_dir / "transcript.csv"
    tr_lines = tr_path.read_text().splitlines()
    row = tr_lines[1].split(",")
    row[4] = "0.0"  # label 0 makes the mean residual at p=1 equal +1
    row[5] = row[6] = "1.0"
    row[7] = "1.0"
    tr_lines[1] = ",".join(row)
    tr_path.write_text("\n".join(tr_lines) + "\n")
    phi_path.write_text("\n".join(lines) + "\n")
    assert cli_main(["audit", "--run", str(out_dir)]) == 2
    capsys.readouterr()


def _truncate(path, keep_rows):
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[: keep_rows + 1]) + "\n")


@pytest.mark.parametrize("log_name", ["transcript.csv", "phi.csv", "laws.csv"])
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


def test_sweep_rejects_an_empty_seed_list(tmp_path, capsys):
    with pytest.raises(ValueError, match="seed"):
        sweep(small_config(T=64), [64, 128, 256], [])
    cfg_path = write_config(tmp_path)
    assert cli_main(["sweep", "--config", str(cfg_path), "--T", "64,128,256", "--seeds", "0"]) == 2
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

"""Tests of the benchmark itself: output contract, checks and tracing.

The smoke runs start ``run.py`` as a user would and compare every printed
metric's name, unit and direction with ``BENCHMARK.json``.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for _path in (str(ROOT / "src"), str(HERE)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import jobs  # noqa: E402
import layers  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
METRIC_LINE = re.compile(r"^metric (\S+) = (\S+) (\S+) \((higher|lower) is better\)$")


def run_benchmark(*args, cwd=ROOT, timeout=170):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "benchmark" / "run.py"), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        cwd=cwd,
    )


def test_spec_matches_the_benchmark_code():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "benchmark/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(jobs.WORKLOADS)
    for w in SPEC["workloads"]:
        assert w["why"] == jobs.WORKLOADS[w["name"]].why and len(w["why"]) <= 200
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (m.name, m.unit, m.better) for m in layers.CATALOG
    ]
    for m in layers.CATALOG:
        assert m.moves and m.on
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) and max(bounds.values()) <= 0.25
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(jobs.WORKLOADS))
def test_smoke_run_prints_every_metric(workload, trace):
    proc = run_benchmark("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    printed = {m.group(1): m.groups()[1:] for m in map(METRIC_LINE.match, lines) if m}
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert printed[m["name"]][1:] == (m["unit"], m["better"])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        assert values["trace.layer_share"] >= layers.LAYER_SHARE_MIN
        times = [m["name"] for m in expected if m["unit"] in ("us", "s")]
        assert all(values[name] > 0 for name in times)
    else:
        assert all(value > 0 for value in values.values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark("--workload", "online_finite", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_cli_job_reproduces_harness_run(tmp_path):
    assert jobs.check_fidelity(jobs.WORKLOADS["persisted_pipeline"], 5, tmp_path) == []


def test_fidelity_check_catches_a_diverging_cli(tmp_path, monkeypatch):
    real_run = jobs.swapcal.cli.run

    def run_one_seed_later(config, *args, **kwargs):
        return real_run(jobs.swapcal.harness.ExperimentConfig.from_dict({**config.to_dict(), "seed": config.seed + 1}), *args, **kwargs)

    monkeypatch.setattr(jobs.swapcal.cli, "run", run_one_seed_later)
    errors = jobs.check_fidelity(jobs.WORKLOADS["persisted_pipeline"], 5, tmp_path)
    assert any("transcript differs" in e for e in errors)


def test_layer_share_falls_when_a_layer_is_not_traced(tmp_path):
    class SkipTopLayers(tracing.Tracer):
        def wrap(self, name, fn):
            return fn if name in ("engine.step", "adversaries.next_context") else super().wrap(name, fn)

    workload = jobs.WORKLOADS["online_finite"]
    full = jobs.run_job(workload, 256, 5, tmp_path, tracing.Tracer())
    partial = jobs.run_job(workload, 256, 5, tmp_path, SkipTopLayers())
    assert layers.job_values(full)["trace.layer_share"] >= layers.LAYER_SHARE_MIN
    assert layers.job_values(partial)["trace.layer_share"] < layers.LAYER_SHARE_MIN


def test_replays_must_match():
    a = jobs.Job(seed=1, T=4, smcal_2=1.0, digest="x")
    b = jobs.Job(seed=1, T=4, smcal_2=1.0, digest="y")
    c = jobs.Job(seed=2, T=4, smcal_2=2.0, digest="y")
    assert jobs.determinism_errors([a, c]) == []
    assert len(jobs.determinism_errors([a, b, c])) == 1


def test_tracer_self_time_and_rounds():
    class Box:
        def inner(self):
            return 1

        def outer(self):
            return self.inner() + self.inner()

    tracer = tracing.Tracer()
    targets = ((Box, "inner", "a.inner"), (Box, "outer", "b.outer"))
    with tracing.patched(tracer.wrap, targets):
        Box().outer()
    assert Box.outer.__name__ == "outer"  # restored
    spans = tracer.take()
    assert [spans.names[i] for i in spans.name] == ["b.outer", "a.inner", "a.inner"]
    assert spans.parent.tolist() == [-1, 0, 0]
    self_ns = spans.self_time()
    assert self_ns.sum() == spans.duration[0]
    assert list(spans.layer()) == ["b", "a", "a"]
    bounds = spans.start[[0]], spans.end[[0]]
    assert spans.round_of(*bounds).tolist() == [0, 0, 0]

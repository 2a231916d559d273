"""The benchmark's workloads and the jobs that drive swapcal.

A job is one complete experiment on one seed, driven only through the
library's public API.  The load is a closed loop with one client: the
next context is requested only after the previous label has settled,
because an adversary may read the history before fixing its next law.

Every job checks its own output: each round must complete and pass the
per-round hedging audit (rho/T + 1e-9), and the error functionals must be
finite.  Failed rounds are counted, never hidden.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import swapcal.cli
import swapcal.harness
from tracing import TARGETS, Spans, Tracer, patched

FIDELITY_T = 256


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    persisted: bool   # driven through swapcal.cli.main with files on disk
    config: dict      # an ExperimentConfig mapping without T and seed
    T: int            # rounds per job
    seeds: int        # distinct job seeds per run; smcal_2 averages over them

    def raw_config(self, T: int, seed: int) -> dict:
        return {**self.config, "T": T, "seed": seed}


# A run always completes seeds + 1 jobs; on a 2-vCPU VM they take 12-15 s,
# so a 30 s run holds them even when the machine runs at half speed.
# Several seeds per run keep the seed-to-seed spread of smcal_2 small.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="online_finite",
            why="efficient engine on a finite class in memory: the serving hot path (experts, MWU learners, phi/solve)",
            persisted=False,
            config={
                "engine": "efficient",
                "property": "mean",
                "hypothesis_class": "finite:groups=8,dim=4",
                "adversary": {"kind": "logistic", "dim": 4},
                "N": 41,
                "r": 2.0,
            },
            T=8192,
            seeds=12,
        ),
        Workload(
            name="reference_wide",
            why="enumerating engine on 32 groups: expert kernels dominate and no learner runs (control for learner work)",
            persisted=False,
            config={
                "engine": "inefficient",
                "property": "mean",
                "hypothesis_class": "finite:groups=32,dim=8",
                "adversary": {"kind": "logistic", "dim": 8},
                "N": 26,
                "r": 2.0,
            },
            T=4096,
            seeds=12,
        ),
        Workload(
            name="persisted_pipeline",
            why="cli run, audit and metrics on disk: quantile on beta labels, linear OGD learners, CSV I/O and sphere ascent",
            persisted=True,
            config={
                "engine": "efficient",
                "property": "quantile:q=0.5",
                "hypothesis_class": "linear:dim=16",
                "adversary": {"kind": "beta", "dim": 16, "a": 2.0, "b": 2.0, "amp": 0.4, "weights": [0.25, -0.25] * 8},
                "N": 64,
                "r": 2.0,
            },
            T=4096,
            seeds=6,
        ),
    )
}


def job_seeds(seed: int, workload: Workload, count: int) -> list[int]:
    """Distinct experiment seeds for one benchmark run, derived from --seed."""
    index = list(WORKLOADS).index(workload.name)
    state = np.random.SeedSequence([seed, index]).generate_state(count)
    return [int(s) for s in state]


@dataclass
class Job:
    """Measurements and checks of one job.  Times are perf_counter ns."""

    seed: int
    T: int
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    smcal_2: float = math.nan
    digest: str = ""
    round_start: np.ndarray | None = None
    round_end: np.ndarray | None = None
    job_start: int = 0
    job_end: int = 0
    audit_ns: int = 0
    bytes_written: int = 0
    spans: Spans | None = None

    @property
    def ok(self) -> bool:
        return self.failed == 0 and not self.errors

    @property
    def loop_s(self) -> float:
        return (int(self.round_end[-1]) - int(self.round_start[0])) / 1e9

    def latency_percentile(self, q: float) -> float:
        """Round latency percentile in microseconds over this job's T rounds."""
        return float(np.percentile(self.round_end - self.round_start, q)) / 1e3

    @property
    def job_s(self) -> float:
        """First round to verified results."""
        return (self.job_end - int(self.round_start[0])) / 1e9

    def fail(self, rounds: int, message: str) -> None:
        self.failed = min(self.T, self.failed + rounds)
        self.errors.append(message)


def transcript_digest(transcript) -> str:
    h = hashlib.sha256()
    for column in (
        transcript.p_tilde,
        transcript.bins,
        transcript.p,
        transcript.y,
        transcript.features,
        transcript.support_lo,
        transcript.support_hi,
        transcript.prob_lo,
    ):
        h.update(np.ascontiguousarray(column).tobytes())
    return h.hexdigest()


def run_job(workload: Workload, T: int, seed: int, work_dir: Path, tracer: Tracer | None = None) -> Job:
    """One job, traced when a tracer is given."""
    job = Job(seed=seed, T=T)
    with patched(tracer.wrap if tracer else None):
        job.job_start = time.perf_counter_ns()
        if workload.persisted:
            _persisted_job(workload, job, work_dir)
        else:
            _in_memory_job(workload, job)
        job.job_end = time.perf_counter_ns()
    if tracer is not None:
        job.spans = tracer.take()
    return job


def _in_memory_job(workload: Workload, job: Job) -> None:
    """``harness.run`` as a user calls it, followed by an in-memory audit."""
    harness = swapcal.harness
    cfg = harness.ExperimentConfig.from_dict(workload.raw_config(job.T, job.seed))
    rounds = RoundClock(job.T)
    try:
        with rounds.installed():
            result = harness.run(cfg)
    except Exception as exc:  # a raising job fails its unfinished rounds, or all of them after the loop
        job.fail(job.T - rounds.ended or job.T, f"round {rounds.ended + 1}: {type(exc).__name__}: {exc}")
        return
    job.round_start, job.round_end = rounds.starts, rounds.ends
    audit_start = time.perf_counter_ns()
    report = harness.audit_result(result)
    job.audit_ns = time.perf_counter_ns() - audit_start
    _check_audit(job, report.values <= report.bound)
    _check_metrics(job, [result.metrics])
    job.smcal_2 = float(result.metrics["smcal"])
    job.digest = transcript_digest(result.transcript)


class RoundClock:
    """Round boundaries inside ``harness.run``, timed from outside.

    A round starts when the adversary is asked for a context and ends when
    it has observed the label, which brackets context, law, step and
    observe.
    """

    HOOKS = ("adversaries.next_context", "adversaries.observe")

    def __init__(self, T: int) -> None:
        self.starts = np.zeros(T, dtype=np.int64)
        self.ends = np.zeros(T, dtype=np.int64)
        self.started = 0
        self.ended = 0

    def installed(self) -> patched:
        return patched(self.wrap, [t for t in TARGETS if t[2] in self.HOOKS])

    def wrap(self, name: str, fn):
        clock = time.perf_counter_ns
        if name == "adversaries.next_context":

            def round_begins(*args, **kwargs):
                self.starts[self.started] = clock()
                self.started += 1
                return fn(*args, **kwargs)

            return round_begins

        def round_ends(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.ends[self.ended] = clock()
            self.ended += 1
            return out

        return round_ends


def _persisted_job(workload: Workload, job: Job, work_dir: Path) -> None:
    """``swapcal run`` -> ``swapcal audit`` -> ``swapcal metrics`` in-process."""
    T = job.T
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    cfg_path = work_dir / "config.json"
    run_dir = work_dir / "run"
    cfg_path.write_text(json.dumps(workload.raw_config(T, job.seed)))
    rounds = RoundClock(T)
    log = io.StringIO()
    clock = time.perf_counter_ns
    with rounds.installed(), contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        main = swapcal.cli.main
        code = main(["run", "--config", str(cfg_path), "--out", str(run_dir)])
        if code != 0 or rounds.ended != T:
            job.fail(T, f"swapcal run exited {code} after {rounds.ended} rounds: {log.getvalue().strip()}")
            return
        job.round_start, job.round_end = rounds.starts, rounds.ends
        run_rows = _read_metrics(run_dir)
        audit_start = clock()
        code = main(["audit", "--run", str(run_dir)])
        job.audit_ns = clock() - audit_start
        if not (run_dir / "audit.csv").exists():
            job.fail(T, f"swapcal audit exited {code} without audit.csv: {log.getvalue().strip()}")
            return
        _, audit_rows = swapcal.harness.read_csv(run_dir / "audit.csv")
        _check_audit(job, np.array([row[3] == "1" for row in audit_rows]))
        if code != 0 and job.ok:
            job.errors.append(f"swapcal audit exited {code} with every round within the bound")
        code = main(["metrics", "--run", str(run_dir), "--r", "1,2,4", "--per-bin"])
    if code != 0:
        job.fail(T, f"swapcal metrics exited {code}: {log.getvalue().strip()}")
        return
    rows = _read_metrics(run_dir)
    _check_metrics(job, run_rows + rows)
    by_r = {row["r"]: row for row in rows}
    if sorted(by_r) != [1.0, 2.0, 4.0]:
        job.errors.append(f"metrics: expected orders 1, 2, 4, got {sorted(by_r)}")
        return
    job.smcal_2 = by_r[2.0]["smcal"]
    if job.smcal_2 != run_rows[0]["smcal"]:
        job.errors.append(f"metrics: smcal_2 {job.smcal_2!r} from the persisted run differs from {run_rows[0]['smcal']!r}")
    _, bin_rows = swapcal.harness.read_csv(run_dir / "metrics_bins.csv")
    if len(bin_rows) != workload.config["N"]:
        job.errors.append(f"metrics_bins.csv has {len(bin_rows)} rows, expected {workload.config['N']}")
    job.digest = hashlib.sha256((run_dir / "transcript.csv").read_bytes()).hexdigest()
    job.bytes_written = sum(p.stat().st_size for p in run_dir.iterdir())


def _read_metrics(run_dir: Path) -> list[dict]:
    header, rows = swapcal.harness.read_csv(run_dir / "metrics.csv")
    out = []
    for row in rows:
        raw = dict(zip(header, row))
        out.append({k: float(raw[k]) for k in ("r", "cal", "mcal", "smcal")})
    return out


def _check_audit(job: Job, passed: np.ndarray) -> None:
    breaches = int(passed.size - np.count_nonzero(passed))
    if passed.size != job.T:
        job.fail(job.T, f"audit covered {passed.size} of {job.T} rounds")
    elif breaches:
        job.fail(breaches, f"audit: {breaches} rounds above rho/T + {swapcal.harness.AUDIT_SLACK}")


def _check_metrics(job: Job, rows: list[dict]) -> None:
    for row in rows:
        for key in ("cal", "mcal", "smcal"):
            value = float(row[key])
            if not (math.isfinite(value) and value >= 0.0):
                job.errors.append(f"metrics: {key} at r={row['r']} is {value!r}")


def determinism_errors(jobs: list[Job]) -> list[str]:
    """Every job of a seed, traced or not, must give the first one's transcript and smcal."""
    first: dict[int, Job] = {}
    errors = []
    for job in jobs:
        ref = first.setdefault(job.seed, job)
        if (job.digest, job.smcal_2) != (ref.digest, ref.smcal_2):
            errors.append(f"seed {job.seed}: a replay changed the transcript digest or smcal_2")
    return errors


def check_fidelity(workload: Workload, seed: int, work_dir: Path) -> list[str]:
    """The CLI job must reproduce ``harness.run`` on the same config.

    Runs at a small horizon: ``swapcal run`` must write the same
    transcript.csv as ``harness.persist_run`` of ``harness.run``'s result,
    and ``swapcal metrics`` the same smcal.  In-memory jobs call
    ``harness.run`` itself and need no such check.
    """
    cfg = swapcal.harness.ExperimentConfig.from_dict(workload.raw_config(FIDELITY_T, seed))
    reference = swapcal.harness.run(cfg)
    swapcal.harness.persist_run(reference, work_dir / "reference")
    expected = hashlib.sha256((work_dir / "reference" / "transcript.csv").read_bytes()).hexdigest()
    job = run_job(workload, FIDELITY_T, seed, work_dir / "job")
    errors = [f"fidelity job: {e}" for e in job.errors]
    if job.digest != expected:
        errors.append("fidelity: the CLI's transcript differs from harness.run")
    if job.smcal_2 != reference.metrics["smcal"]:
        errors.append(f"fidelity: smcal {job.smcal_2!r} differs from harness.run's {reference.metrics['smcal']!r}")
    shutil.rmtree(work_dir, ignore_errors=True)
    return errors

"""swapcal benchmark: one workload, one seed, one run.

    python3 benchmark/run.py --workload online_finite --seed 1 --seconds 30 --trace 0

Runs from the root of a checkout and imports swapcal from its ``src``.
With ``--trace 0`` it measures the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced jobs and reports the per-layer metrics
of ``layers.py``.  Every job's output is checked (see ``jobs.py``); a
replayed seed must reproduce its transcript digest and smcal exactly, a
small-horizon ``swapcal run`` must match ``harness.run``, and a traced run
must spend at least ``layers.LAYER_SHARE_MIN`` of its round time in traced
calls.

Each metric is printed as ``metric <name> = <value> <unit> (<direction>)``
and the last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit code 0 on success, 1 when
a correctness check fails, 2 when swapcal cannot be found or a setup
probe cannot run.  The full record of the run (environment stamp, every
job, per-function trace table) goes to ``.bench_out/`` in the checkout.

``--smoke`` shrinks every job to a few rounds; the benchmark's own tests
use it to check the output format.
"""

import os

BLAS_THREADS = "1"
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = BLAS_THREADS  # before numpy is first imported

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
HERE = Path(__file__).resolve().parent

# The seed to develop against, and one kept back for confirming a claim.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

SETUP_PROBES = 6
SMOKE_T = 128
PROBE_TIMEOUT_S = 60

# (name, unit, better); bounds live in BENCHMARK.json
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("rounds_per_s", "1/s", "higher"),
    ("round_p50_us", "us", "lower"),
    ("round_p90_us", "us", "lower"),
    ("job_s", "s", "lower"),
    ("audit_rounds_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("smcal_2", "1", "lower"),
)


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("online_finite", "reference_wide", "persisted_pipeline"))
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED, help=f"workload seed; confirm claims on the held-out seed {HELD_OUT_SEED}"
    )
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="a few rounds per job, for format checks")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    return args


def import_swapcal():
    if not (SRC / "swapcal" / "__init__.py").is_file():
        raise BenchmarkError(f"no swapcal sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import swapcal

    if Path(swapcal.__file__).resolve().parent != (SRC / "swapcal").resolve():
        raise BenchmarkError(f"imported swapcal from {swapcal.__file__}, not from {SRC}")


def git_commit() -> str:
    if not (ROOT / ".git").exists():  # else git would report an enclosing repository
        return "none (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git did not run)"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (git rev-parse failed)"


def environment() -> dict:
    import numpy
    import scipy

    source = hashlib.sha256()
    for path in sorted((SRC / "swapcal").rglob("*.py")):
        source.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": int(BLAS_THREADS),
        "git_commit": git_commit(),
        "source_sha256": source.hexdigest(),
    }


def measure_setup(workload, T: int, seed: int, probes: int) -> list[float]:
    """Set-up time of fresh processes: imports through a constructed engine."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), json.dumps(workload.raw_config(T, seed))]
    if workload.persisted:
        cmd.append("--cli")
    times = []
    for _ in range(probes):
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
        except subprocess.TimeoutExpired as exc:
            raise BenchmarkError(f"setup probe timed out after {PROBE_TIMEOUT_S} s") from exc
        if proc.returncode != 0:
            raise BenchmarkError(f"setup probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def end_to_end(all_jobs, setup_times) -> dict:
    """Time averages over the run's jobs.

    On a shared machine single-threaded Python alternates, within seconds,
    between a contended speed and one up to twice as fast.  A median or
    quantile over jobs jumps from one speed to the other as the share of
    fast jobs crosses it; a time average moves with that share smoothly.
    """
    first_by_seed = {}
    for job in all_jobs:
        first_by_seed.setdefault(job.seed, job)
    mean = statistics.fmean
    rounds = sum(j.T for j in all_jobs)
    return {
        "setup_s": mean(setup_times),
        "rounds_per_s": rounds / sum(j.loop_s for j in all_jobs),
        "round_p50_us": mean(j.latency_percentile(50) for j in all_jobs),
        "round_p90_us": mean(j.latency_percentile(90) for j in all_jobs),
        "job_s": mean(j.job_s for j in all_jobs),
        "audit_rounds_per_s": rounds / sum(j.audit_ns / 1e9 for j in all_jobs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "smcal_2": mean(j.smcal_2 for j in first_by_seed.values()),
    }


def per_layer(workload, T: int, plain, traced) -> tuple[dict, dict]:
    import layers

    per_job = [layers.job_values(job) for job in traced]
    first = {**per_job[0], **layers.static_counts(workload, T)}
    values = {}
    for metric in layers.CATALOG:
        if metric.unit in ("count", "bytes"):  # exact for the first seed
            values[metric.name] = first[metric.name]
        elif metric.name != "trace.overhead_share":
            values[metric.name] = statistics.median(v[metric.name] for v in per_job)
    # untraced and traced jobs alternate, so both see the same mix of machine speeds
    untraced_s = sum(j.loop_s for j in plain)
    traced_s = sum(j.loop_s for j in traced)
    values["trace.overhead_share"] = 100.0 * (1.0 - untraced_s / traced_s)
    return values, layers.function_table(traced[0].spans)


def save_spans(path: Path, traced) -> None:
    import numpy as np

    spans = [job.spans for job in traced]
    np.savez_compressed(
        path,
        names=np.array(spans[-1].names),
        job=np.concatenate([np.full(s.name.size, k, dtype=np.int32) for k, s in enumerate(spans)]),
        name=np.concatenate([s.name for s in spans]),
        parent=np.concatenate([s.parent for s in spans]),
        start=np.concatenate([s.start for s in spans]),
        end=np.concatenate([s.end for s in spans]),
        round=np.concatenate([s.round_of(j.round_start, j.round_end) for s, j in zip(spans, traced)]),
    )


def run(args) -> int:
    import_swapcal()
    import jobs
    import layers
    from tracing import Tracer

    workload = jobs.WORKLOADS[args.workload]
    T = SMOKE_T if args.smoke else workload.T
    n_seeds = 2 if args.smoke else workload.seeds
    seeds = jobs.job_seeds(args.seed, workload, n_seeds)
    work = OUT / "work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace, "T": T, "seeds": seeds}
    record["environment"] = environment()
    try:
        setup_times = measure_setup(workload, T, seeds[0], 2 if args.smoke else SETUP_PROBES)
        errors = jobs.check_fidelity(workload, seeds[0], work / "fidelity") if workload.persisted else []
        plain, traced = [], []
        tracer = Tracer() if args.trace else None
        start = time.perf_counter()
        while True:
            seed = seeds[len(plain) % n_seeds]
            plain.append(jobs.run_job(workload, T, seed, work / "job"))
            if tracer is not None and plain[-1].ok:
                traced.append(jobs.run_job(workload, T, seed, work / "job", tracer))
            if not all(j.ok for j in plain + traced):
                break
            enough = len(traced) >= 1 if tracer is not None else len(plain) > n_seeds
            if enough and time.perf_counter() - start >= args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    all_jobs = plain + traced
    for job in all_jobs:
        errors += [f"seed {job.seed}: {e}" for e in job.errors]
    if not errors:
        errors += jobs.determinism_errors(all_jobs)
    attempted = sum(j.T for j in all_jobs)
    failed = sum(j.failed for j in all_jobs)
    record["jobs"] = [
        {
            "seed": j.seed,
            "traced": j.spans is not None,
            "failed": j.failed,
            "smcal_2": j.smcal_2,
            "digest": j.digest,
            **(
                {
                    "loop_s": j.loop_s,
                    "job_s": j.job_s,
                    "audit_s": j.audit_ns / 1e9,
                    "round_p50_us": j.latency_percentile(50),
                    "round_p99_us": j.latency_percentile(99),
                }
                if j.round_start is not None
                else {}
            ),
        }
        for j in all_jobs
    ]
    record["setup_s"] = setup_times
    values = {}
    if not errors and failed == 0:
        if tracer is None:
            values = end_to_end(all_jobs, setup_times)
            units = END_TO_END
        else:
            values, record["functions"] = per_layer(workload, T, plain, traced)
            units = tuple((m.name, m.unit, m.better) for m in layers.CATALOG)
            if values["trace.layer_share"] < layers.LAYER_SHARE_MIN:
                errors.append(
                    f"tracing: traced calls cover {values['trace.layer_share']:.2f}% of the round time, "
                    f"below {layers.LAYER_SHARE_MIN}%; a layer is not traced"
                )
    record["errors"] = errors
    correct = not errors and failed == 0
    env = record["environment"]
    print(
        f"env: nproc={env['nproc']} python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
        f"blas_threads={env['blas_threads']} commit={env['git_commit']} source={env['source_sha256'][:16]}"
    )
    print(
        f"run: workload={workload.name} seed={args.seed} T={T} jobs={len(plain)} traced_jobs={len(traced)} "
        f"distinct_seeds={len({j.seed for j in all_jobs})}"
    )
    for error in errors:
        print(f"check failed: {error}")
    print(f"failed_round_share = {failed / max(attempted, 1)!r} ({failed} of {attempted} rounds failed)")
    metrics = {}
    if correct:
        if tracer is not None:
            OUT.mkdir(exist_ok=True)
            save_spans(OUT / f"spans-{workload.name}-seed{args.seed}.npz", traced)
        for name, unit, better in units:
            print(f"metric {name} = {values[name]!r} {unit} ({better} is better)")
            metrics[name] = {"value": values[name], "unit": unit}
        if tracer is None:
            # not gated: its spread between runs reaches the largest bound allowed
            record["round_p99_us"] = statistics.median(j.latency_percentile(99) for j in all_jobs)
            print(f"ungated round_p99_us = {record['round_p99_us']!r} us (median over jobs)")
    record["metrics"] = metrics
    OUT.mkdir(exist_ok=True)
    result_path = OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1, default=float) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return run(args)
    except BenchmarkError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

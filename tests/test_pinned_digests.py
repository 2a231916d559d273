"""Pinned replay digests of the benchmark's three workload configs.

Each config runs through ``harness.run`` at experiment seeds 1 and 7919,
and three values are pinned per run: the SHA-256 of the in-memory
transcript columns (in the order of the benchmark's
``transcript_digest``), the SHA-256 of the ``transcript.csv`` that
``persist_run`` writes (which covers j_lo, j_hi, phi_lo and phi_hi), and
``smcal`` exactly.  A refactor that claims no change in behaviour must
leave all three untouched.

The values depend on the platform: the BLAS kernels and the CPU's float
units decide the last ulp of phi, and through it every later round.  They
were taken on an x86-64 Linux machine with AVX-512.  A change that
reorders float arithmetic updates them and says so in CHANGES.md.

The configs are copied from ``benchmark/jobs.py`` rather than imported,
so that an edit there cannot silently move the pins.
"""

import hashlib

import numpy as np
import pytest

from swapcal.harness import ExperimentConfig, persist_run, run

WORKLOADS = {
    "online_finite": (
        {
            "engine": "efficient",
            "property": "mean",
            "hypothesis_class": "finite:groups=8,dim=4",
            "adversary": {"kind": "logistic", "dim": 4},
            "N": 41,
            "r": 2.0,
        },
        8192,
    ),
    "reference_wide": (
        {
            "engine": "inefficient",
            "property": "mean",
            "hypothesis_class": "finite:groups=32,dim=8",
            "adversary": {"kind": "logistic", "dim": 8},
            "N": 26,
            "r": 2.0,
        },
        4096,
    ),
    "persisted_pipeline": (
        {
            "engine": "efficient",
            "property": "quantile:q=0.5",
            "hypothesis_class": "linear:dim=16",
            "adversary": {"kind": "beta", "dim": 16, "a": 2.0, "b": 2.0, "amp": 0.4, "weights": [0.25, -0.25] * 8},
            "N": 64,
            "r": 2.0,
        },
        4096,
    ),
}

# (workload, seed): (transcript columns SHA-256, transcript.csv SHA-256, smcal)
PINNED = {
    ("online_finite", 1): (
        "3bb9f9c62f11c0c58e1faf51a0275f3de1100ab126b5313b95e651d0b7091283",
        "031d483f19fe6e1abd3ee726a628c8d379f29583eb9545825be91853012c9413",
        22.05068226562816,
    ),
    ("online_finite", 7919): (
        "0ff1dcf590065055b94459d6293614c5b480262270be1f8d310a2e9507d6e619",
        "34b5b1455d7a74b07c3a50f11971796431f8160392b41868a3ee8d3c66fa1cd1",
        14.761233826682144,
    ),
    ("reference_wide", 1): (
        "f31340e9235c2602caf0d40b5d1546fc1d459361293e0274e1fcb8a6449437c4",
        "5df206111dd0acb87996312f897cb7b5cce30978846bb03712220e760bf279b2",
        18.329571645096447,
    ),
    ("reference_wide", 7919): (
        "0b46da2e61fe04f084ad65e850be66d5a6b3cc84106a108d73061229392a20de",
        "c1b317f46fc3e44c483d039a4d3799329c86d775159737a70eb219c0d37a0b79",
        16.963759308822485,
    ),
    ("persisted_pipeline", 1): (
        "691356142fa1e88a0a916d41b5f1fb655bcf39422250376e6d5b63d7590bf8a0",
        "0c2adb984fb80d4514d338933a72064223d3064393d4934fc6be72cc1a8dfcd2",
        17.5757595285416,
    ),
    ("persisted_pipeline", 7919): (
        "25ecc1170e281cf22a9c9d86a9084e81db36506687f15bdf647fc13a5700ea32",
        "be727ac4a1fc32759368c4f50eab94bcad4ebe6122cf661f25151eb470182726",
        16.771874520316246,
    ),
}


def transcript_columns_digest(tr) -> str:
    h = hashlib.sha256()
    for column in (tr.p_tilde, tr.bins, tr.p, tr.y, tr.features, tr.support_lo, tr.support_hi, tr.prob_lo):
        h.update(np.ascontiguousarray(column).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("workload,seed", list(PINNED))
def test_replay_matches_pinned_digests(tmp_path, workload, seed):
    config, T = WORKLOADS[workload]
    result = run(ExperimentConfig.from_dict({**config, "T": T, "seed": seed}))
    persist_run(result, tmp_path)
    columns, csv_bytes, smcal = PINNED[workload, seed]
    assert transcript_columns_digest(result.transcript) == columns
    assert hashlib.sha256((tmp_path / "transcript.csv").read_bytes()).hexdigest() == csv_bytes
    assert result.metrics["smcal"] == smcal

"""Batch experiment runner: seeded execution, persistence, sweeps, audits.

A run is fully determined by its config and seed.  The global 64-bit seed
expands into independent per-component streams (engine, adversary, class
generation) through a counter-based SeedSequence spawn, so adding a
component never perturbs another's stream.

Output files per run directory:
    config.json     the validated config (echoed back)
    transcript.csv  t, p_tilde, bin, p, y, j_lo, j_hi, prob_lo, phi_lo, phi_hi
                    (support as 1/T-grid indices j_lo <= j_hi, and the
                    hedging profile at the bin of each support point)
    contexts.csv    t, x0..x{d-1}
    laws.csv        t, kind, p1, p2 (law parameters, p2 blank when unused)
    metrics.csv     config_hash, seed, T, N, r, cal, mcal, smcal, mcal_exact

transcript.csv's columns are those of ``metrics.Transcript``: ``run``
returns them in memory, ``persist_run`` writes them as they are, and the
audit and ``metrics`` read them back through one checked reader.  The
audit reads config.json, laws.csv and transcript.csv: a round's expected
audit needs phi only at its support bins, which transcript.csv holds.
Those columns are the only record of the profile, in memory and on disk.

Wall-clock timing goes to stdout only, keeping every persisted file
byte-identical across replays of the same config.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .adversaries import build_adversary, sample_label
from .engine import (
    EfficientForecaster,
    GridConfig,
    InefficientForecaster,
    default_bin_count,
)
from .hypotheses import NORM_TOL, parse_class
from .metrics import TRANSCRIPT_COLUMNS, Transcript, aggregate, cal, check_order, mcal, mcal_is_exact, smcal
from .properties import (
    LAW_KINDS,
    LabelLaw,
    LawColumns,
    Property,
    invalid_law_params,
    marginal_identification,
    parse_property,
)

AUDIT_SLACK = 1e-9
TRANSCRIPT_HEADER = ["t", *TRANSCRIPT_COLUMNS]
_INTEGER_COLUMNS = ("t", "bin", "j_lo", "j_hi")
_CONFIG_KEYS = {
    "engine",
    "property",
    "hypothesis_class",
    "adversary",
    "T",
    "r",
    "N",
    "seed",
    "out",
}


def component_streams(seed: int) -> dict[str, np.random.Generator]:
    """Counter-based split of one seed into named component streams."""
    root = np.random.SeedSequence(int(seed))
    engine_seq, adversary_seq, class_seq = root.spawn(3)
    return {
        "engine": np.random.default_rng(engine_seq),
        "adversary": np.random.default_rng(adversary_seq),
        "class": np.random.default_rng(class_seq),
    }


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the field."""


def _whole_number(name: str, value) -> int:
    """``int(value)``, refusing a value that ``int`` would truncate, such as 64.9."""
    try:
        out = int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name}: {exc}") from None
    if isinstance(value, float) and out != value:
        raise ConfigError(f"{name}: must be a whole number, got {value!r}")
    return out


@dataclass
class ExperimentConfig:
    engine: str
    property_spec: str
    class_spec: str
    adversary: dict
    T: int
    r: float
    seed: int
    N: int | None = None
    out: str | None = None

    @property
    def bin_count(self) -> int:
        return self.N if self.N is not None else default_bin_count(self.T, self.r)

    def to_dict(self) -> dict:
        out = {
            "engine": self.engine,
            "property": self.property_spec,
            "hypothesis_class": self.class_spec,
            "adversary": self.adversary,
            "T": self.T,
            "r": self.r,
            "seed": self.seed,
        }
        if self.N is not None:
            out["N"] = self.N
        if self.out is not None:
            out["out"] = self.out
        return out

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        unknown = set(raw) - _CONFIG_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        missing = {"engine", "property", "hypothesis_class", "adversary", "T", "r", "seed"} - set(raw)
        if missing:
            raise ConfigError(f"missing config keys: {sorted(missing)}")
        engine = raw["engine"]
        if engine not in ("efficient", "inefficient"):
            raise ConfigError(f"engine: expected 'efficient' or 'inefficient', got {engine!r}")
        T = _whole_number("T", raw["T"])
        seed = _whole_number("seed", raw["seed"])
        try:
            r = float(raw["r"])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"r: {exc}") from None
        if T < 1:
            raise ConfigError("T: must be a positive integer")
        if not (math.isfinite(r) and r >= 1.0):
            raise ConfigError(f"r: must be a finite number at least 1, got {r}")
        if seed < 0:
            raise ConfigError(f"seed: must be a non-negative integer, got {seed}")
        N = raw.get("N")
        if N is not None:
            N = _whole_number("N", N)
            if not 1 <= N <= T:
                raise ConfigError(f"N: need 1 <= N <= T, got N={N}, T={T}")
        if not isinstance(raw["adversary"], dict):
            raise ConfigError("adversary: must be a mapping with a 'kind'")
        cfg = cls(
            engine=engine,
            property_spec=raw["property"],
            class_spec=raw["hypothesis_class"],
            adversary=raw["adversary"],
            T=T,
            r=r,
            seed=seed,
            N=N,
            out=raw.get("out"),
        )
        cfg.build_components()  # fail fast on any bad sub-spec
        return cfg

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path}: {exc}") from None
        return cls.from_dict(raw)

    def build_components(self):
        """Instantiate (property, class, adversary); raises ConfigError on mismatch."""
        try:
            prop = parse_property(self.property_spec)
        except ValueError as exc:
            raise ConfigError(f"property: {exc}") from None
        streams = component_streams(self.seed)
        class_seed = int(streams["class"].integers(0, 2**63 - 1))
        try:
            cls_obj = parse_class(self.class_spec, default_seed=class_seed)
        except ValueError as exc:
            raise ConfigError(f"hypothesis_class: {exc}") from None
        try:
            adv = build_adversary(self.adversary, prop)
        except ValueError as exc:
            raise ConfigError(f"adversary: {exc}") from None
        if self.engine == "inefficient" and cls_obj.variant != "finite":
            raise ConfigError("engine: the inefficient engine needs a finite hypothesis class")
        reads = cls_obj.coordinates_read
        if reads > adv.dim or (cls_obj.variant == "linear" and reads != adv.dim):
            need = f"dim {reads}" if cls_obj.variant == "linear" else f"at least dim {reads}"
            raise ConfigError(f"hypothesis_class: needs contexts of {need}, the adversary emits dim {adv.dim}")
        return prop, cls_obj, adv


@dataclass
class RunResult:
    """A finished run: its transcript (transcript.csv's columns and the contexts) and laws."""

    config: ExperimentConfig
    transcript: Transcript
    laws: list[LabelLaw]
    rho: float
    metrics: dict
    wall_time: float


def run(config: ExperimentConfig, out_dir=None):
    """Execute T protocol rounds and compute the configured metrics."""
    prop, cls_obj, adversary = config.build_components()
    streams = component_streams(config.seed)
    grid = GridConfig(config.bin_count, config.T)
    engine_cls = EfficientForecaster if config.engine == "efficient" else InefficientForecaster
    engine = engine_cls(grid, prop, cls_obj, streams["engine"])
    adv_rng = streams["adversary"]
    laws: list[LabelLaw] = []
    start = time.perf_counter()
    for _ in range(config.T):
        x = adversary.next_context(adv_rng)
        law = adversary.next_label_law(x)  # fixed before the forecaster samples
        laws.append(law)
        p, y = engine.step(x, lambda: sample_label(law, adv_rng))
        adversary.observe(p, y)
    wall = time.perf_counter() - start
    transcript = Transcript.from_records(grid, engine.records)
    agg = aggregate(transcript, prop, cls_obj)
    result = RunResult(
        config=config,
        transcript=transcript,
        laws=laws,
        rho=adversary.rho(prop),
        metrics=_metrics_row(config, transcript, prop, cls_obj, agg, config.r),
        wall_time=wall,
    )
    if out_dir is not None:
        persist_run(result, Path(out_dir))
    return result


def _metrics_row(config: ExperimentConfig, transcript: Transcript, prop, cls_obj, agg, r: float) -> dict:
    """One metrics.csv row: the run's identity and its error functionals at order r."""
    return {
        "config_hash": config.config_hash(),
        "seed": config.seed,
        "T": config.T,
        "N": transcript.grid.N,
        "r": r,
        "cal": cal(transcript, prop, r),
        "mcal": mcal(agg, r),
        "smcal": smcal(agg, r),
        "mcal_exact": int(mcal_is_exact(cls_obj, r)),  # 1 or 0, as metrics.csv holds it
    }


def _write_csv(path: Path, header: list[str], rows) -> None:
    """Rows of Python scalars (from ``tolist()``), each cell written with str: repr for floats, 1/0 for flags."""
    lines = [",".join(header)]
    lines += [",".join(map(str, row)) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _bins_of(grid: GridConfig, j: np.ndarray) -> np.ndarray:
    """1-based bins of the grid points j/T, as ``GridConfig.bin_of_index`` for each entry."""
    return np.where(j >= grid.T, grid.N, j * grid.N // grid.T + 1)


def persist_run(result: RunResult, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.json").write_text(json.dumps(result.config.to_dict(), indent=2, sort_keys=True) + "\n")
    tr = result.transcript
    _write_csv(
        out_dir / "transcript.csv",
        TRANSCRIPT_HEADER,
        zip(range(1, len(tr) + 1), *(column.tolist() for column in tr.columns().values())),
    )
    d = tr.features.shape[1]
    _write_csv(
        out_dir / "contexts.csv",
        ["t"] + [f"x{k}" for k in range(d)],
        ((t, *row) for t, row in enumerate(tr.features.tolist(), start=1)),
    )
    _write_csv(
        out_dir / "laws.csv",
        ["t", "kind", "p1", "p2"],
        (
            (t + 1, law.kind, law.params[0], law.params[1] if len(law.params) > 1 else "")
            for t, law in enumerate(result.laws)
        ),
    )
    header = list(result.metrics.keys())
    _write_csv(out_dir / "metrics.csv", header, [tuple(result.metrics[k] for k in header)])


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise ValueError(f"{Path(path).name} is empty")
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def _read_rounds(path: Path, T: int) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a per-round log, checked to hold rounds t = 1..T in order, each complete."""
    header, rows = read_csv(path)
    if len(rows) != T:
        raise ValueError(f"{path.name} holds {len(rows)} rounds, the config says T={T}")
    for t, row in enumerate(rows, start=1):
        if len(row) != len(header) or row[0] != str(t):
            raise ValueError(f"{path.name}: row {t} is not a complete record of round {t}")
    return header, rows


def _parse_column(path: Path, name: str, values, dtype) -> np.ndarray:
    """One column of a log as an array; an entry that is not a number is named by row."""
    try:
        return np.array(values, dtype=dtype)
    except ValueError:
        cast = int if dtype is np.int64 else float
        for t, v in enumerate(values, start=1):
            try:
                cast(v)
            except ValueError:
                raise ValueError(f"{path.name}: row {t}, column {name}: {v!r} is not a number") from None
        raise


def _reject_bad_rows(path: Path, columns: dict[str, np.ndarray], checks) -> None:
    """Raise a ValueError naming the first row that fails a check, and the first of its columns that does.

    ``checks`` holds (column, mask over the rows, what a bad entry is) in
    dependency order.
    """
    bad = np.stack([mask for _, mask, _ in checks])
    if bad.any():
        t = int(np.argmax(bad.any(axis=0)))
        name, _, what = checks[int(np.argmax(bad[:, t]))]
        raise ValueError(f"{path.name}: row {t + 1}, column {name}: {columns[name][t].item()!r} is {what}")


def read_transcript(path: Path, grid: GridConfig) -> dict[str, np.ndarray]:
    """The columns of a persisted transcript.csv, checked to be what an engine writes.

    Besides the round count and numbering of every per-round log, each
    row must hold an adjacent support on the 1/T grid with a valid
    lower-point probability, a p_tilde on that support, its bin and bin
    point, a label in [0, 1], and one phi value per support bin.  The
    first bad entry raises a ValueError naming the file, row and column.
    """
    header, rows = _read_rounds(path, grid.T)
    if header != TRANSCRIPT_HEADER:
        raise ValueError(f"{path.name}: header {','.join(header)} is not {','.join(TRANSCRIPT_HEADER)}")
    c = {
        name: _parse_column(path, name, values, np.int64 if name in _INTEGER_COLUMNS else np.float64)
        for name, values in zip(header, zip(*rows))
    }
    T, j_lo, j_hi, prob_lo = grid.T, c["j_lo"], c["j_hi"], c["prob_lo"]
    on_hi = c["p_tilde"] == j_hi / T
    bin_lo, bin_hi = _bins_of(grid, j_lo), _bins_of(grid, j_hi)
    # in dependency order: a row reports the first of its columns that fails
    checks = (
        ("j_lo", (j_lo < 0) | (j_lo > T), f"outside 0..{T}"),
        ("j_hi", (j_hi > T) | ((j_hi != j_lo) & (j_hi != j_lo + 1)), f"not j_lo or j_lo + 1 within 0..{T}"),
        ("prob_lo", ~((prob_lo > 0.0) & (prob_lo <= 1.0)) | ((j_lo == j_hi) & (prob_lo != 1.0)), "not in (0, 1], or not 1 on a one-point support"),
        ("p_tilde", ~on_hi & (c["p_tilde"] != j_lo / T), "not a support point j_lo/T or j_hi/T"),
        ("bin", c["bin"] != np.where(on_hi, bin_hi, bin_lo), "not the bin of p_tilde"),
        ("p", c["p"] != c["bin"] / grid.N, f"not bin/N with N={grid.N}"),
        ("y", ~((c["y"] >= 0.0) & (c["y"] <= 1.0)), "not a label in [0, 1]"),  # NaN fails both comparisons
        ("phi_hi", (bin_lo == bin_hi) & (c["phi_hi"] != c["phi_lo"]), "not phi_lo, though both points share a bin"),
    )
    _reject_bad_rows(path, c, checks)
    return c


def _read_contexts(path: Path, T: int) -> np.ndarray:
    """The (T, d) rows of contexts.csv, each checked to be a Context: finite, squared norm at most 1 + NORM_TOL."""
    header, rows = _read_rounds(path, T)
    try:
        features = np.array(rows, dtype=np.float64)[:, 1:]
    except ValueError:
        for k, name in enumerate(header):
            _parse_column(path, name, [row[k] for row in rows], np.float64)
        raise
    names = header[1:]
    widest = np.argmax(np.abs(features), axis=1)
    too_long = np.einsum("ij,ij->i", features, features) > 1.0 + NORM_TOL
    checks = [(name, ~np.isfinite(features[:, k]), "not finite") for k, name in enumerate(names)]
    checks += [
        (name, too_long & (widest == k), f"the largest entry of a row whose squared norm is above 1 + {NORM_TOL:g}")
        for k, name in enumerate(names)
    ]
    _reject_bad_rows(path, dict(zip(names, features.T)), checks)
    return features


def _law_groups(kinds: np.ndarray, p1: np.ndarray, p2: np.ndarray) -> list[tuple[np.ndarray, LawColumns]]:
    """Per-round laws as (rounds, laws) groups, one per law kind; p2 is read for beta laws only."""
    groups = []
    for kind in np.unique(kinds).tolist():
        rows = np.flatnonzero(kinds == kind)
        groups.append((rows, LawColumns(kind, (p1[rows], p2[rows]) if kind == "beta" else (p1[rows],))))
    return groups


def _read_laws(path: Path, T: int) -> list[tuple[np.ndarray, LawColumns]]:
    """The laws of laws.csv as (rounds, laws) groups; a bad kind or parameter is named by row and column."""
    _, rows = _read_rounds(path, T)
    kinds = np.array([row[1] for row in rows])
    p2 = np.array([row[3] for row in rows])
    beta = kinds == "beta"
    checks = (
        ("kind", ~np.isin(kinds, LAW_KINDS), f"not a law kind ({', '.join(LAW_KINDS)})"),
        ("p2", (p2 == "") == beta, "not what the row's law takes: a number for beta laws, else blank"),
    )
    _reject_bad_rows(path, {"kind": kinds, "p2": p2}, checks)
    p1 = _parse_column(path, "p1", [row[2] for row in rows], np.float64)
    p2 = _parse_column(path, "p2", np.where(beta, p2, "nan").tolist(), np.float64)
    bad = np.zeros((2, T), dtype=bool)
    for kind in LAW_KINDS:
        for k, mask in enumerate(invalid_law_params(kind, (p1, p2))):
            bad[k] |= (kinds == kind) & mask
    checks = (("p1", bad[0], "out of range for the row's law"), ("p2", bad[1], "out of range for a beta law"))
    _reject_bad_rows(path, {"p1": p1, "p2": p2}, checks)
    return _law_groups(kinds, p1, p2)


@dataclass
class AuditReport:
    values: np.ndarray
    bound: float
    max_value: float
    passed: bool

    @classmethod
    def of(cls, values: np.ndarray, bound: float) -> "AuditReport":
        max_value = float(values.max())
        return cls(values, bound, max_value, max_value <= bound)


def audit_values(
    prop: Property, grid: GridConfig, laws: list[tuple[np.ndarray, LawColumns]], rounds: dict[str, np.ndarray]
) -> np.ndarray:
    """E_{p ~ P_t}[phi_t(p) * marginal residual(p, law_t)] of every round t.

    ``laws`` holds (rounds, laws) groups of one law kind each, and
    ``rounds`` the transcript columns j_lo, j_hi, prob_lo, phi_lo and
    phi_hi.  The marginal residuals are computed per law kind over all of
    its rounds, and every value comes out of the same float operations as
    the one-round form kept as a reference in the tests, so the two agree
    bit for bit.
    """
    j_lo, j_hi, prob_lo = rounds["j_lo"], rounds["j_hi"], rounds["prob_lo"]
    marginal_lo = np.empty(prob_lo.size)
    marginal_hi = np.empty(prob_lo.size)
    for rows, law in laws:
        marginal_lo[rows] = marginal_identification(prop, j_lo[rows] / grid.T, law)
        marginal_hi[rows] = marginal_identification(prop, j_hi[rows] / grid.T, law)
    value = prob_lo * rounds["phi_lo"] * marginal_lo
    # a one-point round has no upper term; adding a zero would turn -0.0 into +0.0
    return np.where(j_hi != j_lo, value + (1.0 - prob_lo) * rounds["phi_hi"] * marginal_hi, value)


def audit_result(result: RunResult) -> AuditReport:
    """Audit a freshly executed run (no file round trip)."""
    prop = parse_property(result.config.property_spec)
    tr = result.transcript
    laws = _law_groups(
        np.array([law.kind for law in result.laws]),
        np.array([law.params[0] for law in result.laws]),
        np.array([law.params[-1] for law in result.laws]),
    )
    values = audit_values(prop, tr.grid, laws, tr.columns())
    return AuditReport.of(values, result.rho / tr.grid.T + AUDIT_SLACK)


def audit_run_dir(run_dir) -> AuditReport:
    """Audit a persisted run from config.json, laws.csv and transcript.csv; writes audit.csv beside them."""
    run_dir = Path(run_dir)
    config = ExperimentConfig.from_json(run_dir / "config.json")
    prop, _, adversary = config.build_components()
    grid = GridConfig(config.bin_count, config.T)
    laws = _read_laws(run_dir / "laws.csv", config.T)
    rounds = read_transcript(run_dir / "transcript.csv", grid)
    report = AuditReport.of(audit_values(prop, grid, laws, rounds), adversary.rho(prop) / grid.T + AUDIT_SLACK)
    bound = report.bound
    bound_cell = str(bound)  # the same cell every row, formatted once
    _write_csv(
        run_dir / "audit.csv",
        ["t", "value", "bound", "ok"],
        ((t, v, bound_cell, 1 if v <= bound else 0) for t, v in enumerate(report.values.tolist(), start=1)),
    )
    return report


def fit_power_law(T_values, y_values) -> tuple[float, float, float]:
    """OLS fit of log(y) on log(T): returns (slope, slope stderr, residual).

    The residual is the sum of squared log-scale errors.  Needs at least
    three distinct T values.
    """
    T_values = np.asarray(T_values, dtype=np.float64)
    y_values = np.asarray(y_values, dtype=np.float64)
    if np.unique(T_values).size < 3:
        raise ValueError("need at least three distinct horizons for a fit")
    lx = np.log(T_values)
    ly = np.log(y_values)
    n = lx.size
    sxx = float(((lx - lx.mean()) ** 2).sum())
    slope = float(((lx - lx.mean()) * (ly - ly.mean())).sum()) / sxx
    intercept = float(ly.mean() - slope * lx.mean())
    resid = ly - (slope * lx + intercept)
    rss = float((resid**2).sum())
    stderr = math.sqrt(rss / max(n - 2, 1) / sxx)
    return slope, stderr, rss


@dataclass
class SweepReport:
    rows: list[dict]
    slope: float
    slope_stderr: float
    residual: float


def sweep(base: ExperimentConfig, T_values, seeds, out_dir=None) -> SweepReport:
    """Run the (T, seed) grid and fit the swap-error growth rate.

    N is recomputed per horizon from the default tuning unless the base
    config pins it explicitly.  The fit regresses log mean-smcal on log T.
    The horizons must be at least three and distinct, and every cell's
    config is validated before the first cell runs, so a bad horizon or
    seed list raises ``ConfigError`` and writes nothing.  Any cell failure
    aborts the sweep; completed rows are persisted first.
    """
    T_values = [_whole_number("T", t) for t in T_values]
    seeds = [_whole_number("seed", s) for s in seeds]
    if len(set(T_values)) != len(T_values):
        raise ConfigError(f"T: a horizon is repeated in {T_values}")
    if len(T_values) < 3:
        raise ConfigError("T: need at least three distinct horizons")
    if not seeds:
        raise ConfigError("seeds: need at least one seed per horizon")
    base_raw = base.to_dict()
    base_raw.pop("out", None)
    cells = [ExperimentConfig.from_dict({**base_raw, "T": T, "seed": seed}) for T in T_values for seed in seeds]
    rows: list[dict] = []
    out_path = Path(out_dir) if out_dir is not None else None

    def persist_partial() -> None:
        if out_path is None or not rows:
            return
        out_path.mkdir(parents=True, exist_ok=True)
        header = ["T", "N", "seed", "smcal", "mcal", "cal", "wall_time"]
        _write_csv(out_path / "sweep.csv", header, (tuple(r[k] for k in header) for r in rows))

    for cfg in cells:
        try:
            res = run(cfg)
        except Exception:
            persist_partial()
            raise
        rows.append(
            {
                "T": cfg.T,
                "N": res.transcript.grid.N,
                "seed": cfg.seed,
                "smcal": res.metrics["smcal"],
                "mcal": res.metrics["mcal"],
                "cal": res.metrics["cal"],
                "wall_time": res.wall_time,
            }
        )
    persist_partial()
    means = [float(np.mean([r["smcal"] for r in rows if r["T"] == T])) for T in T_values]
    slope, stderr, rss = fit_power_law(T_values, means)
    if out_path is not None:
        _write_csv(
            out_path / "sweep_fit.csv",
            ["slope", "slope_stderr", "residual"],
            [(slope, stderr, rss)],
        )
    return SweepReport(rows, slope, stderr, rss)


def compute_metrics_for_run_dir(run_dir, r_values, per_bin: bool = False) -> list[dict]:
    """Recompute cal/mcal/smcal for a persisted run at several orders r.

    With ``per_bin`` set, also writes metrics_bins.csv holding one row per
    bin: the round count and the bin's supremum correlation.
    """
    try:
        r_values = [check_order(r) for r in r_values]
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if not r_values:
        raise ConfigError("need at least one error order r")
    run_dir = Path(run_dir)
    config = ExperimentConfig.from_json(run_dir / "config.json")
    prop, cls_obj, _ = config.build_components()
    grid = GridConfig(config.bin_count, config.T)
    rounds = read_transcript(run_dir / "transcript.csv", grid)
    transcript = Transcript.from_columns(grid, rounds, _read_contexts(run_dir / "contexts.csv", config.T))
    agg = aggregate(transcript, prop, cls_obj)
    out = [_metrics_row(config, transcript, prop, cls_obj, agg, r) for r in r_values]
    header = list(out[0].keys())
    _write_csv(run_dir / "metrics.csv", header, (tuple(row[k] for k in header) for row in out))
    if per_bin:
        from .hypotheses import sup_correlation

        def bin_rows():
            for i in range(grid.N):
                n = int(agg.counts[i])
                row = agg.member_sums[i] if agg.member_sums is not None else agg.moment_vectors[i]
                value, _ = sup_correlation(cls_obj, row)
                yield (i + 1, n, value)

        _write_csv(run_dir / "metrics_bins.csv", ["bin", "n", "sup_correlation"], bin_rows())
    return out

"""Simulation harness: replicated experiments, tuning, data files, reports.

Runs a configured test over many independent replications with fully
deterministic seeding (replication i uses a generator keyed by (seed, i), so
results do not depend on execution order), summarises
rejection rates and p-value uniformity, searches bandwidth grids, and reads
and writes the package's CSV/JSON interchange formats.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .condsym import KciConfig, cp_test, kci_test
from .errors import (
    ConfigInvalid,
    DataFileMissing,
    EmptyGrid,
    IoError,
    ParseError,
    RangeError,
    SampleTooSmall,
    SchemaMismatch,
    SymtestError,
    TooFewValues,
    _check_budget,
)
from .groups import INVARIANT_KINDS, parse_group
from .invariance import (
    inversion_mc_test,
    mc_invariance_test,
    power_estimate,
    transformation_two_sample_test,
)
from .kernels import parse_kernel
from .synthdata import parse_generator, sample

METHODS = ("mmd", "nmmd", "cw", "2smmd", "inversion-mmd", "kci", "cp")

# the methods that test the law of a response given X; the rest, of X alone
_CONDITIONAL_METHODS = ("kci", "cp")

# the methods that run ``mc_invariance_test``, with their statistics
_MC_STATISTICS = {"mmd": "mmd-u", "nmmd": "mmd-nystrom", "cw": "cw"}


def _is_int(v):
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _is_real(v):
    return _is_int(v) or isinstance(v, (float, np.floating))


@dataclass
class ExperimentConfig:
    """A replicated experiment: which test, on what data, at what scale."""

    method: str
    group: str
    n: int = 200
    reps: int = 100
    m: int = 2
    B: int = 200
    alpha: float = 0.05
    kernel: str = "rbf(median)"
    generator: str | None = None
    data: str | None = None
    schema: dict | None = None
    kernel_y: str = "rbf(median)"
    kernel_m: str = "rbf(median)"
    epsilon: float = 1e-3
    null_samples: int = 1000
    burn_in: int = 50
    n_landmarks: int | None = None
    n_projections: int | None = None
    n_resamples: int = 50
    y_action: str = "same"
    m_kind: str | None = None
    seed: int = 0

    @classmethod
    def from_dict(cls, raw):
        if not isinstance(raw, dict):
            raise ConfigInvalid("configuration must be a JSON object")
        known = {f for f in cls.__dataclass_fields__}
        extra = set(raw) - known
        if extra:
            raise ConfigInvalid(f"unknown configuration keys: {sorted(extra)}")
        if "method" not in raw or "group" not in raw:
            raise ConfigInvalid("configuration needs 'method' and 'group'")
        cfg = cls(**raw)
        cfg.validate()
        return cfg

    def validate(self):
        if self.method not in METHODS:
            raise ConfigInvalid(
                f"unknown method {self.method!r}; choose one of {tuple(METHODS)}"
            )
        for name in ("n", "reps", "m", "B", "null_samples", "burn_in",
                     "n_resamples", "n_landmarks", "n_projections"):
            v = getattr(self, name)
            if v is None and name in ("n_landmarks", "n_projections"):
                continue
            if not _is_int(v) or v < 1:
                raise ConfigInvalid(f"{name} must be a positive integer")
        if self.n_landmarks is not None and self.n_landmarks > self.n:
            raise ConfigInvalid("n_landmarks must not exceed n")
        if not _is_int(self.seed) or self.seed < 0:
            raise ConfigInvalid("seed must be a nonnegative integer")
        if not _is_real(self.alpha) or not 0 < self.alpha < 1:
            raise ConfigInvalid("alpha must lie strictly between 0 and 1")
        if not _is_real(self.epsilon) or not 0 < self.epsilon < math.inf:
            raise ConfigInvalid("epsilon must be positive and finite")
        if (self.generator is None) == (self.data is None):
            raise ConfigInvalid("exactly one of 'generator' or 'data' is required")
        if self.data is not None and self.schema is None:
            raise ConfigInvalid("file-backed experiments need a 'schema'")
        for name, parse in (("group", parse_group), ("generator", parse_generator),
                            ("kernel", parse_kernel), ("kernel_y", parse_kernel),
                            ("kernel_m", parse_kernel)):
            text = getattr(self, name)
            if text is None and name == "generator":
                continue
            if not isinstance(text, str):
                raise ConfigInvalid(f"{name} must be a descriptor string")
            try:
                parse(text)
            except SymtestError as exc:
                raise ConfigInvalid(f"bad {name} descriptor: {exc}") from exc
        if self.y_action not in ("same", "trivial"):
            raise ConfigInvalid("y_action must be 'same' or 'trivial'")
        if self.m_kind is not None and self.m_kind not in INVARIANT_KINDS:
            raise ConfigInvalid(f"m_kind must be null or one of {INVARIANT_KINDS}")


@dataclass
class SimulationReport:
    """Summary of one replicated experiment."""

    method: str
    group: str
    n: int
    reps: int
    alpha: float
    rejection_rate: float
    rejection_se: float
    ks_stat: float
    ks_p: float
    mean_seconds: float
    pvalues: list = field(default_factory=list)
    config: dict = field(default_factory=dict)
    version: str = __version__


def pvalue_uniformity_check(pvalues, null_count):
    """KS distance of p-values from the uniform law on {1, ..., N+1}/(N+1).

    That is the null law of a p-value ranked among N = ``null_count`` nulls;
    the distance is read at its atoms and its tail from the continuous
    Kolmogorov law, which is conservative for a discrete null (Noether 1963).
    """
    p = np.sort(np.asarray(pvalues, dtype=float))
    if p.size < 5:
        raise TooFewValues("uniformity needs at least five p-values")
    _check_budget(null_count, "null_count")
    from scipy.stats import kstwo

    atoms = np.arange(1, null_count + 2) / (null_count + 1.0)
    ecdf = np.searchsorted(p, atoms, side="right") / p.size
    stat = float(np.abs(ecdf - atoms).max())
    return stat, float(kstwo.sf(stat, p.size))


def _rep_rng(seed, rep):
    return np.random.default_rng([int(seed), int(rep)])


def _draw(config, rng, dataset=None):
    """The tested sample X, Y: n generated rows, or n random rows of ``dataset``."""
    if dataset is None:
        gen = parse_generator(config.generator)
        out = sample(gen, config.n, rng)
        X, Y = out if gen.conditional else (out, None)
    else:
        X, Y = dataset
        if X.shape[0] < config.n:
            raise SampleTooSmall(f"data file has {X.shape[0]} rows; "
                                 f"{config.n} are needed per replication")
        rows = rng.permutation(X.shape[0])[:config.n]
        X, Y = X[rows], None if Y is None else Y[rows]
    if config.method in _CONDITIONAL_METHODS and Y is None:
        raise ConfigInvalid(f"method {config.method!r} needs responses")
    return X, Y


def run_replication(config, rep, dataset=None):
    """Run one replication of a configured experiment; returns a TestResult."""
    rng = _rep_rng(config.seed, rep)
    spec = parse_group(config.group)
    X, Y = _draw(config, rng, dataset)
    return _run_test(config, X, Y, spec, rng)


def _run_test(config, X, Y, spec, rng):
    """The config's test, with its kernels and sizes, on the sample X, Y."""
    kernel = parse_kernel(config.kernel)
    if config.method in _MC_STATISTICS:
        return mc_invariance_test(
            X, spec, kernel=kernel, m=config.m, B=config.B, alpha=config.alpha,
            statistic=_MC_STATISTICS[config.method], rng=rng,
            n_landmarks=config.n_landmarks, n_projections=config.n_projections,
        )
    if config.method in ("2smmd", "inversion-mmd"):
        test = (transformation_two_sample_test if config.method == "2smmd"
                else inversion_mc_test)
        return test(X, spec, kernel, B=config.B, alpha=config.alpha, rng=rng)
    kernel_y, kernel_m = parse_kernel(config.kernel_y), parse_kernel(config.kernel_m)
    common = dict(alpha=config.alpha, rng=rng, y_action=config.y_action,
                  m_kind=config.m_kind)
    if config.method == "kci":
        kci_cfg = KciConfig(kernel, kernel_y, kernel_m, config.epsilon,
                            config.null_samples)
        return kci_test(X, Y, spec, kci_cfg, **common)
    return cp_test(X, Y, spec, kernel_y, kernel_m, burn_in=config.burn_in,
                   B=config.B, **common)


def _read_dataset(config):
    """The (X, Y-or-None) rows of the config's data file; None for generated data."""
    if config.data is None:
        return None
    X, Y, _ = ingest_csv(config.data, config.schema)
    return X, Y


def run_simulation(config):
    """Run all replications of an experiment and summarise the outcomes."""
    config.validate()
    dataset = _read_dataset(config)
    pvalues = np.empty(config.reps)
    seconds = np.empty(config.reps)
    for rep in range(config.reps):
        t0 = time.perf_counter()
        res = run_replication(config, rep, dataset)
        pvalues[rep], seconds[rep] = res.p_value, time.perf_counter() - t0
    rate = float(np.mean(pvalues <= config.alpha))
    se = float(np.sqrt(rate * (1.0 - rate) / config.reps))
    if config.reps >= 5:
        # every replication of a config ranks its statistic among as many nulls
        ks_stat, ks_p = pvalue_uniformity_check(pvalues, res.null_stats.size)
    else:
        ks_stat = ks_p = float("nan")
    return SimulationReport(
        method=config.method, group=config.group, n=config.n, reps=config.reps,
        alpha=config.alpha, rejection_rate=rate, rejection_se=se,
        ks_stat=ks_stat, ks_p=ks_p, mean_seconds=float(seconds.mean()),
        pvalues=[float(p) for p in pvalues], config=asdict(config),
    )


def run_power_estimate(config):
    """Estimate the power of the config's test from replication 0's sample.

    Defined for the methods that test X alone: the sample X that
    replication 0 draws is resampled ``n_resamples`` times, and the test of
    a replication is rerun on each resample.
    """
    config.validate()
    if config.method in _CONDITIONAL_METHODS:
        raise ConfigInvalid(f"power estimation is defined for the methods that "
                            f"test X alone, not for {config.method!r}")
    rng = _rep_rng(config.seed, 0)
    spec = parse_group(config.group)
    X, _ = _draw(config, rng, _read_dataset(config))
    return power_estimate(X, lambda sample: _run_test(config, sample, None, spec, rng),
                          config.n_resamples, rng)


# ---------------------------------------------------------------------------
# bandwidth tuning


def tune_bandwidths(grids, measure, h0_cap=0.1):
    """Grid search over kernel bandwidth combinations.

    ``grids`` maps parameter names to candidate lists; ``measure`` is called
    once per combination with a dict of chosen values and must return a pair
    (null rejection rate, alternative rejection rate).  Among combinations
    whose null rate stays at or below ``h0_cap`` the one with the highest
    alternative rate wins; if none qualify, the lowest null rate wins.  Ties
    keep the earliest combination in grid enumeration order.

    Returns (best combination, records), where records lists every
    combination with its measured rates in evaluation order.
    """
    names = list(grids)
    if not names or any(len(grids[k]) == 0 for k in names):
        raise EmptyGrid("every tuning grid must have at least one candidate")
    combos = [{}]
    for name in names:
        combos = [dict(c, **{name: v}) for c in combos for v in grids[name]]
    records = []
    for combo in combos:
        h0, h1 = measure(combo)
        records.append({"combo": combo, "h0_rate": float(h0), "h1_rate": float(h1)})
    ok = [r for r in records if r["h0_rate"] <= h0_cap]
    if ok:
        best = max(ok, key=lambda r: r["h1_rate"])  # max keeps the first tie
    else:
        best = min(records, key=lambda r: r["h0_rate"])
    return best["combo"], records


# ---------------------------------------------------------------------------
# data files


def ingest_csv(path, schema):
    """Read a CSV data file against a declared column schema.

    ``schema`` maps ``features`` to the covariate column names (in order) and
    optionally ``response`` to response column names.  Returns (X, Y-or-None,
    header).  Blank lines and lines starting with ``#`` are skipped; missing
    files, missing columns, unparseable cells and non-finite values raise
    the corresponding errors.
    """
    if not isinstance(schema, dict) or "features" not in schema:
        raise SchemaMismatch("schema must declare a 'features' column list")
    feat_cols = list(schema["features"])
    resp_cols = list(schema.get("response", []))
    if not os.path.exists(path):
        raise DataFileMissing(f"no such data file: {path}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaMismatch("data file is empty") from None
        header = [h.strip() for h in header]
        missing = [c for c in feat_cols + resp_cols if c not in header]
        if missing:
            raise SchemaMismatch(f"data file lacks columns: {missing}")
        fi = [header.index(c) for c in feat_cols]
        ri = [header.index(c) for c in resp_cols]
        x_rows, y_rows = [], []
        for rownum, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if row[0].lstrip().startswith("#"):
                continue
            vals = []
            for col in fi + ri:
                cell = row[col].strip() if col < len(row) else ""
                try:
                    v = float(cell)
                except ValueError:
                    raise ParseError(
                        f"cannot parse {cell!r} at row {rownum}, "
                        f"column {header[col]!r}",
                        row=rownum, column=header[col],
                    ) from None
                if not math.isfinite(v):
                    raise RangeError(
                        f"non-finite value at row {rownum}, column {header[col]!r}"
                    )
                vals.append(v)
            x_rows.append(vals[: len(fi)])
            if ri:
                y_rows.append(vals[len(fi):])
    if not x_rows:
        raise SchemaMismatch("data file contains no data rows")
    X = np.asarray(x_rows, dtype=float)
    Y = np.asarray(y_rows, dtype=float) if ri else None
    return X, Y, header


# ---------------------------------------------------------------------------
# reports


def emit_report(report, path, fmt="json"):
    """Write a report as JSON (full object) or CSV (one row per replication).

    The CSV form lists (replication index, p-value, reject flag) and ends
    with a ``#`` summary comment line; its p-value column round-trips
    through ``ingest_csv``.
    """
    if fmt == "json":
        write_json(path, asdict(report))
        return
    if fmt != "csv":
        raise IoError(f"unknown report format {fmt!r}")
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["rep", "pvalue", "reject"])
            for i, p in enumerate(report.pvalues):
                writer.writerow([i, repr(p), int(p <= report.alpha)])
            fh.write(
                f"# method={report.method} group={report.group} "
                f"n={report.n} reps={report.reps} alpha={report.alpha} "
                f"rejection_rate={report.rejection_rate} "
                f"rejection_se={report.rejection_se}\n"
            )
    except OSError as exc:
        raise IoError(f"cannot write report to {path}: {exc}") from exc


def write_json(path, payload):
    """Write a JSON report, indented, ending in a newline."""
    try:
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise IoError(f"cannot write report to {path}: {exc}") from exc

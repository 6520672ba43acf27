"""Command line interface.

Subcommands::

    symtest invariance  --config cfg.json [overrides]   marginal invariance tests
    symtest equivariance --config cfg.json [overrides]  conditional (X, Y) tests
    symtest simulate    --config cfg.json --out r.json  any replicated experiment
    symtest power       --config cfg.json               single-dataset power estimate
    symtest tune        --config cfg.json               bandwidth grid search

Configurations are JSON objects with the fields of ExperimentConfig; command
line overrides (--n, --reps, --seed, ...) take precedence.  ``tune`` takes
neither overrides nor ``--format``, and ``power`` no ``--format``.  Exit codes:
0 success, 2 configuration problems, 3 data file problems.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from . import __version__
from .errors import (
    ConfigInvalid,
    DataFileMissing,
    ParseError,
    RangeError,
    SchemaMismatch,
    SymtestError,
)
from .harness import (
    METHODS,
    _CONDITIONAL_METHODS,
    ExperimentConfig,
    _is_int,
    _is_real,
    emit_report,
    run_power_estimate,
    run_simulation,
    tune_bandwidths,
    write_json,
)

_INVARIANCE_METHODS = tuple(m for m in METHODS if m not in _CONDITIONAL_METHODS)

# the ExperimentConfig fields a flag overrides, with their types; the flag
# spells the field's underscores as dashes
_OVERRIDES = (
    ("method", str), ("group", str), ("generator", str), ("data", str),
    ("kernel", str), ("n", int), ("reps", int), ("m", int), ("B", int),
    ("alpha", float), ("seed", int),
    ("n_resamples", int), ("null_samples", int), ("burn_in", int),
)


def _read_json_object(path):
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigInvalid(f"no such configuration file: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"configuration is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigInvalid("configuration must be a JSON object")
    return raw


def _load_config(args, allowed_methods=None):
    raw = _read_json_object(args.config)
    for name, _ in _OVERRIDES:
        value = getattr(args, name, None)
        if value is not None:
            raw[name] = value
    cfg = ExperimentConfig.from_dict(raw)
    if allowed_methods and cfg.method not in allowed_methods:
        raise ConfigInvalid(
            f"method {cfg.method!r} is not valid here; use one of {allowed_methods}"
        )
    return cfg


def _print_summary(report):
    print(f"method={report.method} group={report.group} n={report.n} "
          f"reps={report.reps} alpha={report.alpha}")
    print(f"rejection-rate={report.rejection_rate:.4f} "
          f"(se={report.rejection_se:.4f})")
    print(f"pvalue-uniformity: ks={report.ks_stat:.4f} p={report.ks_p:.4f}")
    print(f"mean-seconds-per-replication={report.mean_seconds:.4f}")


def _cmd_simulate(args, allowed=None):
    cfg = _load_config(args, allowed)
    report = run_simulation(cfg)
    _print_summary(report)
    if args.out:
        emit_report(report, args.out, args.format)
        print(f"report written to {args.out}")
    return 0


def _cmd_power(args):
    cfg = _load_config(args)
    est = run_power_estimate(cfg)
    print(f"estimated-power={est.beta_hat:.4f} over {est.n_resamples} resamples "
          f"(B={cfg.B}, alpha={cfg.alpha})")
    if args.out:
        write_json(args.out, {
            "beta_hat": est.beta_hat,
            "betas": [float(b) for b in est.betas],
            "n_resamples": est.n_resamples,
            "B": cfg.B,
            "alpha": cfg.alpha,
            "config": asdict(cfg),
        })
        print(f"report written to {args.out}")
    return 0


def _cmd_tune(args):
    raw = _read_json_object(args.config)
    for key in ("grids", "h0", "h1"):
        if key not in raw:
            raise ConfigInvalid(f"tuning configuration needs {key!r}")
    grids = raw["grids"]
    if not isinstance(grids, dict) or not all(
        isinstance(v, list) and v for v in grids.values()
    ):
        raise ConfigInvalid(
            "grids must map parameter names to nonempty lists of candidates"
        )
    for key in ("h0", "h1"):
        if not isinstance(raw[key], dict):
            raise ConfigInvalid(f"{key} must be a configuration object")
    train_reps = raw.get("train_reps", 100)
    if not _is_int(train_reps) or train_reps < 1:
        raise ConfigInvalid("train_reps must be a positive integer")
    h0_cap = raw.get("h0_cap", 0.1)
    if not _is_real(h0_cap):
        raise ConfigInvalid("h0_cap must be a number")
    base_h0 = dict(raw["h0"])
    base_h1 = dict(raw["h1"])

    def measure(combo):
        rates = []
        for base in (base_h0, base_h1):
            d = dict(base)
            d.setdefault("reps", train_reps)
            for key, value in combo.items():
                d[key] = f"rbf({value})" if key.startswith("kernel") else value
            cfg = ExperimentConfig.from_dict(d)
            rates.append(run_simulation(cfg).rejection_rate)
        return rates[0], rates[1]

    best, records = tune_bandwidths(grids, measure, float(h0_cap))
    for rec in records:
        print(f"combo={rec['combo']} h0={rec['h0_rate']:.3f} h1={rec['h1_rate']:.3f}")
    print(f"selected: {best}")
    if args.out:
        write_json(args.out, {"selected": best, "records": records})
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="symtest",
        description="Monte Carlo tests of distributional invariance and equivariance",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("invariance", "equivariance", "simulate", "power", "tune"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON configuration file")
        p.add_argument("--out", help="write the report to this path")
        if name != "tune":
            for field, typ in _OVERRIDES:
                p.add_argument(f"--{field.replace('_', '-')}", type=typ, dest=field)
        if name not in ("power", "tune"):
            p.add_argument("--format", default="json", choices=("json", "csv"))
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "invariance":
            return _cmd_simulate(args, _INVARIANCE_METHODS)
        if args.command == "equivariance":
            return _cmd_simulate(args, _CONDITIONAL_METHODS)
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "power":
            return _cmd_power(args)
        return _cmd_tune(args)
    except ConfigInvalid as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (DataFileMissing, SchemaMismatch, ParseError, RangeError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except SymtestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

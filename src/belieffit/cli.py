"""Command-line harness: calibrate, train, experiment, replay.

All commands are deterministic given (config, seed); metric and step CSVs are
written sorted and re-validated before exit.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import operator
import os
import sys
from pathlib import Path

import numpy as np

from . import config as cfg
from .errors import BeliefFitError, ConfigurationError, OptimizationFailureError
from .experiments import (
    KIND_IDS,
    METRIC_COLUMNS,
    STEP_COLUMNS,
    ExperimentSpec,
    run_experiment,
)
from .policy import PolicyVariant
from .seeding import STREAM_CALIBRATE, STREAM_DATASET, derive_rng
from .sim import tune_capture_radius
from .training import (
    check_fit_settings,
    fit_parameters,
    generate_dataset,
    load_dataset,
    mle_confusion_oracle,
    mle_covariance_oracle,
    read_table,
    save_dataset,
    write_csv,
)

DEFAULT_TRIALS = {"position_estimation": 100, "matching_insertion": 150, "assembly": 100}


def _require_increasing(keys: list, path: Path) -> None:
    """Each row's key must be strictly greater than the one before it, so
    rows are sorted and none is repeated."""
    if any(a >= b for a, b in zip(keys, keys[1:])):
        raise ConfigurationError(f"rows out of order or repeated in {path}")


def validate_metrics_csv(path: Path) -> None:
    """Schema gate run before exit: header, strictly increasing keys, finite
    values."""

    def key(row):
        if not np.isfinite(float(row[5])):
            raise ValueError("non-finite metric value")
        return (row[0], row[1], int(row[2]), int(row[3]), row[4])

    _require_increasing(read_table(
        path, METRIC_COLUMNS, "metrics", lambda rows: list(map(key, rows))), path)


def validate_steps_csv(path: Path) -> None:
    _require_increasing(read_table(path, STEP_COLUMNS, "steps", lambda rows: [
        (r[0], r[1], int(r[2]), int(r[3]), int(r[5])) for r in rows]), path)


def _require_out(path, directory: bool) -> None:
    """Fail before any work when `--out` cannot be written as asked: an
    existing path of the wrong kind (anything but a directory for a run
    directory, a directory for a file), a path under a file, or a file
    whose directory is missing.  The error is the one the write would
    raise at the end."""
    if path is None:
        return
    found = path  # `path` or its nearest existing ancestor, "" if none exists
    while found and not os.path.exists(found):
        found = os.path.dirname(found)
    if found and os.path.isdir(found) != (directory or found != path):
        code = errno.EISDIR if os.path.isdir(found) else errno.ENOTDIR
    elif not directory and found not in (path, os.path.dirname(path)):
        code = errno.ENOENT  # a file whose directory is missing
    else:
        return
    raise OSError(code, os.strerror(code), path)


def _parse_variants(raw: str | None) -> tuple[PolicyVariant, ...]:
    """The variants a `--variants` flag names; none leaves the spec's default."""
    if not raw:
        return ()
    by_value = {v.value: v for v in PolicyVariant}
    out = []
    for name in raw.split(","):
        name = name.strip()
        if name not in by_value:
            raise ConfigurationError(
                f"unknown variant {name!r}; choose from {sorted(by_value)}"
            )
        out.append(by_value[name])
    return tuple(out)


def cmd_calibrate(args) -> int:
    _require_out(args.out, directory=False)
    doc = cfg.load_config(args.config)
    env = cfg.env_from(doc)
    spiral = cfg.spiral_from(doc)
    target = args.target_alpha if args.target_alpha is not None else env.alpha
    rng = derive_rng(args.seed, STREAM_CALIBRATE)
    result = tune_capture_radius(env, spiral, target, args.trials, rng)
    if result.alpha_hat <= 0.0:  # no config may hold it: alpha must lie in (0, 1]
        print(
            f"error: measured alpha is 0 over {result.trials} trials "
            f"at capture radius {result.capture_radius}; rerun with more --trials",
            file=sys.stderr,
        )
        return 2
    print(f"target alpha      : {result.target}")
    print(f"measured alpha    : {result.alpha_hat}")
    print(f"capture radius [m]: {result.capture_radius}")
    if not result.feasible:
        print(
            "warning: target exceeds the achievable success rate; "
            "capture radius clamped to its feasibility bound",
            file=sys.stderr,
        )
    if args.out:
        doc["env"]["capture_radius"] = result.capture_radius
        doc["env"]["alpha"] = result.alpha_hat
        doc["calibration"] = {
            "target_alpha": result.target,
            "alpha_hat": result.alpha_hat,
            "capture_radius": result.capture_radius,
            "trials": result.trials,
            "seed": args.seed,
        }
        cfg.save_config(doc, args.out)
        print(f"wrote {args.out}")
    return 0


def cmd_train(args) -> int:
    _require_out(args.out, directory=True)
    check_fit_settings(args.lr, args.epochs)
    doc = cfg.load_config(args.config)
    env = cfg.env_from(doc)
    spiral = cfg.spiral_from(doc)
    sensors = cfg.sensors_from(doc)

    if args.dataset:
        records = load_dataset(args.dataset, env)
    else:
        records = generate_dataset(
            env, sensors, args.generate, derive_rng(args.seed, STREAM_DATASET), spiral
        )
    # the oracles reject a batch they cannot estimate from before the fit;
    # they read the dataset's columns
    cov_oracle = mle_covariance_oracle(records.obs, records.position)
    is_match = (records.peg_type == records.hole_type).tolist()
    tpr_oracle, fpr_oracle = mle_confusion_oracle(list(zip(is_match, records.o_match.tolist())))
    matched = sum(is_match)
    print(f"records           : {len(records)} ({matched} matched / "
          f"{len(records) - matched} mismatched)")

    history: list[float] = []
    params = fit_parameters(
        records, init=None, lr=args.lr, epochs=args.epochs,
        alpha=env.alpha, history_out=history,
    )
    models = params.to_filter_models()
    # written only once the fit has succeeded: a failed run leaves --out as it was
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if not args.dataset:
        save_dataset(records, out_dir / "dataset.csv")
    write_csv(
        out_dir / "loss.csv", ("epoch", "mean_nll"),
        [(e + 1, history[e]) for e in range(len(history))],
    )

    window = 50
    if len(history) >= 2 * window:
        trailing_ok = (
            float(np.mean(history[-window:]))
            <= float(np.mean(history[-2 * window:-window])) + 1e-12
        )
    else:
        trailing_ok = history[-1] <= history[0] + 1e-12
    print(f"final mean NLL    : {history[-1]}")
    print(f"trailing window loss non-increasing: {trailing_ok}")

    learned_cov = params.position_cov
    rel = float(
        np.linalg.norm(learned_cov - cov_oracle) / np.linalg.norm(cov_oracle)
    )
    print(f"learned cov       : {learned_cov.tolist()}")
    print(f"oracle cov        : {cov_oracle.tolist()}")
    print(f"cov rel. gap      : {rel}")
    print(f"learned (tpr,fpr) : ({params.tpr}, {params.fpr})")
    print(f"oracle  (tpr,fpr) : ({tpr_oracle}, {fpr_oracle})")

    params_path = out_dir / "learned_params.json"
    params_path.write_text(
        json.dumps(cfg.learned_to_doc(models), indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {params_path}")
    return 0


def cmd_experiment(args) -> int:
    _require_out(args.out, directory=True)
    doc = cfg.load_config(args.config)
    env = cfg.env_from(doc)
    spiral = cfg.spiral_from(doc)
    sensors = cfg.sensors_from(doc)
    # without trained parameters the filters hold the sensors' truth
    learned = cfg.load_params(args.params) if args.params else sensors.filter_models()
    trials = args.trials if args.trials is not None else DEFAULT_TRIALS[args.kind]
    spec = ExperimentSpec(
        kind=args.kind,
        env=env,
        spiral=spiral,
        sensors=sensors,
        learned=learned,
        trials=trials,
        seed=args.seed,
        variants=_parse_variants(args.variants),
        steps=args.steps,
        step_cap=args.step_cap,
    )
    metric_rows, step_rows = run_experiment(spec)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    metrics_path = out_dir / "metrics.csv"
    write_csv(metrics_path, METRIC_COLUMNS, metric_rows)
    steps_path = out_dir / "steps.csv"
    write_csv(steps_path, STEP_COLUMNS, step_rows)
    validate_metrics_csv(metrics_path)
    validate_steps_csv(steps_path)

    value = {(r.variant, r.metric, r.step): r.value for r in metric_rows}
    print(f"experiment        : {args.kind} ({trials} trials, seed {args.seed})")
    for name in (variant.value for variant in spec.variants):
        if args.kind == "position_estimation":
            first, last = (value[name, "pos_error_mean", t] for t in (0, spec.steps))
            print(f"  {name}: mean error {first:.4f} m -> {last:.4f} m")
        elif args.kind == "matching_insertion":
            final = value[name, "success_rate", env.horizon_high]
            print(f"  {name}: success within {env.horizon_high} steps = {final:.3f}")
        else:
            iv = value[name, "intervention_rate", 0]
            cm = value[name, "cum_attempts_mean", env.n_holes]
            print(f"  {name}: interventions {iv:.3f}, mean cumulative attempts {cm:.1f}")
    print(f"wrote {metrics_path} and {steps_path}")
    return 0


# the steps.csv cells that replay reads as numbers: the trial, the type
# belief's entries and the start, mean and error of the step line
_TRIAL, _XI = STEP_COLUMNS.index("trial"), STEP_COLUMNS.index("xi")
_NUMBERS = operator.itemgetter(*map(STEP_COLUMNS.index, (
    "start_x", "start_y", "mu_x", "mu_y", "pos_error")))


def _replay_row(cells) -> tuple:
    """Trial, cells, type belief and (start_x, start_y, mu_x, mu_y,
    pos_error) of one steps.csv row, parsed in the order the step line
    reads them."""
    trial = int(cells[_TRIAL])
    xi = list(map(float, cells[_XI].split("|")))
    return trial, cells, xi, list(map(float, _NUMBERS(cells)))


def cmd_replay(args) -> int:
    # every row is parsed, so a malformed one exits 2 whatever its trial;
    # only the asked trial's rows are kept and formatted
    rows = read_table(Path(args.results) / "steps.csv", STEP_COLUMNS, "steps", lambda lines: [
        r for r in map(_replay_row, lines) if r[0] == args.trial])
    if not rows:
        print(f"error: no records for trial {args.trial}", file=sys.stderr)
        return 2
    current = None
    for trial, cells, xi, (sx, sy, mx, my, err) in rows:
        row = dict(zip(STEP_COLUMNS, cells))
        if (row["variant"], row["peg_index"]) != current:
            current = row["variant"], row["peg_index"]
            print(f"[{row['experiment']}] trial {trial} variant {row['variant']} "
                  f"peg#{row['peg_index']} (type {row['peg_type']}) -> {row['status']}")
        print(f"  t={row['step']:>3} hole={row['chosen_hole']} start=({sx:+.4f},{sy:+.4f}) "
              f"beta={row['beta']} mu=({mx:+.4f},{my:+.4f}) err={err:.4f} "
              f"xi=[{', '.join(f'{x:.3f}' for x in xi)}] fitted={row['fitted']}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves it as it was
    and returns a new namespace each time."""
    parser = argparse.ArgumentParser(
        prog="belieffit",
        description="Belief-space object fitting: calibration, training, experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", help="tune the capture radius to a target success rate")
    p.add_argument("--config", default=None)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--target-alpha", type=float, default=None)
    p.add_argument("--out", default=None, help="write the calibrated config here")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("train", help="fit filter noise parameters on interaction data")
    p.add_argument("--config", default=None)
    p.add_argument("--dataset", default=None, help="existing dataset CSV")
    p.add_argument("--generate", type=int, default=3000,
                   help="generate this many interactions when no dataset is given")
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--epochs", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="train_out")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("experiment", help="run one of the benchmark studies")
    p.add_argument("kind", choices=sorted(KIND_IDS))
    p.add_argument("--config", default=None)
    p.add_argument("--params", default=None, help="learned-parameters JSON file")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--variants", default=None,
                   help="comma-separated variant names (default: per-kind set)")
    p.add_argument("--steps", type=int, default=ExperimentSpec.steps,
                   help="interaction steps for position_estimation")
    p.add_argument("--step-cap", type=int, default=ExperimentSpec.step_cap,
                   help="per-peg attempt cap for assembly")
    p.add_argument("--out", default="results")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("replay", help="dump the per-step log of one trial")
    p.add_argument("--results", required=True)
    p.add_argument("--trial", type=int, required=True)
    p.set_defaults(func=cmd_replay)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OptimizationFailureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BeliefFitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a size flag asked for more than the host has
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a path that cannot be read or written as asked
        where = "" if exc.filename is None else f"{exc.filename}: "
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

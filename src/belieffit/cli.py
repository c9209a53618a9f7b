"""Command-line harness: calibrate, train, experiment, replay.

All commands are deterministic given (config, seed).  `experiment` checks its
metric and step rows by the rules of `validate_metrics_csv` and
`validate_steps_csv` before either file is written, and never reads them back.
"""

from __future__ import annotations

import argparse
import functools
import math
import operator
import sys
from pathlib import Path

import numpy as np

from . import config as cfg
from .errors import (BeliefFitError, ConfigurationError, InvalidInputError,
                     OptimizationFailureError)
from .experiments import (
    DEFAULT_STEPS,
    KIND_ASSEMBLY,
    KIND_IDS,
    KIND_POSITION,
    METRIC_COLUMNS,
    STEP_COLUMNS,
    ExperimentSpec,
    run_experiment,
)
from .runfiles import null_stdout, read_table, require_out, write_csv, write_json
from .seeding import STREAM_CALIBRATE, STREAM_DATASET, derive_rng
from .sim import tune_capture_radius
from .training import (
    check_fit_settings,
    fit_parameters,
    generate_dataset,
    load_dataset,
    mle_confusion_oracle,
    mle_covariance_oracle,
    save_dataset,
)


def _require_increasing(keys: list, path: Path) -> None:
    """Each row's key must be strictly greater than the one before it, so
    rows are sorted and none is repeated."""
    if any(a >= b for a, b in zip(keys, keys[1:])):
        raise ConfigurationError(f"rows out of order or repeated in {path}")


def _metric_key(row) -> tuple:
    """A metrics row's (experiment, variant, trial, step, metric); its value
    must be finite."""
    if not math.isfinite(float(row[5])):
        raise ValueError("non-finite metric value")
    return (row[0], row[1], int(row[2]), int(row[3]), row[4])


def _step_key(row) -> tuple:
    """A steps row's (experiment, variant, trial, peg_index, step)."""
    return (row[0], row[1], int(row[2]), int(row[3]), int(row[5]))


def validate_metrics_csv(path: Path) -> None:
    """The metrics file's rule on a written file: its header, each row's
    cell count and key, finite values and strictly increasing keys."""
    _require_increasing(read_table(
        path, METRIC_COLUMNS, "metrics", lambda rows: list(map(_metric_key, rows))), path)


def validate_steps_csv(path: Path) -> None:
    """The steps file's rule on a written file: its header, each row's cell
    count and key, and strictly increasing keys."""
    _require_increasing(read_table(
        path, STEP_COLUMNS, "steps", lambda rows: list(map(_step_key, rows))), path)


def _check_rows(path: Path, columns: tuple, key, rows: list) -> None:
    """The rule of `path`'s validator, on the rows about to be written there:
    `write_csv` writes the header and each cell's text, which `read_table`
    reads back, so rows pass here exactly when their file would pass it."""
    try:
        widths = set(map(len, rows)) - {len(columns)}
        if widths:
            raise ValueError(f"expected {len(columns)} cells, got {min(widths)}")
        keys = list(map(key, rows))
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"{path}: {exc}") from None
    _require_increasing(keys, path)


def _parse_variants(raw: str | None) -> tuple[str, ...]:
    """The variant names a `--variants` flag lists; none leaves the spec's
    default, and the spec reads each name."""
    return tuple(name.strip() for name in raw.split(",")) if raw else ()


def _config_blocks(path):
    """The config document at `path` and its env, spiral and sensors blocks,
    each read and checked, whichever of them the command uses."""
    doc = cfg.load_config(path)
    return doc, cfg.env_from(doc), cfg.spiral_from(doc), cfg.sensors_from(doc)


def cmd_calibrate(args) -> int:
    require_out(args.out, directory=False)
    doc, env, spiral, _ = _config_blocks(args.config)
    target = args.target_alpha if args.target_alpha is not None else env.alpha
    rng = derive_rng(args.seed, STREAM_CALIBRATE)
    result = tune_capture_radius(env, spiral, target, args.trials, rng)
    if result.alpha_hat <= 0.0:  # no config may hold it: alpha must lie in (0, 1]
        raise ConfigurationError(
            f"measured alpha is 0 over {result.trials} trials "
            f"at capture radius {result.capture_radius}; rerun with more --trials"
        )
    # every file is written before the report, which a closed pipe can cut short
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
        write_json(doc, args.out)
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
        print(f"wrote {args.out}")
    return 0


def cmd_train(args) -> int:
    if args.dataset and args.seed is not None:  # the seed seeds only generation
        raise ConfigurationError("argument --seed: not allowed with argument --dataset")
    require_out(args.out, directory=True)
    check_fit_settings(args.lr, args.epochs)
    _, env, spiral, sensors = _config_blocks(args.config)

    if args.dataset:
        records = load_dataset(args.dataset, env)
    else:
        records = generate_dataset(
            env, sensors, args.generate, derive_rng(args.seed or 0, STREAM_DATASET), spiral
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
    # written only once the fit has succeeded, so a failed run leaves --out
    # as it was, and before the report, which a closed pipe can cut short
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if not args.dataset:
        save_dataset(records, out_dir / "dataset.csv")
    write_csv(
        out_dir / "loss.csv", ("epoch", "mean_nll"),
        [(e + 1, history[e]) for e in range(len(history))],
    )
    params_path = out_dir / "learned_params.json"
    write_json(cfg.learned_to_doc(models), params_path)

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
    print(f"wrote {params_path}")
    return 0


def cmd_experiment(args) -> int:
    require_out(args.out, directory=True)
    _, env, spiral, sensors = _config_blocks(args.config)
    # without trained parameters the filters hold the sensors' truth
    learned = cfg.load_params(args.params) if args.params else sensors.filter_models()
    spec = ExperimentSpec(
        kind=args.kind,
        env=env,
        spiral=spiral,
        sensors=sensors,
        learned=learned,
        trials=args.trials,
        seed=args.seed,
        variants=_parse_variants(args.variants),
        steps=args.steps,
    )
    metric_rows, step_rows = run_experiment(spec)

    # both files' rows are checked before --out is touched, so a failed check
    # leaves it as it was
    out_dir = Path(args.out)
    metrics_path, steps_path = out_dir / "metrics.csv", out_dir / "steps.csv"
    _check_rows(metrics_path, METRIC_COLUMNS, _metric_key, metric_rows)
    _check_rows(steps_path, STEP_COLUMNS, _step_key, step_rows)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(metrics_path, METRIC_COLUMNS, metric_rows)
    write_csv(steps_path, STEP_COLUMNS, step_rows)

    value = {(r.variant, r.metric, r.step): r.value for r in metric_rows}
    print(f"experiment        : {args.kind} ({spec.trials} trials, seed {args.seed})")
    for name in (variant.value for variant in spec.variants):
        if args.kind == "position_estimation":
            first, last = (value[name, "pos_error_mean", t] for t in (0, spec.steps))
            print(f"  {name}: mean error {first:.4f} m -> {last:.4f} m")
        elif args.kind == "matching_insertion":
            final = value[name, "success_rate", spec.steps]
            print(f"  {name}: success within {spec.steps} steps = {final:.3f}")
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
        raise InvalidInputError(f"no records for trial {args.trial}")
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


class _Parser(argparse.ArgumentParser):
    """A parser, and each subcommand's, whose rejected flag raises, so that
    `main` prints it as one line and returns 2."""

    def error(self, message):
        raise ConfigurationError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves it as it was
    and returns a new namespace each time."""
    parser = _Parser(
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
    source = p.add_mutually_exclusive_group()
    source.add_argument("--dataset", default=None, help="existing dataset CSV")
    source.add_argument("--generate", type=int, default=3000,
                        help="generate this many interactions when no dataset is given")
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--epochs", type=int, default=2000)
    p.add_argument("--seed", type=int, default=None, help="seeds --generate (default: 0)")
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
    p.add_argument("--steps", type=int, default=None,
                   help=f"attempts per peg (default: {DEFAULT_STEPS[KIND_POSITION]} for "
                        "position_estimation, the config's horizon_high for matching_insertion, "
                        f"{DEFAULT_STEPS[KIND_ASSEMBLY]} for assembly)")
    p.add_argument("--out", default="results")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("replay", help="dump the per-step log of one trial")
    p.add_argument("--results", required=True)
    p.add_argument("--trial", type=int, required=True)
    p.set_defaults(func=cmd_replay)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # so that a closed pipe fails here and not at exit
        return code
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
        if isinstance(exc, BrokenPipeError):  # or stdout, whose reader has gone
            null_stdout()
        where = "" if exc.filename is None else f"{exc.filename}: "
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
